"""Network matching service: serve rulesets to remote clients over TCP.

    python examples/network_server.py

The deployment shape the paper motivates — one shared matching
accelerator behind a network front end, many tenants — using the
in-process :class:`BackgroundServer` so the walkthrough is
self-contained.  A real deployment runs the same server standalone::

    python -m repro serve --port 8765 --shards 4

and clients connect with :class:`repro.service.MatchingClient` (or
``AsyncMatchingClient``) from any process or machine.

Shown here:

1. register — rules ship as regexes (or MNRL / an Automaton); the
   server fingerprints, compiles, shards and caches them once;
2. one-shot scans — raw bytes in, columnar reports out (a
   ``ReportBatch``), byte-identical to an in-process ``Engine.run``;
3. streaming sessions — chunks arrive as frames, reports come back
   with stream-absolute offsets, even across chunk boundaries;
4. stats — cache hit rates and per-backend throughput, then a
   graceful drain via the ``shutdown`` frame.
"""

from repro.automata import compile_regex_set
from repro.api import ScanConfig
from repro.service import BackgroundServer, MatchingClient
from repro.sim import Engine


def main() -> None:
    rules = {
        "shell": r"/bin/(sh|bash)",
        "hex-blob": r"0x[0-9a-f]{4}",
        "beacon": r"PING[0-9]+PONG",
    }
    with BackgroundServer(config=ScanConfig(num_shards=2)) as background:
        print(f"server listening on 127.0.0.1:{background.port}")

        with MatchingClient(port=background.port) as client:
            # 1. register once; every later scan is a cache hit
            handle = client.register(rules)
            print(f"registered ruleset -> handle {handle[:16]}...")

            # 2. one-shot scan, identical to the in-process engine
            traffic = b"GET /bin/bash 0xdead PING42PONG " * 20
            remote = client.scan(handle, traffic)
            local = Engine(compile_regex_set(rules, name="local")).run(traffic)
            assert [(r.cycle, r.code) for r in remote.reports] == [
                (r.cycle, r.code) for r in local.reports
            ]
            print(
                f"scan: {remote.num_reports} reports over "
                f"{remote.bytes_scanned} bytes, backends {remote.backends}, "
                f"identical to the local engine"
            )

            # 3. a streaming session; the beacon match spans two chunks
            session = client.open_session(handle, "sensor-7")
            first = session.feed(b"syslog: PING4")
            second = session.feed(b"2PONG and more")
            print(
                f"session: chunk 1 -> {[(r.cycle, r.code) for r in first]}, "
                f"chunk 2 -> {[(r.cycle, r.code) for r in second]} "
                f"(offsets are stream-absolute)"
            )
            print(f"session summary: {session.close()}")

            # 4. service statistics, then a graceful drain
            stats = client.stats()
            print(
                f"stats: cache {stats['cache']}, "
                f"{stats['frames']} frames over "
                f"{stats['connections']['total']} connection(s)"
            )
            for name, entry in stats["backends"].items():
                print(
                    f"  backend {name}: {entry['scans']} scans, "
                    f"{entry['bytes']} bytes, "
                    f"{entry['throughput_mbps']:.2f} MB/s"
                )
            print(f"shutdown: {client.shutdown()}")
    print("server drained and stopped")


if __name__ == "__main__":
    main()
