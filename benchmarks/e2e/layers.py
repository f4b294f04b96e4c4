"""The traced run: one span per call into each layer's public functions.

Spans are recorded here, from the benchmark's own files (tracing inside
``src/`` is a later change).  Layers that are subtracted from each other
run round-robin on the same bytes, so a host-speed change hits all of
them alike; every time-based number is at nominal host speed.  A layer's
``self`` is its median minus the layer below on the same bytes.
"""

from __future__ import annotations

import json
import statistics
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from repro.api import ScanConfig
from repro.service import MatchingService
from repro.service.protocol import (
    decode_data,
    decode_frame,
    decode_reports,
    encode_data,
    encode_frame,
    encode_reports,
    ok_frame,
)

import measure
import phases
from topology import Topology
from workloads import FEED_BYTES, Inputs

#: share of the run's seconds each group of probes is boxed to
GROUP_SHARES = {"block": 0.15, "chunk": 0.10, "batch": 0.075, "ledger": 0.05}
#: share the spans-on repeat of the end-to-end phases measures for
END_TO_END_SHARE = 0.35
#: every probe of a group runs at least this many times
MIN_CYCLES = 3

#: add/remove updates the router probe fans out to both replicas
ROUTER_UPDATES = 12
BATCH_ROWS = 64
SCAN_MANY_STREAMS = 32
LEDGER_BYTES = 16 * 1024


@dataclass
class Probe:
    """One layer call: ``before`` (untimed) prepares, ``call`` is the span."""

    name: str
    call: object
    nbytes: int
    before: object = None
    #: checks ``call``'s last result against the reference
    matches: object = None


def run_group(log, ops, probes: list[Probe], seconds: float) -> dict:
    """Round-robin ``probes`` for ``seconds``, one calibration pass per
    cycle; returns each probe's median ns at nominal host speed, taken
    from the spans the group logged."""
    first_span = len(log.spans)
    last = {}
    cycles = 0
    deadline = time.perf_counter() + seconds
    while cycles < MIN_CYCLES or time.perf_counter() < deadline:
        for probe in probes:
            if probe.before is not None:
                probe.before()
            last[probe.name], _ = ops.run(probe.name, probe.call, probe.nbytes)
            if last[probe.name] is None:
                raise RuntimeError(f"{probe.name} failed: {ops.errors}")
        log.timed("calibration.pass", measure.calibration_pass)
        cycles += 1
    for probe in probes:
        if probe.matches is not None and not probe.matches(last[probe.name]):
            ops.fail(f"{probe.name}: result differs from the reference")
    medians = measure.median_durations(log.spans[first_span:])
    pass_seconds = medians.pop("calibration.pass") / 1e9
    return {
        name: measure.calibrated(ns, pass_seconds)
        for name, ns in medians.items()
    }


# -- codec --------------------------------------------------------------------


def codec_probe(name: str, op: str, data: bytes, reports, extra: dict):
    """Both ends' framing work for one real request and response:
    returns ``(probe, wire bytes)``."""
    request = {"id": 1, "op": op, "data": encode_data(data), **extra}
    response = ok_frame(
        1, reports=encode_reports(reports), truncated=False, warnings=[]
    )
    wire = len(encode_frame(request)) + len(encode_frame(response))

    def round_trip():
        line = encode_frame(request)  # client
        decode_data(decode_frame(line)["data"])  # server
        reply = encode_frame(
            ok_frame(
                1, reports=encode_reports(reports), truncated=False,
                warnings=[],
            )  # fmt: skip
        )
        return decode_reports(decode_frame(reply)["reports"])  # client

    return Probe(name, round_trip, len(data)), wire


# -- chunked streams ------------------------------------------------------------


class ChunkStream:
    """Feeds the block FEED_BYTES at a time into one layer's stream
    state, starting a fresh stream when the block is used up, and
    compares each finished stream with the reference."""

    def __init__(self, inputs: Inputs, ops, name, fresh, step, close=None):
        self.inputs, self.ops, self.name = inputs, ops, name
        self._fresh, self._step, self._close = fresh, step, close
        self._target = None
        self._offset = 0
        self._reports: list = []
        self._chunk = b""

    def before(self) -> None:
        if self._target is None or self._offset >= len(self.inputs.block):
            self.finish()
            self._target = self._fresh()
        self._chunk = self.inputs.block[self._offset : self._offset + FEED_BYTES]
        self._offset += len(self._chunk)

    def call(self):
        reports = self._step(self._target, self._chunk)
        self._reports.extend(reports)
        return reports

    def finish(self) -> None:
        if self._target is None:
            return
        want = self.inputs.prefix_keys(self.inputs.block_keys, self._offset)
        if measure.report_keys(self._reports) != want:
            self.ops.fail(f"{self.name}: stream differs from the reference")
        if self._close is not None:
            self._close(self._target)
        self._target, self._offset, self._reports = None, 0, []

    def probe(self) -> Probe:
        return Probe(self.name, self.call, FEED_BYTES, before=self.before)


# -- the traced run -------------------------------------------------------------


@dataclass
class Rig:
    """What every probe group works on."""

    inputs: Inputs
    seconds: float
    log: measure.SpanLog
    ops: phases.Ops
    service: MatchingService
    dispatcher: object
    engine: object
    #: a client of node 0 and a client of the router, one handle for both
    direct: object
    routed: object
    handle: str

    def group(self, share: str, probes: list[Probe]) -> dict:
        return run_group(
            self.log, self.ops, probes, self.seconds * GROUP_SHARES[share]
        )

    def keys_match(self, result) -> bool:
        return measure.report_keys(result.reports) == self.inputs.block_keys


def block_chain(rig: Rig) -> dict:
    """The whole block through kernel, engine, dispatcher, service,
    codec, server and router, round-robin; plus the kernel's exact
    simulated counts, which must repeat."""
    block = rig.inputs.block
    automaton = rig.inputs.automaton
    engine, kernel = rig.engine, rig.engine.kernel
    nbytes = len(block)

    def kernel_run():
        return kernel.run_chunk(block, engine.initial_state(), max_reports=0)

    codec, wire = codec_probe(
        "protocol.scan_codec", "scan", block,
        rig.service.scan(automaton, block).reports, {"handle": rig.handle},
    )  # fmt: skip
    cpu = {"cpu": 0.0, "wall": 0.0}

    def server_scan():
        cpu_start, start = time.process_time(), time.perf_counter()
        result = rig.direct.scan(rig.handle, block)
        cpu["cpu"] += time.process_time() - cpu_start
        cpu["wall"] += time.perf_counter() - start
        return result

    match = rig.keys_match
    ns = rig.group("block", [
        Probe("kernel.run_chunk", kernel_run, nbytes,
              matches=lambda r: r.stats.num_reports
              == len(rig.inputs.block_keys)),
        Probe("engine.run", lambda: engine.run(block), nbytes, matches=match),
        Probe("dispatcher.scan", lambda: rig.dispatcher.scan(block), nbytes,
              matches=match),
        Probe("service.scan", lambda: rig.service.scan(automaton, block),
              nbytes, matches=match),
        codec,
        Probe("server.scan", server_scan, nbytes, matches=match),
        Probe("router.scan", lambda: rig.routed.scan(rig.handle, block),
              nbytes, matches=match),
        Probe("server.ping", rig.direct.ping, 0),
        Probe("router.ping", rig.routed.ping, 0),
    ])  # fmt: skip

    stats, again = kernel_run().stats, kernel_run().stats
    counts = [
        (s.enabled_states_sum, s.active_states_sum, s.num_reports)
        for s in (stats, again)
    ]
    if counts[0] != counts[1]:
        rig.ops.fail("kernel: simulated counts differ between two runs")

    def per_byte(name: str, *below: str) -> tuple[float, str]:
        return (measure.self_time(ns, name, *below) / nbytes, "ns/B")

    states = len(engine.automaton)
    return {
        "kernel.ns_per_byte": per_byte("kernel.run_chunk"),
        "kernel.states": (states, "count"),
        "kernel.words": ((states + 63) // 64, "count"),
        "kernel.is_native": (int(engine.backend_name == "native"), "count"),
        "kernel.enabled_per_cycle": (
            stats.enabled_states_sum / stats.num_cycles, "count"),
        "kernel.active_per_cycle": (
            stats.active_states_sum / stats.num_cycles, "count"),
        "kernel.reports_per_kb": (stats.num_reports / (nbytes / 1024), "count"),
        "engine.ns_per_byte": per_byte("engine.run"),
        "engine.self_ns_per_byte": per_byte("engine.run", "kernel.run_chunk"),
        "dispatcher.ns_per_byte": per_byte("dispatcher.scan"),
        "dispatcher.self_ns_per_byte": per_byte(
            "dispatcher.scan", "engine.run"),
        "service.ns_per_byte": per_byte("service.scan"),
        "service.self_ns_per_byte": per_byte(
            "service.scan", "dispatcher.scan"),
        "protocol.scan_codec_ns_per_byte": per_byte("protocol.scan_codec"),
        "protocol.scan_wire_bytes_per_byte": (wire / nbytes, "B/B"),
        "server.ping_us": (ns["server.ping"] / 1e3, "us"),
        "server.scan_ns_per_byte": per_byte("server.scan"),
        "server.scan_self_ns_per_byte": per_byte(
            "server.scan", "service.scan", "protocol.scan_codec"),
        "client.cpu_share": (cpu["cpu"] / cpu["wall"], "share"),
        "router.ping_us": (ns["router.ping"] / 1e3, "us"),
        "router.scan_ns_per_byte": per_byte("router.scan"),
        "router.scan_self_ns_per_byte": per_byte("router.scan", "server.scan"),
    }  # fmt: skip


def chunk_chain(rig: Rig) -> dict:
    """FEED_BYTES at a time through engine, dispatcher, session, codec,
    server and router, every layer on the same chunk of its own stream."""
    inputs, ops, service = rig.inputs, rig.ops, rig.service
    automaton, engine, dispatcher = inputs.automaton, rig.engine, rig.dispatcher
    names = iter(range(1 << 62))

    def remote(name: str, client) -> ChunkStream:
        return ChunkStream(
            inputs, ops, name,
            lambda: client.open_session(rig.handle, f"p{next(names)}"),
            lambda session, chunk: session.feed(chunk),
            close=lambda session: session.close(),
        )  # fmt: skip

    streams = [
        ChunkStream(
            inputs, ops, "engine.run_chunk512", engine.initial_state,
            lambda state, chunk: engine.run_chunk(chunk, state).reports,
        ),
        ChunkStream(
            inputs, ops, "dispatcher.run_chunk512", dispatcher.initial_states,
            lambda states, chunk: dispatcher.run_chunk(chunk, states).reports,
        ),
        ChunkStream(
            inputs, ops, "session.feed512",
            lambda: service.open_session(automaton, f"p{next(names)}"),
            lambda session, chunk: session.feed(chunk),
            close=lambda session: service.close_session(session.name),
        ),
        remote("server.feed512", rig.direct),
        remote("router.feed512", rig.routed),
    ]
    first = inputs.block[:FEED_BYTES]
    codec, wire = codec_probe(
        "protocol.feed512_codec", "feed", first, engine.run(first).reports,
        {"session": "p0"},
    )  # fmt: skip
    snapshots = service.open_session(automaton, "snapshot")
    snapshots.feed(first)
    ns = rig.group(
        "chunk",
        [stream.probe() for stream in streams]
        + [codec, Probe("session.snapshot", snapshots.snapshot, 0)],
    )
    for stream in streams:
        stream.finish()
    service.close_session("snapshot")

    def us(name: str, *below: str) -> tuple[float, str]:
        return (measure.self_time(ns, name, *below) / 1e3, "us")

    return {
        "engine.chunk512_us": us("engine.run_chunk512"),
        "dispatcher.chunk512_us": us("dispatcher.run_chunk512"),
        "session.feed512_us": us("session.feed512"),
        "session.self_us": us("session.feed512", "dispatcher.run_chunk512"),
        "session.snapshot_us": us("session.snapshot"),
        "protocol.feed512_codec_us": us("protocol.feed512_codec"),
        "protocol.feed512_wire_bytes": (wire, "B"),
        "server.feed512_us": us("server.feed512"),
        "server.feed512_self_us": us(
            "server.feed512", "session.feed512", "protocol.feed512_codec"),
        "router.feed512_us": us("router.feed512"),
        "router.feed512_self_us": us("router.feed512", "server.feed512"),
    }  # fmt: skip


def batch_group(rig: Rig) -> dict:
    """The batched paths: BATCH_ROWS x FEED_BYTES per kernel and
    dispatcher call, SCAN_MANY_STREAMS streams per ``scan_many``."""
    inputs, dispatcher = rig.inputs, rig.dispatcher
    kernel = rig.engine.kernel
    block = inputs.block
    chunks = [
        block[offset : offset + FEED_BYTES]
        for offset in range(0, len(block), FEED_BYTES)
    ]
    rows = [chunks[i % len(chunks)] for i in range(BATCH_ROWS)]
    row_bytes = BATCH_ROWS * FEED_BYTES
    many = inputs.streams or {
        f"s{i:02d}": chunks[i] for i in range(SCAN_MANY_STREAMS)
    }
    many_bytes = sum(len(data) for data in many.values())
    fresh = {}

    def fresh_states() -> None:
        fresh["kernel"] = kernel.initial_batch(BATCH_ROWS)
        fresh["dispatcher"] = [
            dispatcher.initial_states() for _ in range(BATCH_ROWS)
        ]

    def many_match(results) -> bool:
        return not inputs.streams or phases.scan_matches(
            inputs, {name: r.reports for name, r in results.items()}
        )

    ns = rig.group("batch", [
        Probe("kernel.step_batch",
              lambda: kernel.step_batch(rows, fresh["kernel"], max_reports=0),
              row_bytes, before=fresh_states),
        Probe("dispatcher.run_chunk_batch",
              lambda: dispatcher.run_chunk_batch(rows, fresh["dispatcher"]),
              row_bytes),
        Probe("service.scan_many",
              lambda: rig.service.scan_many(inputs.automaton, many),
              many_bytes, matches=many_match),
    ])  # fmt: skip
    cache = rig.service.cache_stats
    return {
        "kernel.batch_ns_per_byte": (
            ns["kernel.step_batch"] / row_bytes, "ns/B"),
        "dispatcher.batch_ns_per_byte": (
            ns["dispatcher.run_chunk_batch"] / row_bytes, "ns/B"),
        "service.scan_many_ns_per_byte": (
            ns["service.scan_many"] / many_bytes, "ns/B"),
        "service.cache_hit_share": (
            cache.hits / max(1, cache.hits + cache.misses), "share"),
    }  # fmt: skip


def router_updates(rig: Rig) -> dict:
    """ROUTER_UPDATES alternate add/remove updates through the router,
    each fanned out to both replicas; pairs averaged as in the update
    phase."""
    took_ms = []
    for index in range(ROUTER_UPDATES):
        change = phases.hot_change(rig.inputs, add=index % 2 == 0)
        reply, took = rig.ops.run(
            "router.update", lambda: rig.routed.update(rig.handle, **change)
        )
        if reply is None:
            raise RuntimeError(f"router.update failed: {rig.ops.errors}")
        passed = rig.log.timed("calibration.pass", measure.calibration_pass)
        took_ms.append(measure.calibrated(took, passed) * 1e3)
    return {
        "router.update_ms": (
            statistics.median(phases.pair_means(took_ms)), "ms"),
    }  # fmt: skip


def end_to_end_again(inputs, seconds, scratch, log, ops) -> dict:
    """The end-to-end phases once more with a span around every client
    call: batch-scheduler shares, the demoted feed and update numbers,
    and what a span costs."""
    repeat = phases.run_end_to_end(
        inputs, seconds * END_TO_END_SHARE, scratch, log=log, setup_repeats=1
    )
    ops.attempted += repeat.ops.attempted
    ops.failed += repeat.ops.failed
    ops.errors += repeat.ops.errors
    flushes = max(1, repeat.batching["batches"])
    empty = measure.SpanLog(block=log.block)
    for _ in range(10000):
        empty.timed("noop", int)
    span_ns = statistics.median(span.duration_ns for span in empty.spans)
    return {
        "batching.avg_rows": (repeat.batching["rows"] / flushes, "count"),
        "batching.max_delay_share": (
            repeat.batching["max_delay"] / flushes, "share"),
        "batching.rows_full_share": (
            repeat.batching["rows_full"] / flushes, "share"),
        "batching.immediate_share": (
            repeat.batching["immediate"] / flushes, "share"),
        "feed.mbps": (statistics.median(repeat.feed_mbps), "MB/s"),
        "feed.p95_ms": (measure.percentile(repeat.feed_ms, 95), "ms"),
        "update.p50_ms": (statistics.median(repeat.update_ms), "ms"),
        "trace.overhead_share": (
            span_ns / (statistics.median(repeat.feed_ms) * 1e6), "share"),
    }  # fmt: skip


def run_traced(inputs: Inputs, seconds: float, scratch: Path, out_dir: Path):
    """Probe every layer on the workload's block, repeat the end-to-end
    phases with spans on, write the span file; returns ``(metrics, ops)``
    with ``metrics`` as ``{name: (value, unit)}``."""
    block_id = f"{measure.digest(inputs.block_keys)[:12]}-{inputs.seed}"
    log = measure.SpanLog(block=block_id)
    ops = phases.Ops(log=log)
    values: dict[str, tuple[float, str]] = {}

    service = MatchingService(ScanConfig(**inputs.config_kwargs))
    # a fleet whatever the workload: node 0 answers the server probes
    # directly, the router answers the same calls one hop further out
    fleet = Topology(inputs.workload, scratch, fleet=True).start()
    clients = []
    try:
        direct = fleet.client(fleet.nodes[0].port)
        routed = fleet.client()
        clients = [direct, routed]
        handle = phases.first_scan(routed, inputs, ops)
        dispatcher = service.dispatcher(inputs.automaton)
        rig = Rig(
            inputs, seconds, log, ops, service, dispatcher,
            dispatcher.engines[0], direct, routed, handle,
        )  # fmt: skip
        with phases.harness_heap_frozen():
            values.update(block_chain(rig))
            values.update(chunk_chain(rig))
            values.update(batch_group(rig))
            values.update(router_updates(rig))
            values.update(
                ledger_metrics(
                    inputs, service, log, ops, seconds * GROUP_SHARES["ledger"]
                )
            )
    finally:
        for client in clients:
            client.close()
        fleet.stop()
        service.close()
    values.update(compile_metrics(inputs, scratch, log, ops))
    values.update(end_to_end_again(inputs, seconds, scratch, log, ops))
    passes = [
        span.duration_ns / 1e9
        for span in log.spans
        if span.name == "calibration.pass"
    ]
    values["host.speed"] = (
        measure.CALIBRATION_NOMINAL_S / statistics.median(passes), "x",
    )  # fmt: skip

    out_dir.mkdir(exist_ok=True)
    (out_dir / f"trace-{inputs.workload.name}.json").write_text(
        json.dumps({"block": block_id, "spans": log.to_json()})
    )
    return values, ops


def timed_once(log, ops, name: str, fn) -> tuple[object, float]:
    """One long call, host speed sampled before and after; returns
    ``(result, calibrated seconds)``."""
    before = measure.median_pass()
    result, took = ops.run(name, fn)
    if result is None:
        raise RuntimeError(f"{name} failed: {ops.errors}")
    return result, measure.calibrated(
        took, (before + measure.median_pass()) / 2
    )


def compile_metrics(inputs: Inputs, scratch: Path, log, ops) -> dict:
    """Cold register (empty store), warm register (second service, same
    store) and a one-pattern update."""
    store = Path(tempfile.mkdtemp(prefix="compile-", dir=scratch))
    config = ScanConfig(artifact_store=str(store), **inputs.config_kwargs)
    with MatchingService(config) as cold:
        _, cold_s = timed_once(
            log, ops, "compile.cold",
            lambda: cold.register_ruleset(inputs.automaton),
        )  # fmt: skip
    artifact_bytes = sum(
        path.stat().st_size for path in store.rglob("*") if path.is_file()
    )
    with MatchingService(config) as warm:
        _, warm_s = timed_once(
            log, ops, "compile.warm",
            lambda: warm.register_ruleset(inputs.automaton),
        )  # fmt: skip
        record, update_s = timed_once(
            log, ops, "compile.update",
            lambda: warm.update_ruleset(
                inputs.automaton, **phases.hot_change(inputs, add=True)
            ),
        )  # fmt: skip
    components = record.reused_components + record.compiled_components
    return {
        "compile.cold_s": (cold_s, "s"),
        "compile.warm_s": (warm_s, "s"),
        "compile.update_ms": (update_s * 1e3, "ms"),
        "compile.artifact_bytes": (artifact_bytes, "B"),
        "compile.reused_component_share": (
            record.reused_components / max(1, components), "share"),
    }  # fmt: skip


def ledger_metrics(inputs: Inputs, service, log, ops, seconds: float) -> dict:
    """One LEDGER_BYTES scan with and without the hardware ledger: the
    simulated CAMA-E energy and latency must repeat exactly."""
    data = inputs.block[:LEDGER_BYTES]
    seen = set()

    def ledgered():
        result = service.scan(inputs.automaton, data, hardware_ledger=True)
        seen.add((result.ledger.total_pj, result.ledger.modeled_latency_s))
        return result

    medians = run_group(
        log, ops,
        [
            Probe("ledger.plain",
                  lambda: service.scan(inputs.automaton, data), len(data)),
            Probe("ledger.scan", ledgered, len(data)),
        ],
        seconds,
    )  # fmt: skip
    if len(seen) != 1:
        ops.fail(f"ledger: simulated numbers differ between runs: {seen}")
    total_pj, latency_s = next(iter(seen))
    return {
        "ledger.energy_pj_per_byte": (total_pj / len(data), "pJ/B"),
        "ledger.latency_ns_per_byte": (latency_s * 1e9 / len(data), "ns/B"),
        "ledger.host_overhead_share": (
            1.0 - medians["ledger.plain"] / medians["ledger.scan"], "share"),
    }  # fmt: skip
