"""The hardware ledger: differential tests against the paper accounting.

The acceptance property: a *served* scan with
``ScanConfig(hardware_ledger=True)`` must return exactly the modeled
energy the offline Fig. 12 accounting computes for the same workload —
``build_design(...)`` + the sparse engine with the build's placement and
``max_reports=0`` (the ``ExperimentContext.stats`` path behind
``repro.experiments.fig12_energy_breakdown``).  The tests here assert
that equality at every layer: probe vs offline, service vs offline,
streamed session vs one-shot scan, and over the wire through the real
TCP server — plus the stats-frame v2 fields, the Prometheus ``metrics``
op (>= 12 distinct series spanning kernel / cache / compile / server),
and counter exactness under many concurrent clients.
"""

import json
import threading

import pytest

from repro.api import ScanConfig
from repro.arch.designs import build_design
from repro.automata import compile_regex_set
from repro.errors import ConfigError
from repro.service import BackgroundServer, MatchingClient, MatchingService
from repro.service.client import RemoteError
from repro.sim.backends import NativeKernel
from repro.sim.engine import Engine
from repro.telemetry.ledger import (
    HardwareLedger,
    LedgerAccumulator,
    LedgerProbe,
    check_ledger_design,
)
from repro.telemetry.metrics import default_registry

RULES = {"r1": "(a|b)e*cd+", "r2": "abc", "r3": "x+y"}
STREAM = b"aecdabcxxyaecddabcyx" * 40


@pytest.fixture(scope="module")
def ruleset():
    return compile_regex_set(RULES, name="ledger-tests")


def offline_ledger(automaton, data, design="CAMA-E"):
    """The Fig. 12 accounting path, straight-line (no probe, no service)."""
    build = build_design(design, automaton)
    stats = Engine(automaton, backend="sparse").run(
        data, placement=build.placement, max_reports=0
    ).stats
    return build, build.energy(stats), stats


def assert_ledger_matches(ledger, build, energy, stats, rel=1e-12):
    """One ledger (object or wire dict) equals the offline accounting."""
    get = ledger.get if isinstance(ledger, dict) else (
        lambda k: getattr(ledger, k)
    )
    assert get("design") == build.design
    assert get("num_cycles") == stats.num_cycles
    assert get("total_pj") == pytest.approx(energy.total_pj, rel=rel)
    assert get("state_match_pj") == pytest.approx(
        energy.state_match_pj, rel=rel
    )
    assert get("switch_pj") == pytest.approx(
        energy.local_switch_pj + energy.global_switch_pj, rel=rel
    )
    assert get("wire_pj") == pytest.approx(energy.wire_pj, rel=rel, abs=1e-12)
    assert get("encoder_pj") == pytest.approx(energy.encoder_pj, rel=rel)
    freq = build.timing.freq_operated_ghz
    assert get("freq_ghz") == pytest.approx(freq, rel=rel)
    assert get("modeled_latency_s") == pytest.approx(
        stats.num_cycles / (freq * 1e9), rel=rel
    )
    assert get("num_partitions") == build.placement.num_partitions
    assert get("placed_states") == len(build.placement.partition_of)


class TestLedgerCore:
    def test_check_design_rejects_unknown(self):
        assert check_ledger_design("CAMA-E") == "CAMA-E"
        with pytest.raises(ConfigError, match="unknown ledger design"):
            check_ledger_design("CAMA-X")

    def test_probe_requires_sparse_engine(self, ruleset):
        # the packed kernel itself (on a host without the C loop
        # backend="native" would hand out the sparse kernel)
        fast = Engine.from_kernel(NativeKernel(ruleset))
        with pytest.raises(ConfigError, match="sparse reference kernel"):
            LedgerProbe(ruleset, engine=fast)

    def test_probe_matches_offline_accounting(self, ruleset):
        ledger = LedgerProbe(ruleset, "CAMA-E").run(STREAM)
        build, energy, stats = offline_ledger(ruleset, STREAM)
        assert_ledger_matches(ledger, build, energy, stats)
        fractions = ledger.fractions()
        expected = energy.fractions()
        assert fractions["state_match"] == pytest.approx(
            expected["state_match"]
        )
        assert fractions["switch_wire"] == pytest.approx(
            expected["switch_wire"]
        )
        assert fractions["encoder"] == pytest.approx(expected["encoder"])

    def test_chunked_probe_equals_one_shot(self, ruleset):
        one_shot = LedgerProbe(ruleset, "CAMA-E").run(STREAM)
        chunked_probe = LedgerProbe(ruleset, "CAMA-E")
        for i in range(0, len(STREAM), 97):  # awkward chunk edges
            chunked_probe.feed(STREAM[i : i + 97])
        chunked = chunked_probe.ledger()
        assert chunked.num_cycles == one_shot.num_cycles
        assert chunked.total_pj == pytest.approx(one_shot.total_pj, rel=1e-12)
        assert chunked.state_match_pj == pytest.approx(
            one_shot.state_match_pj, rel=1e-12
        )

    def test_to_dict_is_json_clean(self, ruleset):
        ledger = LedgerProbe(ruleset, "CAMA-T").run(STREAM[:100])
        payload = json.loads(json.dumps(ledger.to_dict()))
        assert payload["design"] == "CAMA-T"
        assert payload["num_cycles"] == 100
        assert payload["total_pj"] > 0
        assert 0 < payload["tile_occupancy"] <= 1
        assert isinstance(payload["counts"], dict)

    def test_render_mentions_breakdown(self, ruleset):
        text = LedgerProbe(ruleset).run(STREAM[:50]).render()
        assert "ledger design=CAMA-E" in text
        assert "state-match" in text and "switch+wire" in text
        assert "occupancy" in text

    def test_accumulator_sums(self, ruleset):
        first = LedgerProbe(ruleset).run(STREAM[:100])
        second = LedgerProbe(ruleset).run(STREAM[100:300])
        totals = LedgerAccumulator()
        totals.add(first)
        totals.add(second)
        assert totals.scans == 2
        assert totals.cycles == first.num_cycles + second.num_cycles
        assert totals.total_pj == pytest.approx(
            first.total_pj + second.total_pj
        )
        assert set(json.loads(json.dumps(totals.to_dict()))) >= {
            "scans",
            "cycles",
            "total_pj",
        }


class TestServiceLedger:
    def test_served_scan_matches_offline(self, ruleset):
        with MatchingService(
            ScanConfig(hardware_ledger=True, num_shards=2)
        ) as service:
            result = service.scan(ruleset, STREAM)
            assert result.ledger is not None
            build, energy, stats = offline_ledger(ruleset, STREAM)
            assert_ledger_matches(result.ledger, build, energy, stats)
            assert service.ledger_totals.scans == 1
            assert service.ledger_totals.total_pj == pytest.approx(
                result.ledger.total_pj
            )

    def test_per_request_override(self, ruleset):
        # deployment config does not ledger; one request asks for it
        with MatchingService() as service:
            plain = service.scan(ruleset, STREAM[:100])
            assert plain.ledger is None and plain.trace is None
            asked = service.scan(
                ruleset,
                STREAM[:100],
                hardware_ledger=True,
                ledger_design="CAMA-T",
                trace=True,
            )
            assert asked.ledger is not None
            assert asked.ledger.design == "CAMA-T"
            assert asked.trace_id is not None
            names = {span.name for span in asked.trace.spans}
            assert "service.scan" in names
            assert "ledger.probe" in names
            assert service.ledger_totals.scans == 1

    def test_bad_design_override_raises(self, ruleset):
        with MatchingService() as service:
            with pytest.raises(ConfigError, match="unknown ledger design"):
                service.scan(
                    ruleset,
                    STREAM[:50],
                    hardware_ledger=True,
                    ledger_design="nope",
                )

    def test_session_ledger_equals_one_shot(self, ruleset):
        with MatchingService(
            ScanConfig(hardware_ledger=True, num_shards=2)
        ) as service:
            scan = service.scan(ruleset, STREAM)
            session = service.open_session(ruleset, "tenant-a")
            for i in range(0, len(STREAM), 173):
                session.feed(STREAM[i : i + 173])
            streamed = session.ledger()
            service.close_session("tenant-a")
            assert streamed.num_cycles == scan.ledger.num_cycles
            assert streamed.total_pj == pytest.approx(
                scan.ledger.total_pj, rel=1e-12
            )
            # both the scan and the closed session folded into totals
            assert service.ledger_totals.scans == 2
            assert service.ledger_totals.total_pj == pytest.approx(
                2 * scan.ledger.total_pj
            )


@pytest.fixture(scope="module")
def harness():
    with BackgroundServer(
        config=ScanConfig(num_shards=2)
    ) as background:
        yield background


class TestServerLedger:
    def test_wire_ledger_matches_offline(self, harness, ruleset):
        with MatchingClient(port=harness.port) as client:
            handle = client.register(RULES)
            result = client.scan(
                handle, STREAM, hardware_ledger=True, trace=True
            )
        assert result.trace_id is not None and len(result.trace_id) == 32
        build, energy, stats = offline_ledger(ruleset, STREAM)
        # the wire ledger crossed JSON; equality up to float repr
        assert_ledger_matches(result.ledger, build, energy, stats, rel=1e-9)

    def test_unledgered_scan_has_no_ledger(self, harness):
        with MatchingClient(port=harness.port) as client:
            handle = client.register(RULES)
            result = client.scan(handle, STREAM[:100])
        assert result.ledger is None and result.trace_id is None

    def test_bad_wire_design_is_bad_request(self, harness):
        with MatchingClient(port=harness.port) as client:
            handle = client.register(RULES)
            with pytest.raises(RemoteError) as err:
                client.scan(
                    handle,
                    STREAM[:50],
                    hardware_ledger=True,
                    ledger_design="nope",
                )
            assert err.value.code == "bad-request"

    def test_session_ledger_over_wire(self, harness, ruleset):
        with MatchingClient(port=harness.port) as client:
            handle = client.register(RULES)
            scan = client.scan(handle, STREAM, hardware_ledger=True)
            session = client.open_session(
                handle, "wire-ledger", hardware_ledger=True
            )
            half = len(STREAM) // 2
            session.feed(STREAM[:half])
            assert session.ledger is not None  # running ledger mid-stream
            assert session.ledger["num_cycles"] == half
            session.feed(STREAM[half:])
            session.close()
        assert session.ledger["num_cycles"] == len(STREAM)
        assert session.ledger["total_pj"] == pytest.approx(
            scan.ledger["total_pj"], rel=1e-9
        )

    def test_stats_frame_v2(self, harness):
        with MatchingClient(port=harness.port) as client:
            handle = client.register(RULES)
            client.scan(handle, STREAM[:100], hardware_ledger=True)
            stats = client.stats()
        assert stats["stats_version"] == 2
        assert stats["telemetry"]["metrics_enabled"] in (True, False)
        assert stats["telemetry"]["hardware_ledger"] is False
        assert stats["ledger"]["scans"] >= 1
        assert stats["ledger"]["total_pj"] > 0

    def test_metrics_endpoint_spans_every_layer(self, harness):
        with MatchingClient(port=harness.port) as client:
            handle = client.register(RULES)
            client.scan(handle, STREAM[:100])
            text = client.metrics()
        families = {
            line.split()[2]
            for line in text.splitlines()
            if line.startswith("# TYPE")
        }
        assert len(families) >= 12
        for required in (
            "repro_kernel_chunks_total",
            "repro_kernel_chunk_seconds",
            "repro_ruleset_cache_events_total",
            "repro_compile_pass_runs_total",
            "repro_compile_pass_seconds",
            "repro_dispatcher_scans_total",
            "repro_service_scans_total",
            "repro_service_scan_seconds",
            "repro_server_requests_total",
            "repro_server_request_seconds",
            "repro_server_connections_total",
            "repro_server_inflight_frames",
        ):
            assert required in families, required

    def test_many_clients_exact_request_counters(self, harness):
        """Satellite: hammer scan+stats from N concurrent clients.

        The server-side ``repro_server_requests_total`` deltas must be
        exact: every request counted once under op="scan" / op="stats"
        with outcome="ok".
        """
        registry = default_registry()
        requests = registry.counter(
            "repro_server_requests_total",
            "Requests handled, by op and outcome",
            ("op", "outcome"),
        )
        was_enabled = registry.enabled
        registry.enable()
        scans0 = requests.labels("scan", "ok").value
        stats0 = requests.labels("stats", "ok").value
        clients, per_client = 5, 8
        with MatchingClient(port=harness.port) as primer:
            handle = primer.register(RULES)
        failures = []

        def work():
            try:
                with MatchingClient(port=harness.port) as client:
                    for _ in range(per_client):
                        result = client.scan(handle, STREAM[:200])
                        assert result.num_reports > 0
                        payload = client.stats()
                        assert payload["stats_version"] == 2
            except Exception as exc:  # surfaced after join
                failures.append(exc)

        pool = [threading.Thread(target=work) for _ in range(clients)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        try:
            assert not failures, failures
            total = clients * per_client
            assert requests.labels("scan", "ok").value - scans0 == total
            assert requests.labels("stats", "ok").value - stats0 == total
        finally:
            registry.enabled = was_enabled
