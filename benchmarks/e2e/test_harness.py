"""Fast checks of the harness's own arithmetic (no sockets, no servers).

Runs in tier-1: ``PYTHONPATH=src python -m pytest -q`` collects it.
"""

import dataclasses
import json
import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import measure  # noqa: E402
import workloads  # noqa: E402
from measure import Span  # noqa: E402


class TestPercentileRule:
    def test_highest_percentile_keeps_ten_samples_beyond_it(self):
        rule = measure.highest_supported_percentile
        assert rule(19) is None  # not even the median
        assert rule(20) == 50.0
        assert rule(100) == 90.0
        assert rule(199) == 90.0
        assert rule(200) == 95.0
        assert rule(999) == 95.0
        assert rule(1000) == 99.0
        assert rule(10000) == 99.9

    def test_percentile_interpolates(self):
        samples = [float(v) for v in range(1, 102)]  # 1..101
        assert measure.percentile(samples, 50) == 51.0
        assert measure.percentile(samples, 95) == 96.0
        assert measure.percentile([3.0, 1.0], 50) == 2.0
        with pytest.raises(ValueError):
            measure.percentile([], 50)

    def test_quartiles_are_the_drivers(self):
        values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
        assert measure.quartiles(values) == tuple(
            statistics.quantiles(values, n=4)
        )
        assert measure.quartiles([7.0]) == (7.0, 7.0, 7.0)


class _Report:
    def __init__(self, cycle, state_id, code):
        self.cycle, self.state_id, self.code = cycle, state_id, code


class TestDigest:
    def test_keys_sort_and_normalise_missing_codes(self):
        reports = [_Report(5, 2, "b"), _Report(5, 1, None), _Report(1, 9, "a")]
        assert measure.report_keys(reports) == [
            (1, 9, "a"), (5, 1, ""), (5, 2, "b"),
        ]  # fmt: skip

    def test_digest_tells_results_apart(self):
        keys = [(1, 9, "a"), (5, 1, "")]
        assert measure.digest(keys) == measure.digest(list(keys))
        assert measure.digest(keys) != measure.digest(keys[:1])
        assert measure.digest(keys) != measure.digest([(1, 9, "a"), (5, 1, "x")])
        # field boundaries are part of the digest
        assert measure.digest([(1, 23, "")]) != measure.digest([(12, 3, "")])


def test_self_time_subtracts_the_layers_below():
    spans = [
        Span("kernel.run_chunk", "b", 0, 100),
        Span("kernel.run_chunk", "b", 0, 120),
        Span("kernel.run_chunk", "b", 0, 110),
        Span("engine.run", "b", 0, 400),
        Span("engine.run", "b", 0, 390),
        Span("protocol.scan_codec", "b", 0, 50),
        Span("server.scan", "b", 0, 1000),
    ]
    medians = measure.median_durations(spans)
    assert medians["kernel.run_chunk"] == 110
    assert measure.self_time(medians, "engine.run", "kernel.run_chunk") == 285
    assert (
        measure.self_time(
            medians, "server.scan", "engine.run", "protocol.scan_codec"
        )
        == 1000 - 395 - 50
    )


def test_span_log_times_calls_under_one_block_id():
    log = measure.SpanLog(block="abc-1")
    assert log.timed("layer.call", lambda: 42, nbytes=8) == 42
    (span,) = log.to_json()
    assert span["name"] == "layer.call" and span["block"] == "abc-1"
    assert span["bytes"] == 8 and span["end_ns"] >= span["start_ns"]


def test_calibrated_rescales_to_nominal_host_speed():
    nominal = measure.CALIBRATION_NOMINAL_S
    assert measure.calibrated(2.0, nominal) == pytest.approx(2.0)
    # a host at half speed: the pass takes twice as long, so does the op
    assert measure.calibrated(4.0, 2 * nominal) == pytest.approx(2.0)
    assert measure.calibration_pass() > 0


class TestSeedDeterminism:
    @pytest.mark.parametrize("workload", workloads.WORKLOADS, ids=lambda w: w.name)
    def test_same_seed_same_inputs_other_seed_other_block(self, workload):
        automaton = workloads.build_ruleset(workload)
        again = workloads.build_ruleset(workload)
        from repro.service import ruleset_fingerprint

        assert ruleset_fingerprint(automaton) == ruleset_fingerprint(again)
        short = dataclasses.replace(workload, block_bytes=2048)
        one = workloads.build_block(short, automaton, seed=7)
        assert one == workloads.build_block(short, again, seed=7)
        assert one != workloads.build_block(short, automaton, seed=8)
        assert len(one) == 2048

    def test_hot_pattern_occurs_in_its_block(self):
        block = bytes(range(256)) * 4
        pattern = workloads.hot_pattern(block)
        assert pattern == "\\x00\\x01"
        from repro.automata import compile_regex_set
        from repro.sim.engine import Engine

        nfa = compile_regex_set({workloads.HOT_CODE: pattern})
        assert len(Engine(nfa).run(block).reports) == 4

    def test_prepare_builds_checked_references(self):
        tiny = dataclasses.replace(
            workloads.BY_NAME["tiny-dense"], block_bytes=4096
        )
        inputs = workloads.prepare(tiny, seed=3)
        assert inputs.block_keys == sorted(inputs.block_keys)
        assert inputs.hot_keys, "the hot pattern must report on its block"
        assert all(key[2] == workloads.HOT_CODE for key in inputs.hot_keys)
        cut = inputs.prefix_keys(inputs.block_keys, 1000)
        assert all(key[0] < 1000 for key in cut)
        assert len(cut) == sum(1 for key in inputs.block_keys if key[0] < 1000)


class TestBenchmarkJson:
    """BENCHMARK.json and the harness must name the same things."""

    spec = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())

    def test_workloads_and_run_seconds_match(self):
        assert [w["name"] for w in self.spec["workloads"]] == [
            w.name for w in workloads.WORKLOADS
        ]
        assert self.spec["run_seconds"] == workloads.RUN_SECONDS
        assert self.spec["paths"] == ["benchmarks/e2e"]
        assert sum(workloads.PHASE_SHARES.values()) == pytest.approx(1.0)

    def test_end_to_end_names_match_what_a_run_emits(self):
        import run

        class Result:
            setup_s = lib_mbps = scan_mbps = [2.0, 9.0, 2.2]
            feed_ms = [1.0, 2.0, 3.0]
            peak_rss_mb = 1.0

        emitted = run.end_to_end_metrics(Result())
        # a phase's value is the median round: one disturbed round is ignored
        assert emitted["scan_mbps"]["value"] == 2.2
        declared = {m["name"]: m for m in self.spec["end_to_end"]}
        assert emitted.keys() == declared.keys()
        for name, entry in declared.items():
            assert emitted[name]["unit"] == entry["unit"]
            assert 0 < entry["bound"] <= 0.25
        assert declared["setup_s"]["bound"] == max(
            m["bound"] for m in self.spec["end_to_end"]
        )

    def test_per_layer_names_are_the_ones_layers_emits(self):
        source = (HERE / "layers.py").read_text()
        for entry in self.spec["per_layer"]:
            assert f'"{entry["name"]}"' in source, entry["name"]
