"""Tests for the streaming, sharded, multi-tenant service layer."""

import gc
import warnings

import numpy as np
import pytest

from repro.api import ScanConfig
from repro.automata import balanced_shards, glushkov_nfa
from repro.automata.glushkov import compile_regex_set
from repro.automata.nfa import Automaton
from repro.core.compiler import compile_automaton
from repro.core.machine import CamaMachine
from repro.errors import ConfigError, SimulationError
from repro.service import (
    Dispatcher,
    MatchingService,
    Session,
    iter_chunks,
    make_shards,
    ruleset_fingerprint,
)
from repro.service.sharding import Shard
from repro.sim.engine import Engine, EngineState, SimulationResult
from repro.sim.reports import ReportBatch
from repro.sim.trace import TraceStats
from repro.workloads import BENCHMARK_NAMES, get_benchmark, multi_stream_inputs

TEST_SCALE = 1.0 / 64.0
STREAM_LENGTH = 600


def report_keys(reports):
    return [(r.cycle, r.state_id, r.code) for r in reports]


@pytest.fixture(scope="module")
def ruleset():
    nfa = compile_regex_set(
        {"r1": "(a|b)e*cd+", "r2": "abc", "r3": "x+y"}, name="svc"
    )
    return nfa


@pytest.fixture(scope="module")
def stream():
    return b"aecdabcxxyaecddabcyx" * 30


def whole_dispatcher(automaton):
    """One shard that is exactly one Engine over ``automaton`` (no
    component dropped), so a chunked Dispatcher.scan matches its run
    in statistics too."""
    shard = Shard(0, automaton, list(range(len(automaton))))
    return Dispatcher(automaton, prebuilt=([shard], [Engine(automaton)]))


class TestChunkedEquivalence:
    """run_chunk over chunks == run over the whole stream, exactly."""

    @pytest.mark.parametrize("chunk_size", [1, 7, 64])
    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_registry_benchmarks(self, name, chunk_size):
        bench = get_benchmark(name, scale=TEST_SCALE)
        data = bench.input_stream(STREAM_LENGTH)
        one_shot = Engine(bench.automaton).run(data)
        dispatcher = whole_dispatcher(bench.automaton)
        chunked = dispatcher.scan(data, chunk_size=chunk_size)
        assert report_keys(chunked.reports) == report_keys(one_shot.reports)
        assert chunked.stats.num_cycles == one_shot.stats.num_cycles
        assert chunked.stats.num_reports == one_shot.stats.num_reports
        assert chunked.stats.enabled_states_sum == one_shot.stats.enabled_states_sum
        assert chunked.stats.active_states_sum == one_shot.stats.active_states_sum

    def test_start_of_data_does_not_refire_at_chunk_boundaries(self):
        automaton = glushkov_nfa("ab", anchored=True)
        one_shot = Engine(automaton).run(b"abab")
        dispatcher = whole_dispatcher(automaton)
        for chunk_size in (1, 2, 3):
            chunked = dispatcher.scan(b"abab", chunk_size=chunk_size)
            assert report_keys(chunked.reports) == report_keys(one_shot.reports)
            assert chunked.num_reports == 1

    def test_report_cycles_are_stream_offsets(self, ruleset):
        engine = Engine(ruleset)
        state = engine.initial_state()
        engine.run_chunk(b"aecdabcxx", state)
        late = engine.run_chunk(b"aecd", state)
        # the 'd' of the second chunk completes r1 at absolute offset 12
        assert (12, "r1") in {(r.cycle, r.code) for r in late.reports}

    def test_state_advances_in_place(self, ruleset):
        engine = Engine(ruleset)
        state = engine.initial_state()
        engine.run_chunk(b"aec", state)
        assert state.position == 3
        assert state.active.size > 0

    def test_snapshot_forks_execution(self, ruleset):
        engine = Engine(ruleset)
        state = engine.initial_state()
        engine.run_chunk(b"aec", state)
        fork = state.copy()
        finished = engine.run_chunk(b"d", state)
        assert finished.num_reports == 1
        # the fork still sees the same continuation independently
        assert engine.run_chunk(b"d", fork).num_reports == 1

    def test_empty_chunk_is_a_no_op(self, ruleset):
        engine = Engine(ruleset)
        state = engine.initial_state()
        result = engine.run_chunk(b"", state)
        assert result.num_reports == 0
        assert state.position == 0
        assert state.at_start

    def test_cama_machine_run_chunk_matches_engine(self, ruleset, stream):
        machine = CamaMachine(compile_automaton(ruleset))
        reference = Engine(ruleset).run(stream)
        state = machine.initial_state()
        reports = []
        for chunk in iter_chunks(stream, 17):
            reports.extend(machine.run_chunk(chunk, state).reports)
        assert report_keys(reports) == report_keys(reference.reports)


class TestRulesetFingerprint:
    def test_fingerprint_ignores_names(self):
        a = glushkov_nfa("ab*c")
        b = Automaton(name="renamed")
        for ste in a.states:
            b.add_state(
                ste.symbol_class,
                start=ste.start,
                reporting=ste.reporting,
                report_code=ste.report_code,
                name=f"other{ste.ste_id}",
            )
        for u, v in a.transitions():
            b.add_transition(u, v)
        assert ruleset_fingerprint(a) == ruleset_fingerprint(b)

    def test_fingerprint_sees_language_changes(self):
        assert ruleset_fingerprint(glushkov_nfa("ab")) != ruleset_fingerprint(
            glushkov_nfa("ac")
        )
        anchored = glushkov_nfa("ab", anchored=True)
        assert ruleset_fingerprint(glushkov_nfa("ab")) != ruleset_fingerprint(
            anchored
        )


class TestSharding:
    def test_balanced_shards_partition_states(self):
        components = [[0, 1], [2, 3, 4], [5], [6, 7]]
        groups = balanced_shards(components, 2)
        assert sorted(s for g in groups for s in g) == list(range(8))
        sizes = sorted(len(g) for g in groups)
        assert sizes == [4, 4]

    def test_balanced_shards_fewer_components_than_shards(self):
        groups = balanced_shards([[0, 1]], 4)
        assert groups == [[0, 1]]

    def test_balanced_shards_rejects_bad_count(self):
        with pytest.raises(ValueError):
            balanced_shards([[0]], 0)

    def test_make_shards_cover_reporting_components(self, ruleset):
        shards = make_shards(ruleset, 3)
        covered = sorted(s for shard in shards for s in shard.global_ids)
        assert covered == list(range(len(ruleset)))
        for shard in shards:
            shard.automaton.validate()

    def test_sharded_scan_equals_monolithic(self, ruleset, stream):
        one_shot = Engine(ruleset).run(stream)
        for num_shards in (1, 2, 3):
            dispatcher = Dispatcher(ruleset, ScanConfig(num_shards=num_shards))
            result = dispatcher.scan(stream, chunk_size=50)
            assert report_keys(result.reports) == report_keys(one_shot.reports)
            assert result.stats.num_reports == one_shot.stats.num_reports
            assert (
                result.stats.enabled_states_sum
                == one_shot.stats.enabled_states_sum
            )

    def test_sharded_scan_with_workers(self, ruleset, stream):
        one_shot = Engine(ruleset).run(stream)
        dispatcher = Dispatcher(ruleset, ScanConfig(num_shards=3, workers=2))
        try:
            # the pool persists across scans; both must match one-shot
            for _ in range(2):
                result = dispatcher.scan(stream, chunk_size=100)
                assert report_keys(result.reports) == report_keys(
                    one_shot.reports
                )
        finally:
            dispatcher.close()

    def test_sharded_registry_benchmark(self):
        bench = get_benchmark("Snort", scale=TEST_SCALE)
        data = bench.input_stream(STREAM_LENGTH)
        one_shot = Engine(bench.automaton).run(data)
        result = Dispatcher(bench.automaton, ScanConfig(num_shards=4)).scan(
            data, chunk_size=64
        )
        assert report_keys(result.reports) == report_keys(one_shot.reports)

    def test_run_chunk_state_mismatch_rejected(self, ruleset):
        dispatcher = Dispatcher(ruleset, ScanConfig(num_shards=2))
        with pytest.raises(SimulationError):
            dispatcher.run_chunk(b"ab", [EngineState()] * 5)

    def test_iter_chunks_rejects_bad_size(self):
        with pytest.raises(ConfigError):
            list(iter_chunks(b"abc", 0))


class TestMerge:
    def test_accumulate_requires_same_automaton(self):
        with pytest.raises(ValueError):
            TraceStats(num_states=2).accumulate(TraceStats(num_states=3))

    def test_merge_shard_reports_orders_like_monolithic(self):
        # a 7-state ruleset served by two shards holding the components
        # {5, 6} and {2}: the dispatcher's merge remaps and interleaves
        nfa = compile_regex_set({"a": "ab", "b": "c", "c": "de", "d": "fg"})
        shards = [
            Shard(0, nfa.subautomaton([5, 6]), [5, 6]),
            Shard(1, nfa.subautomaton([2]), [2]),
        ]
        dispatcher = Dispatcher(
            nfa, prebuilt=(shards, [Engine(s.automaton) for s in shards])
        )

        def shard_result(cycles, states, size):
            batch = ReportBatch(
                np.array(cycles), np.array(states), [None] * size
            )
            return SimulationResult(batch, TraceStats(num_states=size))

        merged = dispatcher._merge_capped(
            [shard_result([1, 3], [0, 1], 2), shard_result([1], [0], 1)],
            max_reports=10,
        ).reports
        assert [(r.cycle, r.state_id) for r in merged] == [
            (1, 2),
            (1, 5),
            (3, 6),
        ]


class TestSessions:
    def test_interleaved_sessions_are_independent(self, ruleset, stream):
        service = MatchingService(ScanConfig(num_shards=2))
        expected = Engine(ruleset).run(stream)
        a = service.open_session(ruleset, "a")
        b = service.open_session(ruleset, "b")
        # feed the same stream to both, chunks interleaved unevenly
        for chunk in iter_chunks(stream, 13):
            a.feed(chunk)
        b.feed_all(stream, chunk_size=37)
        for session in (a, b):
            assert report_keys(session.reports) == report_keys(expected.reports)
        result = service.close_session("a")
        assert result.stats.num_cycles == len(stream)

    def test_session_feed_returns_only_new_reports(self, ruleset):
        service = MatchingService()
        session = service.open_session(ruleset, "s")
        assert session.feed(b"aec") == []
        new = session.feed(b"d")
        assert [(r.cycle, r.code) for r in new] == [(3, "r1")]
        assert session.position == 4

    def test_closed_session_rejects_feeds(self, ruleset):
        service = MatchingService()
        session = service.open_session(ruleset, "s")
        result = service.close_session("s")
        assert result.num_reports == 0
        assert "s" not in service.sessions
        with pytest.raises(SimulationError):
            session.feed(b"a")

    def test_duplicate_session_name_rejected(self, ruleset):
        service = MatchingService()
        service.open_session(ruleset, "dup")
        with pytest.raises(SimulationError):
            service.open_session(ruleset, "dup")

    def test_unknown_session_close_rejected(self):
        with pytest.raises(SimulationError):
            MatchingService().close_session("ghost")

    def test_session_max_reports_caps_recording(self, ruleset):
        service = MatchingService()
        session = service.open_session(ruleset, "cap", max_reports=2)
        session.feed_all(b"aecd" * 10, chunk_size=4)
        assert len(session.reports) == 2
        assert session.stats.num_reports == 10

    def test_session_cap_holds_across_shards(self):
        # both components fire every cycle; the cap must apply to the
        # merged stream, not per shard
        nfa = compile_regex_set({"ra": "a", "rb": "b"}, name="two")
        service = MatchingService(ScanConfig(num_shards=2))
        session = service.open_session(nfa, "cap", max_reports=2)
        session.feed(b"ababab")
        assert len(session.reports) == 2
        assert session.stats.num_reports == 6


class TestSessionRelease:
    """However a service's session closes, it releases its ruleset
    version through the service, exactly once."""

    @staticmethod
    def sessions_open():
        from repro.telemetry.metrics import default_registry

        gauge = default_registry().gauge(
            "repro_service_sessions_open",
            "Streaming sessions currently open across MatchingService "
            "instances",
        )
        return gauge.labels().value

    @pytest.mark.parametrize(
        "how", ["with", "close", "close-then-close_session"]
    )
    def test_direct_close_releases_the_ruleset_version(self, how, tmp_path):
        held = compile_regex_set({"a1": "ab+", "a2": "cd"}, name="held")
        other = compile_regex_set({"o1": "zq+"}, name="other")
        config = ScanConfig(cache_capacity=1, artifact_store=tmp_path)
        with MatchingService(config) as service:
            baseline = self.sessions_open()
            record = service.register_ruleset(held)
            session = service.open_session(record.lineage, "x")
            assert record.sessions == 1
            assert self.sessions_open() == baseline + 1
            if how == "with":
                with session:
                    session.feed(b"abbcd")
            else:
                session.feed(b"abbcd")
                result = session.close()
                assert result.num_reports == 3
                # idempotent: the result again, nothing released twice
                assert session.close().num_reports == 3
            if how == "close-then-close_session":
                # the name no longer names an open session
                with pytest.raises(SimulationError, match="no such session"):
                    service.close_session("x")
            assert session.closed
            assert record.sessions == 0
            assert "x" not in service.sessions
            assert self.sessions_open() == baseline

            # nothing holds v1, so an update retires it at once ...
            v2 = service.update_ruleset(record.lineage, add={"a3": "ef"})
            assert service.version_summary() == {
                "lineages": 1,
                "live": 1,
                "retiring": 0,
            }
            assert service.store.pinned_keys() == set(v2.component_keys)
            # ... and with capacity 1 the next ruleset evicts the lineage
            service.scan(other, b"zqq")
            assert service.lineage_versions(record.lineage) == []
            assert service.version_summary()["lineages"] == 1
            assert service.store.pinned_keys() == set()
            # the name is free again
            with service.open_session(other, "x") as again:
                assert again.feed(b"zq")
            assert self.sessions_open() == baseline

    def test_close_after_service_close_is_a_no_op(self, ruleset):
        baseline = self.sessions_open()
        service = MatchingService()
        session = service.open_session(ruleset, "late")
        session.feed(b"aecd")
        service.close()
        assert self.sessions_open() == baseline
        assert session.close().num_reports == 1
        assert self.sessions_open() == baseline

    def test_standalone_session_is_unaffected(self, ruleset):
        with Dispatcher(ruleset) as dispatcher:
            with Session("solo", dispatcher) as session:
                session.feed(b"aecd")
            assert session.closed
            assert session.close().num_reports == 1


class TestMatchingService:
    def test_scan_marks_cache_state(self, ruleset, stream):
        service = MatchingService(ScanConfig(num_shards=2))
        cold = service.scan(ruleset, stream)
        warm = service.scan(ruleset, stream)
        assert not cold.cached
        assert warm.cached
        assert report_keys(cold.reports) == report_keys(warm.reports)
        assert warm.bytes_scanned == len(stream)
        assert warm.throughput_mbps >= 0.0

    def test_scan_equals_engine_run(self, ruleset, stream):
        service = MatchingService(ScanConfig(num_shards=3, chunk_size=41))
        expected = Engine(ruleset).run(stream)
        result = service.scan(ruleset, stream)
        assert report_keys(result.reports) == report_keys(expected.reports)
        assert result.stats.num_cycles == expected.stats.num_cycles

    def test_scan_many_isolates_streams(self, ruleset):
        service = MatchingService()
        streams = multi_stream_inputs(ruleset, 3, length=200)
        results = service.scan_many(ruleset, streams)
        assert set(results) == set(streams)
        for name, data in streams.items():
            expected = Engine(ruleset).run(data)
            assert report_keys(results[name].reports) == report_keys(
                expected.reports
            )

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(ConfigError):
            MatchingService(ScanConfig(chunk_size=0))


class TestTeardown:
    """close() must be clean on error paths: no leaked pools, no
    ResourceWarnings, no half-open sessions."""

    def test_close_after_failing_chunk_releases_everything(self, ruleset):
        """A chunk that raises mid-stream must not leak the worker pool."""
        service = MatchingService(ScanConfig(num_shards=3, workers=2))
        stream = b"aecdabcxxy" * 20
        service.scan(ruleset, stream)  # builds the multiprocessing pool
        dispatcher = service.dispatcher(ruleset)
        assert dispatcher._pool is not None
        session = service.open_session(
            ruleset, "failing", max_reports=1, on_truncation="error"
        )
        with pytest.raises(SimulationError, match="kept-reports cap"):
            session.feed(stream)  # the failing chunk
        # teardown after the error: pool gone, session closed, quietly
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            service.close()
            gc.collect()
        assert dispatcher._pool is None
        assert session.closed
        assert service.sessions == {}

    def test_close_is_idempotent(self, ruleset):
        service = MatchingService(ScanConfig(num_shards=2, workers=2))
        service.scan(ruleset, b"aecd" * 50)
        service.close()
        service.close()

    def test_use_after_close_raises_instead_of_recompiling(self, ruleset):
        service = MatchingService()
        service.scan(ruleset, b"aecd")
        service.close()
        with pytest.raises(SimulationError, match="closed"):
            service.scan(ruleset, b"aecd")
        with pytest.raises(SimulationError, match="closed"):
            service.open_session(ruleset, "late")

    def test_service_context_manager(self, ruleset):
        with MatchingService(ScanConfig(num_shards=2)) as service:
            result = service.scan(ruleset, b"aecdabc")
            assert result.num_reports > 0
        assert service.closed

    def test_dispatcher_context_manager_closes_pool(self, ruleset):
        with Dispatcher(ruleset, ScanConfig(num_shards=3, workers=2)) as dispatcher:
            dispatcher.scan(b"aecdabcxxy" * 10, chunk_size=16)
            assert dispatcher._pool is not None
        assert dispatcher._pool is None
        dispatcher.close()  # idempotent

    def test_evicted_dispatcher_with_pool_retires_until_service_close(self):
        # terminating an evicted dispatcher's pool immediately could kill
        # another thread's in-flight scan; it must retire instead and be
        # released by service.close()
        rules_a = compile_regex_set({"a1": "ab", "a2": "cd"}, name="a")
        rules_b = compile_regex_set({"b1": "ef", "b2": "gh"}, name="b")
        service = MatchingService(
            ScanConfig(cache_capacity=1, num_shards=2, workers=2)
        )
        service.scan(rules_a, b"abcd" * 30)
        first = service.dispatcher(rules_a)
        assert first._pool is not None
        service.scan(rules_b, b"efgh" * 30)  # evicts rules_a's dispatcher
        assert first in service._retired
        assert first._pool is not None  # still usable by in-flight scans
        service.close()
        assert first._pool is None
        assert service._retired == []

    def test_table_bound_holds_under_concurrent_scans_and_sessions(
        self, tmp_path
    ):
        """More threads than cores hammer a capacity-2 table with six
        rulesets by automaton, by handle and through sessions: every
        result stays right, the table ends within its bound and the store
        pins exactly the live records' components."""
        import sys
        import threading

        from repro.errors import UnknownRulesetError

        rulesets = [
            compile_regex_set({"p": f"{c}+z"}, name=f"r{c}") for c in "abcdef"
        ]
        data = b"aazbzcczdzeezffz" * 8
        expected = [
            report_keys(Engine(nfa).run(data).reports) for nfa in rulesets
        ]
        service = MatchingService(
            ScanConfig(cache_capacity=2, artifact_store=tmp_path)
        )
        errors = []

        def worker(seed: int) -> None:
            try:
                for step in range(40):
                    index = (seed + step) % len(rulesets)
                    nfa = rulesets[index]
                    got = service.scan(nfa, data).reports
                    assert report_keys(got) == expected[index]
                    name = f"t{seed}-{step}"
                    session = service.open_session(nfa, name)
                    fed = session.feed(data)
                    service.close_session(name)
                    assert report_keys(fed) == expected[index]
                    try:
                        handle = service.register_ruleset(nfa).lineage
                        got = service.scan(handle, data).reports
                    except UnknownRulesetError:
                        continue  # evicted by a sibling between the calls
                    assert report_keys(got) == expected[index]
            except Exception as exc:  # noqa: BLE001 — for the main thread
                errors.append((seed, exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=worker, args=(seed,))
                for seed in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors
        summary = service.version_summary()
        assert summary["lineages"] <= 2 and summary["retiring"] == 0
        records = {
            record
            for versions in service._lineages.values()
            for record in versions
        }
        assert set(service._version_by_fp.values()) <= records
        store = service.store
        assert store.pinned_keys() == {
            key for record in records for key in record.component_keys
        }
        service.close()
        assert store.pinned_keys() == set()

    def test_evicted_dispatcher_without_pool_closes_immediately(self):
        rules_a = compile_regex_set({"a1": "ab"}, name="a")
        rules_b = compile_regex_set({"b1": "ef"}, name="b")
        service = MatchingService(ScanConfig(cache_capacity=1))
        service.scan(rules_a, b"abab")
        service.scan(rules_b, b"efef")  # evicts the (serial) dispatcher
        assert service._retired == []
        service.close()


class TestStridedMaxReports:
    def test_caps_recording_not_counting(self):
        from repro.automata import pad_input, stride2
        from repro.sim.engine import StridedEngine

        strided = stride2(glushkov_nfa("ab"))
        engine = StridedEngine(strided)
        data = pad_input(b"ab" * 50)
        full = engine.run(data)
        capped = engine.run(data, max_reports=5)
        assert len(capped.reports) == 5
        assert capped.stats.num_reports == full.stats.num_reports == 50
        assert capped.reports == full.reports[:5]
