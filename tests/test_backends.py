"""Cross-backend equivalence and backend-selection tests.

The execution backends must be observationally identical: same reports
(cycle, state, code, order), same activity statistics, same final
resumable state — one-shot, chunked at arbitrary boundaries, and
sharded through the dispatcher.  These tests drive that equivalence
with randomized automata, randomized inputs and randomized chunk
splits, plus every registry benchmark.
"""

import random
import warnings

import numpy as np
import pytest

from repro.automata.glushkov import compile_regex_set, glushkov_nfa
from repro.automata.nfa import Automaton, StartKind
from repro.automata.striding import pad_input, stride2
from repro.automata.symbols import SymbolClass
from repro.api.config import ScanConfig
from repro.errors import SimulationError
from repro.service import Dispatcher, MatchingService
from repro.sim.backends import (
    BACKEND_NAMES,
    MAX_DENSE_SUCCESSOR_STATES,
    NativeKernel,
    ReportTruncationWarning,
    choose_backend_name,
    get_backend,
)
from repro.sim.backends import auto, bitwords
from repro.sim.backends.native import native_available, native_status
from repro.sim.engine import Engine, StridedEngine
from repro.sim.trace import PartitionAssignment
from repro.telemetry.metrics import default_registry
from repro.workloads import BENCHMARK_NAMES, get_benchmark
from repro.workloads.generators import dense_activity_automaton

TEST_SCALE = 1.0 / 64.0

needs_native = pytest.mark.skipif(
    not native_available(),
    reason=f"compiled kernel not loadable here ({native_status()})",
)
#: the kernel that serves on this host: the C loop where it loads
SERVING_KERNEL = "native" if native_available() else "sparse"


def report_keys(reports):
    return [(r.cycle, r.state_id, r.code) for r in reports]


def random_automaton(rng: random.Random, num_states: int) -> Automaton:
    """A random valid homogeneous NFA (reachable, >=1 start, >=1 report)."""
    nfa = Automaton(name=f"rand{num_states}")
    specs = []
    for i in range(num_states):
        roll = rng.random()
        if roll < 0.25:
            cls = SymbolClass.from_symbols([rng.randrange(4)])
        elif roll < 0.5:
            lo = rng.randrange(3)
            cls = SymbolClass.from_ranges((lo, rng.randint(lo, 5)))
        elif roll < 0.75:
            cls = SymbolClass.from_symbols(
                rng.sample(range(8), rng.randint(1, 4))
            )
        else:
            cls = SymbolClass.from_symbols([rng.randrange(6)]).negate()
        if i == 0:
            start = StartKind.ALL_INPUT
        else:
            start = rng.choice(
                [StartKind.NONE, StartKind.NONE, StartKind.NONE,
                 StartKind.ALL_INPUT, StartKind.START_OF_DATA]
            )
        specs.append([cls, start, rng.random() < 0.3])
    if not any(reporting for _, _, reporting in specs):
        specs[-1][2] = True
    for cls, start, reporting in specs:
        nfa.add_state(cls, start=start, reporting=reporting)
    for v in range(1, num_states):
        # spanning edge keeps every state reachable from state 0
        nfa.add_transition(rng.randrange(v), v)
    for _ in range(num_states * 2):
        nfa.add_transition(
            rng.randrange(num_states), rng.randrange(num_states)
        )
    nfa.validate()
    return nfa


def random_input(rng: random.Random, length: int) -> bytes:
    # a tiny alphabet keeps the automaton's classes hot (lots of matches)
    return bytes(rng.randrange(8) for _ in range(length))


def random_chunks(rng: random.Random, data: bytes) -> list[bytes]:
    cuts = sorted(rng.sample(range(len(data) + 1), rng.randint(0, 5)))
    edges = [0] + cuts + [len(data)]
    return [data[a:b] for a, b in zip(edges, edges[1:])]


class TestRandomizedEquivalence:
    """sparse == native on generated automata x inputs x splits."""

    @pytest.mark.parametrize("seed", range(20))
    def test_one_shot_and_chunked(self, seed):
        rng = random.Random(seed)
        nfa = random_automaton(rng, rng.randint(1, 90))
        data = random_input(rng, rng.randint(0, 300))
        sparse = Engine(nfa, backend="sparse")
        nat = Engine(nfa, backend="native")

        one_sparse = sparse.run(data)
        one_nat = nat.run(data)
        assert report_keys(one_nat.reports) == report_keys(one_sparse.reports)
        assert one_nat.stats.num_reports == one_sparse.stats.num_reports
        assert (
            one_nat.stats.enabled_states_sum
            == one_sparse.stats.enabled_states_sum
        )
        assert (
            one_nat.stats.active_states_sum
            == one_sparse.stats.active_states_sum
        )

        # random chunk splits: reports and final state must agree too
        state_sparse = sparse.initial_state()
        state_nat = nat.initial_state()
        chunked_sparse, chunked_nat = [], []
        for chunk in random_chunks(rng, data):
            chunked_sparse.extend(
                sparse.run_chunk(chunk, state_sparse).reports
            )
            chunked_nat.extend(nat.run_chunk(chunk, state_nat).reports)
        assert report_keys(chunked_sparse) == report_keys(one_sparse.reports)
        assert report_keys(chunked_nat) == report_keys(one_sparse.reports)
        assert state_sparse.position == state_nat.position == len(data)
        assert np.array_equal(
            np.sort(state_sparse.active), np.sort(state_nat.active)
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_states_migrate_between_backends(self, seed):
        """A stream may switch backends mid-flight at any chunk boundary."""
        rng = random.Random(1000 + seed)
        nfa = random_automaton(rng, rng.randint(2, 60))
        data = random_input(rng, 200)
        engines = [
            Engine(nfa, backend="sparse"),
            Engine(nfa, backend="native"),
        ]
        reference = engines[0].run(data)
        state = engines[0].initial_state()
        reports = []
        for i, chunk in enumerate(random_chunks(rng, data)):
            engine = engines[(seed + i) % 2]
            reports.extend(engine.run_chunk(chunk, state).reports)
        assert report_keys(reports) == report_keys(reference.reports)

    @pytest.mark.parametrize("seed", range(6))
    def test_per_cycle_and_placement_stats_agree(self, seed):
        rng = random.Random(2000 + seed)
        nfa = random_automaton(rng, rng.randint(4, 50))
        data = random_input(rng, 120)
        parts = np.array(
            [rng.randrange(3) for _ in range(len(nfa))], dtype=np.int64
        )
        placement = PartitionAssignment(partition_of=parts, num_partitions=3)
        rs = Engine(nfa, backend="sparse").run(
            data, placement=placement, keep_per_cycle=True
        )
        rb = Engine(nfa, backend="native").run(
            data, placement=placement, keep_per_cycle=True
        )
        assert rb.stats.enabled_per_cycle == rs.stats.enabled_per_cycle
        assert rb.stats.active_per_cycle == rs.stats.active_per_cycle
        for field in (
            "partition_enabled_cycles",
            "partition_active_cycles",
            "partition_enabled_states_sum",
            "partition_enabled_weight_sum",
            "partition_active_states_sum",
        ):
            assert np.array_equal(
                getattr(rb.stats, field), getattr(rs.stats, field)
            ), field
        assert (
            rb.stats.global_crossing_states_sum
            == rs.stats.global_crossing_states_sum
        )
        assert (
            rb.stats.global_source_partitions_sum
            == rs.stats.global_source_partitions_sum
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_max_reports_cap_identical(self, seed):
        rng = random.Random(3000 + seed)
        nfa = random_automaton(rng, 30)
        data = random_input(rng, 200)
        for cap in (0, 1, 3, 10):
            rs = Engine(nfa, backend="sparse").run(data, max_reports=cap)
            rb = Engine(nfa, backend="native").run(data, max_reports=cap)
            assert report_keys(rb.reports) == report_keys(rs.reports)
            assert rb.stats.num_reports == rs.stats.num_reports
            assert rb.truncated == rs.truncated


class TestRegistryBenchmarkEquivalence:
    """Byte-identical reports on every registry benchmark."""

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_one_shot_chunked_and_sharded(self, name):
        bench = get_benchmark(name, scale=TEST_SCALE)
        data = bench.input_stream(400)
        sparse = Engine(bench.automaton, backend="sparse").run(data)
        nat = Engine(bench.automaton, backend="native").run(data)
        assert report_keys(nat.reports) == report_keys(sparse.reports)
        assert nat.stats.num_reports == sparse.stats.num_reports
        assert nat.stats.enabled_states_sum == sparse.stats.enabled_states_sum
        assert nat.stats.active_states_sum == sparse.stats.active_states_sum

        # chunked through the native backend
        engine = Engine(bench.automaton, backend="native")
        state = engine.initial_state()
        chunked = []
        for start in range(0, len(data), 61):
            chunked.extend(
                engine.run_chunk(data[start : start + 61], state).reports
            )
        assert report_keys(chunked) == report_keys(sparse.reports)

        # sharded via the dispatcher, pinned to the native backend
        dispatcher = Dispatcher(
            bench.automaton, ScanConfig(num_shards=4, backend="native")
        )
        sharded = dispatcher.scan(data, chunk_size=97)
        assert report_keys(sharded.reports) == report_keys(sparse.reports)

    def test_strided_rejects_custom_backend_instances(self):
        from repro.sim.backends import SparseBackend

        strided = stride2(glushkov_nfa("ab"))
        with pytest.raises(SimulationError, match="built-in execution"):
            StridedEngine(strided, backend=SparseBackend())

    def test_strided_backends_agree(self):
        nfa = compile_regex_set({"r1": "(a|b)e*cd+", "r2": "abc"}, name="s2")
        strided = stride2(nfa)
        data = pad_input(b"aecdabcaeccdd" * 9)
        rs = StridedEngine(strided, backend="sparse").run(data)
        rb = StridedEngine(strided, backend="native").run(data)
        assert report_keys(rb.reports) == report_keys(rs.reports)
        assert rb.stats.enabled_states_sum == rs.stats.enabled_states_sum
        assert rb.stats.active_states_sum == rs.stats.active_states_sum
        assert rb.stats.num_reports == rs.stats.num_reports


class TestAutoPolicy:
    """``auto`` resolves to a concrete kernel: the compiled loop where
    it loads and the automaton fits its successor matrix, the sparse
    kernel otherwise."""

    @needs_native
    def test_low_activity_automata_take_the_compiled_loop(self):
        # the C loop's work follows the active set, so narrow classes
        # and few-percent activity take it too
        nfa = glushkov_nfa("abc")
        assert choose_backend_name(nfa) == "native"
        assert Engine(nfa, backend="auto").backend_name == "native"
        bench = get_benchmark("Snort", scale=TEST_SCALE)
        assert choose_backend_name(bench.automaton) == "native"

    @needs_native
    def test_dense_automata_take_the_compiled_loop(self):
        small = dense_activity_automaton(48, chain_length=16, match_width=230)
        assert choose_backend_name(small) == "native"
        assert Engine(small, backend="auto").backend_name == "native"
        assert choose_backend_name(dense_activity_automaton(512)) == "native"

    @needs_native
    def test_served_default_resolves_through_the_policy(self):
        dense = dense_activity_automaton(48, chain_length=16, match_width=230)
        assert ScanConfig().backend == "auto"
        result = MatchingService(ScanConfig()).scan(dense, b"abcdabcd")
        assert result.backends == ["native"]

    @needs_native
    def test_auto_choice_is_counted_under_the_kernel_name(self):
        def native_choices():
            family = default_registry().collect()[
                "repro_backend_auto_choices_total"
            ]
            return family["samples"].get(("native",), 0.0)

        before = native_choices()
        choose_backend_name(
            dense_activity_automaton(48, chain_length=16, match_width=230)
        )
        assert native_choices() == before + 1

    def test_automata_take_sparse_without_the_loop(self, no_native):
        small = dense_activity_automaton(48, chain_length=16, match_width=230)
        assert choose_backend_name(small) == "sparse"
        assert Engine(small, backend="auto").backend_name == "sparse"
        assert choose_backend_name(glushkov_nfa("abc")) == "sparse"

    def test_strided_auto_runs_sparse(self):
        # no strided C step: every accepted name runs the one stepper
        narrow = stride2(glushkov_nfa("abcd"))
        dense = stride2(
            dense_activity_automaton(48, chain_length=16, match_width=230)
        )
        for strided in (narrow, dense):
            for name in ("auto", "native", "sparse"):
                engine = StridedEngine(strided, backend=name)
                assert engine.backend_name == "sparse"
        with pytest.raises(SimulationError, match="unknown execution"):
            StridedEngine(narrow, backend="gpu")

    def test_huge_automata_stay_sparse(self, monkeypatch):
        nfa = glushkov_nfa("abcd")
        monkeypatch.setattr(auto, "MAX_DENSE_SUCCESSOR_STATES", len(nfa) - 1)
        assert choose_backend_name(nfa) == "sparse"
        assert Engine(nfa, backend="auto").backend_name == "sparse"

    def test_explicit_native_fails_fast_above_limit(self):
        # the cap is checked before the C loop binds: on every host
        class FakeHuge:
            def __len__(self):
                return MAX_DENSE_SUCCESSOR_STATES + 1

            def validate(self):
                pass

        with pytest.raises(SimulationError, match="native kernel's limit"):
            NativeKernel(FakeHuge())

    def test_unknown_backend_rejected(self):
        with pytest.raises(SimulationError, match="unknown execution backend"):
            get_backend("gpu")
        with pytest.raises(SimulationError):
            Engine(glushkov_nfa("a"), backend="nope")

    def test_backend_names_registry(self):
        assert set(BACKEND_NAMES) == {"sparse", "native", "auto"}

    def test_auto_dispatcher_resolves_per_shard(self, monkeypatch):
        # one dense 48-state chain + one narrow literal = two
        # components; with the cap between their sizes they end up on
        # different kernels under one auto dispatcher
        mixed = dense_activity_automaton(48, chain_length=48, match_width=230)
        mixed.merge(compile_regex_set(["abc"]))
        monkeypatch.setattr(auto, "MAX_DENSE_SUCCESSOR_STATES", 16)
        dispatcher = Dispatcher(mixed, ScanConfig(num_shards=2, backend="auto"))
        assert sorted(dispatcher.backend_names) == sorted(
            [SERVING_KERNEL, "sparse"]
        )

    def test_service_reports_backends(self):
        service = MatchingService(ScanConfig(backend="native"))
        nfa = compile_regex_set(["ab", "cd"])
        result = service.scan(nfa, b"abcdabcd")
        assert result.backends == [SERVING_KERNEL]
        sparse_result = MatchingService(ScanConfig(backend="sparse")).scan(
            nfa, b"abcd"
        )
        assert report_keys(sparse_result.reports) == report_keys(result.reports[:2])


class TestCsrCache:
    def test_engine_constructors_reuse_cached_csr(self):
        # the CSR is memoized on the automaton: every kernel compiled
        # from one object shares it
        nfa = glushkov_nfa("(a|b)c*d")
        first = Engine(nfa, backend="sparse")
        second = Engine(nfa, backend="native")
        assert first.kernel._succ_offsets is second.kernel._succ_offsets
        assert first.kernel._succ_targets is second.kernel._succ_targets


class TestTruncationControls:
    def test_implicit_cap_warns(self):
        engine = Engine(glushkov_nfa("a"), max_kept_reports=3)
        with pytest.warns(ReportTruncationWarning):
            result = engine.run(b"aaaaaa")
        assert len(result.reports) == 3
        assert result.stats.num_reports == 6
        assert result.truncated

    def test_implicit_cap_can_error(self):
        engine = Engine(
            glushkov_nfa("a"), max_kept_reports=2, on_truncation="error"
        )
        with pytest.raises(SimulationError, match="kept-reports cap"):
            engine.run(b"aaaa")

    def test_explicit_cap_is_silent(self):
        engine = Engine(glushkov_nfa("a"), max_kept_reports=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = engine.run(b"aaaaaa", max_reports=2)
        assert len(result.reports) == 2
        assert result.truncated

    def test_no_warning_below_cap(self):
        engine = Engine(glushkov_nfa("a"), max_kept_reports=10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = engine.run(b"aaa")
        assert not result.truncated

    def test_bad_policy_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            Engine(glushkov_nfa("a"), on_truncation="explode")

    def test_session_truncation_flag(self):
        service = MatchingService()
        session = service.open_session(
            glushkov_nfa("a"), "t", max_reports=2, on_truncation="warn"
        )
        with pytest.warns(ReportTruncationWarning):
            session.feed(b"aaaa")
        assert session.truncated
        assert service.close_session("t").truncated


class TestBitwords:
    def test_pack_unpack_roundtrip(self):
        rng = random.Random(7)
        for n in (1, 5, 63, 64, 65, 130, 200):
            ids = np.array(
                sorted(rng.sample(range(n), rng.randint(0, n))), dtype=np.int64
            )
            words = bitwords.pack_indices(ids, n)
            assert np.array_equal(bitwords.unpack_indices(words), ids)
            assert bitwords.popcount(words) == len(ids)

    def test_popcount_rows_table_fallback(self, monkeypatch):
        """The _POPCOUNT8 path (numpy < 2, no np.bitwise_count) must
        equal both ground truth and whatever this numpy ships."""
        rng = np.random.default_rng(11)
        matrices = [
            rng.integers(
                0,
                np.iinfo(np.uint64).max,
                size=shape,
                dtype=np.uint64,
                endpoint=True,
            )
            for shape in ((1, 1), (5, 3), (64, 7), (3, 16))
        ]
        matrices.append(np.zeros((4, 2), dtype=np.uint64))
        matrices.append(np.empty((0, 3), dtype=np.uint64))
        current = [bitwords.popcount_rows(m) for m in matrices]
        # popcount_rows probes np.bitwise_count at call time, so
        # removing the attribute exercises the table fallback
        monkeypatch.delattr(np, "bitwise_count", raising=False)
        for matrix, reference in zip(matrices, current):
            truth = np.array(
                [
                    sum(bin(int(word)).count("1") for word in row)
                    for row in matrix
                ],
                dtype=np.int64,
            )
            fallback = bitwords.popcount_rows(matrix)
            assert np.array_equal(fallback, truth)
            assert np.array_equal(fallback, reference)
            assert fallback.dtype == np.int64
