"""Differential property tests: every engine vs the naive oracle.

``oracle.py`` holds a set-of-states reference simulator with no CSR, no
bit-packing, no striding and no sharding.  These tests generate
randomized regexes, randomized structural automata and profile-matched
workload automata, run random inputs through every production execution
path — ``Engine`` on both backends, chunked resumable execution, the
sharded ``Dispatcher``, the ``MatchingService`` facade and the 2-stride
``StridedEngine`` on both strategies — and assert report-for-report
equality against the oracle.  New kernels join the suite by appearing
in ``ENGINE_FACTORIES`` below.
"""

import random

import pytest

from oracle import NfaOracle, oracle_run
from repro.api import ScanConfig
from repro.automata.glushkov import compile_regex_set
from repro.automata.striding import pad_input, stride2
from repro.service import Dispatcher, MatchingService
from repro.sim.engine import Engine, StridedEngine
from repro.workloads import BENCHMARK_NAMES, get_benchmark
from test_backends import random_automaton, random_chunks, random_input

TEST_SCALE = 1.0 / 64.0

#: every non-strided execution path under differential test, by name
#: ("native" degrades to the pure-numpy kernel on compiler-less hosts,
#: so it is always safe to include)
ENGINE_FACTORIES = {
    "sparse": lambda nfa: Engine(nfa, backend="sparse"),
    "bitparallel": lambda nfa: Engine(nfa, backend="bitparallel"),
    "native": lambda nfa: Engine(nfa, backend="native"),
    "auto": lambda nfa: Engine(nfa, backend="auto"),
}


def full_keys(reports):
    return [(r.cycle, r.state_id, r.code) for r in reports]


def position_keys(reports):
    return [(r.cycle, r.state_id) for r in reports]


# -- randomized regex workloads -------------------------------------------

ALPHABET = "abcd"


def random_regex(rng: random.Random, depth: int = 0) -> str:
    """A random pattern in the repo's regex subset, kept small enough
    that its 2-strided automaton stays tractable."""
    if depth >= 3 or rng.random() < 0.4:
        roll = rng.random()
        if roll < 0.6:
            return rng.choice(ALPHABET)
        if roll < 0.75:
            members = "".join(
                sorted(rng.sample(ALPHABET, rng.randint(1, 3)))
            )
            return f"[{members}]"
        if roll < 0.85:
            return f"[^{rng.choice(ALPHABET)}]"
        return "."
    roll = rng.random()
    if roll < 0.45:
        return "".join(
            random_regex(rng, depth + 1) for _ in range(rng.randint(2, 3))
        )
    if roll < 0.65:
        return (
            f"({random_regex(rng, depth + 1)}|{random_regex(rng, depth + 1)})"
        )
    inner = random_regex(rng, depth + 1)
    quantifier = rng.choice(["*", "+", "?", "{2}", "{1,3}"])
    return f"({inner}){quantifier}"


def random_ruleset(rng: random.Random):
    rules = {
        f"r{i}": random_regex(rng) for i in range(rng.randint(1, 4))
    }
    return rules, compile_regex_set(rules, name="oracle-prop")


def regex_input(rng: random.Random, length: int) -> bytes:
    # biased to the pattern alphabet so matches actually happen
    pool = (ALPHABET * 3) + "xyz"
    return bytes(ord(rng.choice(pool)) for _ in range(length))


class TestRandomRegexesAgainstOracle:
    """Randomized regex rulesets x random inputs, every execution path."""

    @pytest.mark.parametrize("seed", range(25))
    def test_engines_match_oracle(self, seed):
        rng = random.Random(seed)
        _, nfa = random_ruleset(rng)
        data = regex_input(rng, rng.randint(0, 250))
        expected = oracle_run(nfa, data)
        for name, factory in ENGINE_FACTORIES.items():
            result = factory(nfa).run(data)
            assert full_keys(result.reports) == full_keys(expected.reports), name
            assert result.stats.num_reports == expected.num_reports, name
            assert result.stats.num_cycles == expected.num_cycles, name
            assert (
                result.stats.enabled_states_sum == expected.enabled_states_sum
            ), name
            assert (
                result.stats.active_states_sum == expected.active_states_sum
            ), name

    @pytest.mark.parametrize("seed", range(12))
    def test_chunked_execution_matches_oracle(self, seed):
        rng = random.Random(100 + seed)
        _, nfa = random_ruleset(rng)
        data = regex_input(rng, rng.randint(1, 250))
        expected = oracle_run(nfa, data)
        for backend in ("sparse", "bitparallel"):
            engine = Engine(nfa, backend=backend)
            state = engine.initial_state()
            reports = []
            for chunk in random_chunks(rng, data):
                reports.extend(engine.run_chunk(chunk, state).reports)
            assert full_keys(reports) == full_keys(expected.reports), backend

    @pytest.mark.parametrize("seed", range(10))
    def test_sharded_dispatch_matches_oracle(self, seed):
        rng = random.Random(200 + seed)
        _, nfa = random_ruleset(rng)
        data = regex_input(rng, rng.randint(1, 250))
        expected = oracle_run(nfa, data)
        dispatcher = Dispatcher(nfa, ScanConfig(num_shards=rng.randint(1, 3)))
        result = dispatcher.scan(data, chunk_size=rng.randint(1, 64))
        assert full_keys(result.reports) == full_keys(expected.reports)
        assert result.stats.num_reports == expected.num_reports

    @pytest.mark.parametrize("seed", range(6))
    def test_service_scan_matches_oracle(self, seed):
        rng = random.Random(300 + seed)
        _, nfa = random_ruleset(rng)
        data = regex_input(rng, rng.randint(1, 250))
        expected = oracle_run(nfa, data)
        with MatchingService(ScanConfig(num_shards=2, chunk_size=37)) as service:
            result = service.scan(nfa, data)
        assert full_keys(result.reports) == full_keys(expected.reports)

    @pytest.mark.parametrize("seed", range(12))
    def test_strided_engines_match_oracle(self, seed):
        """stride2 x {sparse, bitparallel} vs the (unstrided) oracle.

        Strided reports carry the original automaton's state id but no
        code, and the input is padded to even length — so compare
        (cycle, state) pairs below the unpadded length.
        """
        rng = random.Random(400 + seed)
        _, nfa = random_ruleset(rng)
        data = regex_input(rng, rng.randint(1, 120))
        expected = [
            key
            for key in position_keys(oracle_run(nfa, data).reports)
        ]
        strided = stride2(nfa)
        padded = pad_input(data)
        for strategy in ("sparse", "bitparallel"):
            result = StridedEngine(strided, backend=strategy).run(padded)
            got = [
                (cycle, state)
                for cycle, state in position_keys(result.reports)
                if cycle < len(data)
            ]
            assert got == expected, strategy


class TestRandomStructuresAgainstOracle:
    """Random structural automata (not regex-shaped) vs the oracle."""

    @pytest.mark.parametrize("seed", range(15))
    def test_engines_match_oracle(self, seed):
        rng = random.Random(5000 + seed)
        nfa = random_automaton(rng, rng.randint(1, 70))
        data = random_input(rng, rng.randint(0, 250))
        expected = oracle_run(nfa, data)
        for name, factory in ENGINE_FACTORIES.items():
            result = factory(nfa).run(data)
            assert full_keys(result.reports) == full_keys(expected.reports), name
            assert (
                result.stats.enabled_states_sum == expected.enabled_states_sum
            ), name
            assert (
                result.stats.active_states_sum == expected.active_states_sum
            ), name

    @pytest.mark.parametrize("seed", range(8))
    def test_oracle_is_resumable_by_construction(self, seed):
        """Slicing the input and re-running equals the engines' chunked
        path — i.e. the oracle really is the chunk-free ground truth."""
        rng = random.Random(6000 + seed)
        nfa = random_automaton(rng, rng.randint(2, 50))
        data = random_input(rng, 200)
        expected = oracle_run(nfa, data)
        engine = Engine(nfa, backend="sparse")
        state = engine.initial_state()
        reports = []
        for chunk in random_chunks(rng, data):
            reports.extend(engine.run_chunk(chunk, state).reports)
        assert full_keys(reports) == full_keys(expected.reports)


class TestWorkloadsAgainstOracle:
    """Profile-matched workload-generator automata vs the oracle."""

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_benchmark_matches_oracle(self, name):
        bench = get_benchmark(name, scale=TEST_SCALE)
        data = bench.input_stream(250)
        expected = oracle_run(bench.automaton, data)
        for backend in ("sparse", "bitparallel"):
            result = Engine(bench.automaton, backend=backend).run(data)
            assert full_keys(result.reports) == full_keys(
                expected.reports
            ), backend
            assert result.stats.num_reports == expected.num_reports

    @pytest.mark.parametrize("name", ["Snort", "Ranges1", "BlockRings"])
    def test_benchmark_sharded_matches_oracle(self, name):
        bench = get_benchmark(name, scale=TEST_SCALE)
        data = bench.input_stream(250)
        expected = oracle_run(bench.automaton, data)
        result = Dispatcher(bench.automaton, ScanConfig(num_shards=4)).scan(
            data, chunk_size=61
        )
        assert full_keys(result.reports) == full_keys(expected.reports)


class TestOracleSelfChecks:
    """The oracle itself behaves like the documented semantics."""

    def test_start_of_data_fires_on_first_symbol_only(self):
        nfa = compile_regex_set({"r": "ab"}, name="sod", anchored=True)
        result = oracle_run(nfa, b"abab")
        assert full_keys(result.reports) == [(1, 1, "r")]

    def test_reports_are_cycle_then_state_ordered(self):
        nfa = compile_regex_set({"ra": "a", "rb": "[ab]"}, name="two")
        result = oracle_run(nfa, b"aa")
        cycles_states = position_keys(result.reports)
        assert cycles_states == sorted(cycles_states)

    def test_empty_input_is_empty_result(self):
        nfa = compile_regex_set({"r": "a"}, name="empty")
        result = oracle_run(nfa, b"")
        assert result.reports == []
        assert result.num_cycles == 0

    def test_oracle_reuse_is_stateless(self):
        oracle = NfaOracle(compile_regex_set({"r": "ab"}, name="reuse"))
        first = oracle.run(b"abab")
        second = oracle.run(b"abab")
        assert full_keys(first.reports) == full_keys(second.reports)
