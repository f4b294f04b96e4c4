"""The native compiled kernel: differential, degradation, packaging.

The C step loop in ``cama_kernel.c`` must be byte-identical to the
pure-numpy bit-parallel kernel on every path — full runs, chunked
resumes, report caps (including the pause/resume dance when a chunk
fires more reports than the C-side buffer holds), batched stepping and
artifact round trips.  It must also *degrade* identically: with
``REPRO_NATIVE=0`` (or no compiler) ``backend="native"`` silently hands
out the numpy kernel, so requesting it is always safe.
"""

import ctypes
import pickle
import random
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from oracle import oracle_run
from repro.api.config import CompileConfig, ScanConfig
from repro.automata.glushkov import compile_regex_set
from repro.automata.nfa import Automaton, StartKind
from repro.automata.symbols import SymbolClass
from repro.compile import CompiledArtifact, compile_ruleset
from repro.sim.backends import (
    BACKEND_NAMES,
    choose_backend_name,
    get_backend,
)
from repro.sim.backends.base import BatchEngineState
from repro.sim.backends.bitparallel import BitParallelKernel
from repro.service import MatchingService
from repro.sim.backends import native as native_module
from repro.sim.backends.native import (
    NativeBackend,
    NativeKernel,
    native_available,
    native_status,
)
from repro.sim.engine import Engine
from test_backends import (
    dense_activity_automaton,
    needs_native,
    random_automaton,
    random_chunks,
    random_input,
)

RULES = {
    "r0": "abc[a-f]{2}x",
    "r1": "foo(bar|baz)+",
    "r2": "[0-9]{3}z",
    "r3": "q.*nd",
    "r4": "(a|b)c*d",
}

def _keys(reports):
    return [(r.cycle, r.state_id, r.code) for r in reports]


def _active(state):
    return sorted(int(s) for s in state.active)


# -- registry / config surface ---------------------------------------------


def test_native_is_a_first_class_backend_name():
    assert "native" in BACKEND_NAMES
    assert isinstance(get_backend("native"), NativeBackend)
    # config validation accepts it everywhere a backend is selectable
    assert ScanConfig(backend="native").backend == "native"
    assert CompileConfig(backend="native").backend == "native"


def test_native_status_is_one_line():
    line = native_status()
    assert "\n" not in line
    assert "native kernel" in line


@needs_native
def test_native_engine_reports_native_kernel():
    nfa = compile_regex_set(RULES, name="native-name")
    engine = Engine(nfa, backend="native")
    assert engine.backend_name == "native"
    assert isinstance(engine._kernel, NativeKernel)


# -- differential correctness ----------------------------------------------


@pytest.mark.parametrize("seed", range(15))
def test_native_engine_matches_oracle(seed):
    """Random structural automata x random inputs vs the naive oracle.

    Runs in both worlds: with the C loop when loadable, through the
    degradation path otherwise — either way the answer must be exact.
    """
    rng = random.Random(9000 + seed)
    nfa = random_automaton(rng, rng.randint(1, 70))
    data = random_input(rng, rng.randint(0, 250))
    expected = oracle_run(nfa, data)
    result = Engine(nfa, backend="native").run(data)
    assert _keys(result.reports) == _keys(expected.reports)
    assert result.stats.num_reports == expected.num_reports
    assert result.stats.num_cycles == expected.num_cycles
    assert result.stats.enabled_states_sum == expected.enabled_states_sum
    assert result.stats.active_states_sum == expected.active_states_sum


@pytest.mark.parametrize("seed", range(10))
def test_native_chunked_resume_matches_bitparallel(seed):
    """Chunked execution with report caps: reports, truncation flags,
    stats and the resumable state itself all match the numpy kernel."""
    rng = random.Random(7100 + seed)
    nfa = random_automaton(rng, rng.randint(2, 60))
    data = random_input(rng, 300)
    cap = rng.choice([0, 1, 3, 10, 10_000])
    reference = Engine(nfa, backend="bitparallel")
    candidate = Engine(nfa, backend="native")
    ref_state = reference.initial_state()
    cand_state = candidate.initial_state()
    for chunk in random_chunks(rng, data):
        ref = reference.run_chunk(chunk, ref_state, max_reports=cap)
        cand = candidate.run_chunk(chunk, cand_state, max_reports=cap)
        assert _keys(cand.reports) == _keys(ref.reports)
        assert cand.truncated == ref.truncated
        assert cand.stats.num_reports == ref.stats.num_reports
        assert cand.stats.enabled_states_sum == ref.stats.enabled_states_sum
        assert cand.stats.active_states_sum == ref.stats.active_states_sum
        assert _active(cand_state) == _active(ref_state)
        assert cand_state.position == ref_state.position


def test_native_report_buffer_pause_resume():
    """A chunk firing more reports than the C report buffer holds
    (> 4096) forces the pause/drain/resume path; results stay exact."""
    nfa = compile_regex_set({"r": "a"}, name="buffer-resume")
    data = b"a" * 9000
    cap = 8000
    ref = Engine(nfa, backend="bitparallel").run(data, max_reports=cap)
    got = Engine(nfa, backend="native").run(data, max_reports=cap)
    assert len(got.reports) == cap
    assert got.truncated is True
    assert got.stats.num_reports == 9000
    assert _keys(got.reports) == _keys(ref.reports)
    assert got.stats.num_reports == ref.stats.num_reports


def test_native_keep_per_cycle_and_placement_still_work():
    """Features the C loop doesn't implement fall back to numpy and
    keep their full semantics."""
    nfa = compile_regex_set(RULES, name="fallback-features")
    data = b"abcddxfoobar123zqnd" * 10
    ref = Engine(nfa, backend="bitparallel").run(data, keep_per_cycle=True)
    got = Engine(nfa, backend="native").run(data, keep_per_cycle=True)
    assert _keys(got.reports) == _keys(ref.reports)
    assert got.stats.enabled_per_cycle == ref.stats.enabled_per_cycle
    assert got.stats.active_per_cycle == ref.stats.active_per_cycle


@needs_native
def test_native_kernel_is_thread_safe():
    """Server executor threads share one kernel; concurrent run_chunk
    calls must not corrupt each other (per-call buffers)."""
    rng = random.Random(4242)
    nfa = compile_regex_set(RULES, name="threads")
    engine = Engine(nfa, backend="native")
    pool = b"abcdfoobarbaz0123qndxz"
    streams = [
        bytes(rng.choice(pool) for _ in range(2000)) for _ in range(8)
    ]
    expected = [_keys(engine.run(data).reports) for data in streams]

    def scan(data):
        return _keys(engine.run(data).reports)

    with ThreadPoolExecutor(max_workers=4) as executor:
        got = list(executor.map(scan, streams))
    assert got == expected


# -- the activity-proportional loop's edge geometry ------------------------
#
# The C loop ORs only each state's non-zero successor slice, hoists the
# always-enabled starts into per-symbol tables and skips idle words
# through summary bitmaps.  Every way those shortcuts could diverge
# from the full-width cycle gets an automaton shaped to hit it:
# reports against the naive oracle, statistics against the sparse
# kernel, chunk by chunk.


def _assert_differential(nfa, data, chunks=None, cap=1_000_000):
    expected = oracle_run(nfa, data)
    reference = Engine(nfa, backend="sparse")
    candidate = Engine(nfa, backend="native")
    ref_state = reference.initial_state()
    cand_state = candidate.initial_state()
    got = []
    for chunk in chunks if chunks is not None else [data]:
        ref = reference.run_chunk(chunk, ref_state, max_reports=cap)
        cand = candidate.run_chunk(chunk, cand_state, max_reports=cap)
        got.extend(cand.reports)
        assert _keys(cand.reports) == _keys(ref.reports)
        assert cand.truncated == ref.truncated
        assert cand.stats.num_reports == ref.stats.num_reports
        assert cand.stats.enabled_states_sum == ref.stats.enabled_states_sum
        assert cand.stats.active_states_sum == ref.stats.active_states_sum
        assert _active(cand_state) == _active(ref_state)
        assert cand_state.position == ref_state.position
    if cap >= expected.num_reports:
        assert _keys(got) == _keys(expected.reports)
    return candidate


def _literal(nfa, text, *, start=StartKind.ALL_INPUT):
    """Add a chain matching ``text``; returns its state ids."""
    chain = []
    for i, char in enumerate(text):
        ste = nfa.add_state(
            SymbolClass.from_symbols([ord(char)]),
            start=start if i == 0 else StartKind.NONE,
            reporting=i == len(text) - 1,
            report_code=f"{text}@{len(nfa)}",
        )
        if chain:
            nfa.add_transition(chain[-1], ste.ste_id)
        chain.append(ste.ste_id)
    return chain


def test_component_straddling_a_word_boundary():
    nfa = Automaton(name="straddle")
    for _ in range(12):  # 60 states of filler: words 0 only
        _literal(nfa, "zzzzx")
    chain = _literal(nfa, "abcabcab")  # ids 60..67: words 0 and 1
    assert chain[0] // 64 == 0 and chain[-1] // 64 == 1
    nfa.add_transition(chain[-1], chain[0])  # and back across it
    data = b"abcabcababcabcabzzzzxabcabcab" * 4
    _assert_differential(nfa, data)
    _assert_differential(nfa, data, chunks=[data[:3], data[3:64], data[64:]])


def test_interleaved_numbering_gives_wide_and_empty_spans():
    # three chains dealt out round-robin over ~7 words, so each state's
    # successor sits words away from it; the fan state reaches words 0,
    # 3 and 6 at once (span 7) and every chain end has no successor at
    # all (span 0)
    nfa = Automaton(name="interleaved")
    texts = ["abcdefgh" * 18, "bcdefgha" * 18, "cdefghab" * 18]
    ids = [[] for _ in texts]
    for i in range(len(texts[0])):
        for k, text in enumerate(texts):
            last = i == len(text) - 1
            ste = nfa.add_state(
                SymbolClass.from_symbols([ord(text[i])]),
                start=StartKind.ALL_INPUT if i == 0 else StartKind.NONE,
                reporting=last or i % 8 == 7,
                report_code=f"c{k}.{i}",
            )
            if ids[k]:
                nfa.add_transition(ids[k][-1], ste.ste_id)
            ids[k].append(ste.ste_id)
    fan = ids[0][0]
    nfa.add_transition(fan, ids[1][65])  # 'c' -> word 3
    nfa.add_transition(fan, ids[2][128])  # 'c' -> word 6
    kernel = Engine(nfa, backend="native").kernel
    if isinstance(kernel, NativeKernel) and kernel._lib is not None:
        spans = kernel._c_arrays["succ_span"]
        assert spans[fan].tolist() == [0, 7]
        assert spans[ids[0][-1]].tolist() == [0, 0]
    rng = random.Random(31)
    data = b"abcdefgh" * 20 + bytes(rng.choice(b"abcdefgh") for _ in range(300))
    _assert_differential(nfa, data)
    _assert_differential(nfa, data, chunks=random_chunks(rng, data))


@pytest.mark.parametrize("shape", ["components", "random"])
def test_more_than_64_words_uses_two_summary_words(shape):
    rng = random.Random(6464)
    if shape == "components":
        # Snort-like: hundreds of small components, activity at both
        # ends of the id range (summary words 0 and 1)
        letters = "abcdef"
        nfa = compile_regex_set(
            {
                f"r{i}": f"{letters[i % 6]}{letters[i // 6 % 6]}[a-f]{{10}}x"
                for i in range(330)
            },
            name="wide",
        )
        data = bytes(rng.choice(b"abcdefx") for _ in range(400))
    else:
        nfa = random_automaton(rng, 4200)
        data = random_input(rng, 120)
    assert len(nfa) > 4096
    _assert_differential(nfa, data)
    _assert_differential(nfa, data, chunks=random_chunks(rng, data), cap=50)


def test_start_of_data_across_cycle_zero_splits():
    nfa = Automaton(name="anchored")
    _literal(nfa, "abab", start=StartKind.START_OF_DATA)
    _literal(nfa, "ab")
    anchored_loop = _literal(nfa, "a", start=StartKind.START_OF_DATA)[0]
    nfa.add_transition(anchored_loop, anchored_loop)
    data = b"ababaaabab"
    for chunks in (
        [data],
        [b"", data],  # nothing consumed: cycle 0 is still ahead
        [data[:1], data[1:]],  # cycle 0 alone, resume at base 1
        [b"", data[:1], b"", data[1:2], data[2:]],
        [data[:5], data[5:]],  # resume well past cycle 0
    ):
        _assert_differential(nfa, data, chunks=chunks)
    # a stream that starts elsewhere never sees the anchored states
    engine = Engine(nfa, backend="native")
    state = engine.initial_state()
    state.position = 7
    late = engine.run_chunk(data, state)
    ref_state = Engine(nfa, backend="sparse").initial_state()
    ref_state.position = 7
    ref = Engine(nfa, backend="sparse").run_chunk(data, ref_state)
    assert _keys(late.reports) == _keys(ref.reports)
    assert late.stats.enabled_states_sum == ref.stats.enabled_states_sum


def test_start_state_that_is_also_a_successor_is_counted_once():
    # 1 is always enabled *and* enabled by 0 and by itself: the hoisted
    # start count plus the successor pass must not count it twice
    nfa = Automaton(name="double-count")
    a = SymbolClass.from_symbols([ord("a")])
    s0 = nfa.add_state(a, start=StartKind.ALL_INPUT).ste_id
    s1 = nfa.add_state(
        a, start=StartKind.ALL_INPUT, reporting=True, report_code="hit"
    ).ste_id
    s2 = nfa.add_state(
        SymbolClass.from_symbols([ord("b")]), reporting=True, report_code="b"
    ).ste_id
    nfa.add_transition(s0, s1)
    nfa.add_transition(s1, s1)
    nfa.add_transition(s1, s2)
    data = b"aaabaabbbaaa"
    engine = _assert_differential(nfa, data)
    result = engine.run(data)
    # enabled each cycle: {0, 1} always, plus 2 after every 'a'
    assert result.stats.enabled_states_sum == 2 * len(data) + data[:-1].count(
        b"a"
    )


@pytest.mark.parametrize("cap", [0, 1, 4097, 5000, 8999, 20_000])
def test_report_pause_resume_with_bursts_and_caps(cap):
    """> 4096 reports in one chunk, three per firing cycle, so the C
    buffer pauses mid-chunk; caps at 0, 1 and inside a burst."""
    nfa = compile_regex_set({"r1": "a", "r2": "a", "r3": "[ab]"}, name="burst")
    data = b"a" * 3000 + b"b" * 10
    assert oracle_run(nfa, data).num_reports == 9010
    _assert_differential(nfa, data, cap=cap)
    _assert_differential(
        nfa, data, chunks=[data[:1366], data[1366:1367], data[1367:]], cap=cap
    )


@pytest.mark.parametrize("seed", range(6))
def test_step_batch_rows_equal_solo_run_chunk(seed):
    rng = random.Random(5150 + seed)
    nfa = random_automaton(rng, rng.choice([20, 64, 65, 200]))
    kernel = get_backend("native").compile(nfa)
    rows = 7
    # rows at different stream positions: row 0 fresh (cycle 0 ahead),
    # the rest resumed mid-stream with live active sets
    states = [kernel.initial_state() for _ in range(rows)]
    for state in states[1:]:
        kernel.run_chunk(random_input(rng, rng.randint(1, 40)), state)
    chunks = [random_input(rng, rng.choice([0, 1, 17, 90])) for _ in range(rows)]
    caps = [rng.choice([0, 1, 5, 10_000]) for _ in range(rows)]
    solo_states = [state.copy() for state in states]
    solo = [
        kernel.run_chunk(chunk, state, max_reports=cap)
        for chunk, state, cap in zip(chunks, solo_states, caps)
    ]
    batch = BatchEngineState.attach(states, len(nfa))
    batched = kernel.step_batch(chunks, batch, max_reports=caps)
    for got, want, after, solo_state in zip(
        batched, solo, batch.detach(), solo_states
    ):
        assert _keys(got.reports) == _keys(want.reports)
        assert got.truncated == want.truncated
        assert got.stats.num_cycles == want.stats.num_cycles
        assert got.stats.num_reports == want.stats.num_reports
        assert got.stats.enabled_states_sum == want.stats.enabled_states_sum
        assert got.stats.active_states_sum == want.stats.active_states_sum
        assert _active(after) == _active(solo_state)
        assert after.position == solo_state.position


# -- the packed row is the state ------------------------------------------
#
# A native stream's EngineState holds the packed row the C loop steps in
# place; ids are derived for snapshots and for the index-set kernels.


def _oracle_chunk(nfa, prefix: bytes, chunk: bytes, cap: int):
    """What one chunk after ``prefix`` must give: its capped reports,
    the fired count, truncation and the two activity sums."""
    before, after = oracle_run(nfa, prefix), oracle_run(nfa, prefix + chunk)
    fired = [r for r in after.reports if r.cycle >= len(prefix)]
    return (
        _keys(fired[:cap]),
        len(fired),
        len(fired) > cap,
        after.enabled_states_sum - before.enabled_states_sum,
        after.active_states_sum - before.active_states_sum,
    )


class _CountingLib:
    """The bound library, recording each C call's ``first_row``."""

    def __init__(self, lib) -> None:
        self.lib, self.first_rows = lib, []

    def cama_step_rows(self, tables, work, data, num_rows, first_row):
        self.first_rows.append(first_row)
        return self.lib.cama_step_rows(tables, work, data, num_rows, first_row)


@needs_native
@pytest.mark.parametrize("matrix", [False, True], ids=["states", "matrix"])
def test_one_c_entry_pauses_mid_row_and_between_rows(monkeypatch, matrix):
    """A one-slot report buffer (the floor monkeypatched to 1, so the
    capacity is the worst burst) makes the one C entry pause on nearly
    every reporting cycle — inside rows and at row boundaries — across
    rows at cycle 0 and mid-stream with per-row caps; every row still
    matches the oracle, as a list of session states and as a matrix."""
    monkeypatch.setattr(native_module, "_REPORT_BUFFER_FLOOR", 1)
    nfa = compile_regex_set({"a": "a", "ab": "[ab]", "bc": "b+c?"}, name="p")
    kernel = get_backend("native").compile(nfa)  # a fresh workspace
    lib = kernel._lib = _CountingLib(kernel._lib)
    rng = random.Random(31337)
    prefixes = [b"", b"", b"ab" * 9, b"bbc", b"a" * 40, b"", b"cab"]
    chunks = [
        bytes(rng.choice(b"abc") for _ in range(length))
        for length in (60, 0, 45, 1, 70, 33, 52)
    ]
    caps = [10_000, 3, 0, 1, 7, 10_000, 2]
    states = [kernel.initial_state() for _ in prefixes]
    for state, prefix in zip(states, prefixes):
        kernel.run_chunk(prefix, state)
    reference = Engine(nfa, backend="sparse")
    want_states = [reference.initial_state() for _ in prefixes]
    for state, prefix, chunk in zip(want_states, prefixes, chunks):
        reference.run_chunk(prefix + chunk, state)
    lib.first_rows.clear()
    if matrix:
        batch = BatchEngineState.attach(states, len(nfa))
        results = kernel.step_batch(chunks, batch, max_reports=caps)
        states = batch.detach()
    else:
        results = kernel.step_batch(chunks, states, max_reports=caps)
    # paused mid-row (a row resumed) and stopped short of later rows
    assert len(lib.first_rows) > len(chunks)
    assert len(set(lib.first_rows)) < len(lib.first_rows)
    for got, prefix, chunk, cap, state, want in zip(
        results, prefixes, chunks, caps, states, want_states
    ):
        keys, fired, truncated, enabled, active = _oracle_chunk(
            nfa, prefix, chunk, cap
        )
        assert _keys(got.reports) == keys
        assert got.stats.num_reports == fired
        assert got.truncated == truncated
        assert got.stats.num_cycles == len(chunk)
        assert got.stats.enabled_states_sum == enabled
        assert got.stats.active_states_sum == active
        assert _active(state) == _active(want)
        assert state.position == len(prefix) + len(chunk)


@needs_native
def test_snapshots_do_not_alias_the_live_row():
    """A native feed steps the session's packed rows in place, so a
    snapshot (and ``EngineState.copy``) must own its row: feeding after
    one leaves it as it was."""
    nfa = compile_regex_set(RULES, name="alias")
    data = b"abcdfoobarba123qn" * 3
    with MatchingService(ScanConfig(backend="native", num_shards=2)) as service:
        session = service.open_session(nfa, "s")
        session.feed(data[:11])
        snapshot = session.snapshot()
        taken = [state.to_dict() for state in snapshot]
        session.feed(data[11:])
        assert [s.to_dict() for s in session.snapshot()] != taken
        assert [state.to_dict() for state in snapshot] == taken
    kernel = get_backend("native").compile(nfa)
    state = kernel.initial_state()
    kernel.run_chunk(data[:11], state)
    copy = state.copy()
    taken = copy.to_dict()
    kernel.run_chunk(data[11:], state)
    assert state.to_dict() != taken
    assert copy.to_dict() == taken
    # and stepping the copy leaves the original alone
    kernel.run_chunk(data[11:], copy)
    assert copy.to_dict() == state.to_dict()


@pytest.mark.parametrize("seed", range(4))
def test_restore_native_to_sparse_to_native_matches_oracle(seed):
    """One stream checkpointed across three services — native, then the
    sparse kernel (which reads ids and assigns them back), then native
    again (which packs them) — reports exactly the oracle's stream."""
    rng = random.Random(6200 + seed)
    nfa = random_automaton(rng, rng.choice([20, 64, 65, 130]))
    data = random_input(rng, 240)
    cuts = sorted(rng.sample(range(1, len(data)), 2))
    pieces = [data[: cuts[0]], data[cuts[0] : cuts[1]], data[cuts[1] :]]
    got, snapshot = [], None
    for backend, piece in zip(["native", "sparse", "native"], pieces):
        config = ScanConfig(backend=backend, num_shards=2)
        with MatchingService(config) as service:
            session = service.open_session(nfa, "s")
            if snapshot is not None:
                session.restore(snapshot)
            got.extend(session.feed_all(piece, rng.choice([7, 64, 512])))
            snapshot = [state.to_dict() for state in session.snapshot()]
    assert _keys(got) == _keys(oracle_run(nfa, data).reports)


# -- degradation -----------------------------------------------------------


def test_env_switch_degrades_to_pure_numpy(no_native):
    """REPRO_NATIVE=0 (CI's compiler-less stand-in): the native backend
    hands out plain BitParallelKernel objects and stays correct."""
    assert native_available() is False
    assert "unavailable" in native_status()
    nfa = compile_regex_set(RULES, name="degraded")
    kernel = get_backend("native").compile(nfa)
    assert type(kernel) is BitParallelKernel
    assert kernel.name == "bitparallel"
    data = b"abcddxfoobarbaz123zqnd" * 5
    expected = oracle_run(nfa, data)
    result = Engine(nfa, backend="native").run(data)
    assert _keys(result.reports) == _keys(expected.reports)


@needs_native
def test_native_engine_pickle_round_trip():
    """The ctypes handle and every C-side table (raw pointers into this
    process) are dropped on pickle; arrival re-probes and re-derives."""
    nfa = compile_regex_set(RULES, name="pickle")
    engine = Engine(nfa, backend="native")
    data = b"abcddxfoobar123z" * 20
    expected = engine.run(data)
    kernel = engine.kernel
    pickled = kernel.__getstate__()
    assert not {"_lib", "_c_tables", "_c_arrays"} & set(pickled)
    assert not any(isinstance(v, ctypes.Structure) for v in pickled.values())
    clone = pickle.loads(pickle.dumps(engine))
    assert clone.backend_name == "native"
    assert clone.kernel._c_arrays.keys() == kernel._c_arrays.keys()
    for name, table in kernel._c_arrays.items():
        rebuilt = clone.kernel._c_arrays[name]
        assert rebuilt is not table
        assert rebuilt.dtype == table.dtype
        assert np.array_equal(rebuilt, table)
    result = clone.run(data)
    assert _keys(result.reports) == _keys(expected.reports)
    assert result.stats.num_reports == expected.stats.num_reports


# -- tables / artifact interchange -----------------------------------------


def test_exported_tables_carry_packed_successor_rows():
    """export_tables ships succ_words and a tables-built kernel uses
    them verbatim instead of re-deriving the packed rows."""
    nfa = compile_regex_set(RULES, name="tables")
    kernel = get_backend("bitparallel").compile(nfa)
    tables = kernel.export_tables()
    assert tables.succ_words is not None
    assert tables.succ_words.shape == kernel._succ_rows.shape
    rebuilt = BitParallelKernel(nfa, tables=tables)
    assert np.array_equal(rebuilt._succ_rows, kernel._succ_rows)
    data = b"abcddxfoobarbaz123zqnd" * 5
    assert _keys(rebuilt.run_chunk(data, rebuilt.initial_state()).reports) == (
        _keys(kernel.run_chunk(data, kernel.initial_state()).reports)
    )


def test_artifact_round_trip_with_native_backend():
    """compile -> artifact bytes -> engine, recorded backend "native":
    succ_words ships in the .npz and the loaded engine is exact (even
    when the loading host must degrade to the numpy kernel)."""
    nfa = compile_regex_set(RULES, name="native-artifact")
    compiled = compile_ruleset(nfa, backend="native")
    artifact = CompiledArtifact.from_compiled(compiled)
    loaded = CompiledArtifact.from_bytes(artifact.to_bytes()).validate()
    assert "succ_words" in loaded.arrays
    tables = loaded.kernel_tables()
    assert tables.succ_words is not None
    expected_name = "native" if native_available() else "bitparallel"
    engine = loaded.engine()
    assert engine.backend_name == expected_name
    data = b"abcddxfoobarbaz123zqnd" * 10
    expected = oracle_run(nfa, data)
    result = engine.run(data)
    assert _keys(result.reports) == _keys(expected.reports)
    assert result.stats.num_reports == expected.num_reports


def test_auto_artifact_engine_resolves_at_load_time():
    """An artifact compiled with backend="auto" records the kernel the
    compiling host chose; asking for "auto" again at load time re-runs
    the policy on the loading host."""
    nfa = dense_activity_automaton(48, chain_length=16, match_width=230)
    compiled = compile_ruleset(nfa, backend="auto")
    loaded = CompiledArtifact.from_bytes(
        CompiledArtifact.from_compiled(compiled).to_bytes()
    )
    here = choose_backend_name(nfa)
    assert loaded.engine().backend_name == here
    assert loaded.engine(backend="auto").backend_name == here
