"""The native compiled kernel: differential, degradation, packaging.

The C step loop in ``cama_kernel.c`` must be byte-identical to the
sparse reference kernel on every path — full runs, chunked resumes,
report caps (including the pause/resume dance when a chunk fires more
reports than the C-side buffer holds), batched stepping and artifact
round trips.  The runs it hands to the sparse kernel (placement,
per-cycle statistics, no library) must be too, and it must *degrade*
identically: with ``REPRO_NATIVE=0`` (or no compiler)
``backend="native"`` silently hands out the sparse kernel, so
requesting it is always safe.
"""

import ctypes
import dataclasses
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
from repro.sim.backends.sparse import SparseKernel
from repro.service import MatchingService
from repro.sim.backends import native as native_module
from repro.sim.backends.native import (
    NativeBackend,
    NativeKernel,
    native_available,
    native_status,
)
from repro.sim.engine import Engine
from repro.sim.trace import PartitionAssignment
from repro.workloads import benchmark_input, get_benchmark
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
def test_native_chunked_resume_matches_sparse(seed):
    """Chunked execution with report caps: reports, truncation flags,
    stats and the resumable state itself all match the sparse kernel."""
    rng = random.Random(7100 + seed)
    nfa = random_automaton(rng, rng.randint(2, 60))
    data = random_input(rng, 300)
    cap = rng.choice([0, 1, 3, 10, 10_000])
    reference = Engine(nfa, backend="sparse")
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
    ref = Engine(nfa, backend="sparse").run(data, max_reports=cap)
    got = Engine(nfa, backend="native").run(data, max_reports=cap)
    assert len(got.reports) == cap
    assert got.truncated is True
    assert got.stats.num_reports == 9000
    assert _keys(got.reports) == _keys(ref.reports)
    assert got.stats.num_reports == ref.stats.num_reports


def test_native_keep_per_cycle_and_placement_still_work():
    """Features the C loop doesn't implement step the sparse kernel
    and keep their full semantics."""
    nfa = compile_regex_set(RULES, name="fallback-features")
    data = b"abcddxfoobar123zqnd" * 10
    ref = Engine(nfa, backend="sparse").run(data, keep_per_cycle=True)
    got = Engine(nfa, backend="native").run(data, keep_per_cycle=True)
    assert _keys(got.reports) == _keys(ref.reports)
    assert got.stats.enabled_per_cycle == ref.stats.enabled_per_cycle
    assert got.stats.active_per_cycle == ref.stats.active_per_cycle


def _stats_fields(stats):
    """Every TraceStats field, arrays as lists (comparable with ==)."""
    values = {}
    for field in dataclasses.fields(stats):
        value = getattr(stats, field.name)
        values[field.name] = (
            value.tolist() if isinstance(value, np.ndarray) else value
        )
    return values


@pytest.mark.parametrize("path", ["placement", "keep_per_cycle", "no_library"])
def test_delegated_runs_equal_the_sparse_kernel(path):
    """The runs a NativeKernel hands to the SparseKernel built from its
    own tables — placement tracking, per-cycle statistics, a kernel
    without the library — give the sparse kernel's reports, every
    TraceStats field (partition counters included) and final state,
    chunk by chunk, on a registry benchmark."""
    bench = get_benchmark("Snort", scale=1 / 32)
    nfa = bench.automaton
    data = bench.input_stream(600)
    rng = np.random.default_rng(5)
    kwargs = {}
    if path == "placement":
        kwargs["placement"] = PartitionAssignment(
            partition_of=rng.integers(0, 4, len(nfa)),
            num_partitions=4,
            weights=rng.random(len(nfa)),
        )
    elif path == "keep_per_cycle":
        kwargs["keep_per_cycle"] = True
    kernel = NativeKernel(nfa)
    if path == "no_library":
        kernel._lib = None
    reference = SparseKernel(nfa)
    state, ref_state = kernel.initial_state(), reference.initial_state()
    for start in range(0, len(data), 250):
        chunk = data[start : start + 250]
        got = kernel.run_chunk(chunk, state, **kwargs)
        ref = reference.run_chunk(chunk, ref_state, **kwargs)
        assert _keys(got.reports) == _keys(ref.reports)
        assert got.truncated == ref.truncated
        assert _stats_fields(got.stats) == _stats_fields(ref.stats)
        assert _active(state) == _active(ref_state)
        assert state.position == ref_state.position
    if path == "no_library":
        chunks = [data[:100], data[100:350], b""]
        rows, ref_rows = kernel.initial_batch(3), reference.initial_batch(3)
        got = kernel.step_batch(chunks, rows, max_reports=[5, 0, 5])
        ref = reference.step_batch(chunks, ref_rows, max_reports=[5, 0, 5])
        for g, r in zip(got, ref):
            assert _keys(g.reports) == _keys(r.reports)
            assert g.truncated == r.truncated
            assert _stats_fields(g.stats) == _stats_fields(r.stats)
        assert np.array_equal(rows.active_words, ref_rows.active_words)
        assert np.array_equal(rows.positions, ref_rows.positions)


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
# The C loop ORs only each state's non-zero successor slice, folds the
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
    # 3 and 6 at once (a 7-word slice, zero words inside it kept) and
    # every chain end has no successor at all (an empty slice)
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
        kernel._tables()
        spans = kernel._c_arrays["succ_span"]
        packed = kernel._c_arrays["succ_packed"]
        assert spans[fan].tolist() == [0, 0, 7]  # base, first, count
        assert packed[:7].tolist() == [1 << 3, 0, 0, 1 << 4, 0, 0, 1 << 2]
        assert spans[ids[0][-1], 1:].tolist() == [0, 0]
        # the slices lie back to back, one word or so per state
        assert (spans[1:, 0] == spans[:-1, 0] + spans[:-1, 2]).all()
        assert len(packed) == spans[-1, 0] + spans[-1, 2] < 2 * len(nfa)
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


def _filler(nfa, states):
    """``states`` states of unrelated components ahead of a test's own,
    so that those sit past the first word and take the multi-word
    loop (0 keeps them in the one-word loop)."""
    for _ in range(states // 5):
        _literal(nfa, "zzzzx")


def test_start_of_data_across_cycle_zero_splits():
    for filler in (0, 70):  # one word, then past it
        nfa = Automaton(name="anchored")
        _filler(nfa, filler)
        _literal(nfa, "abab", start=StartKind.START_OF_DATA)
        _literal(nfa, "ab")
        anchored_loop = _literal(nfa, "a", start=StartKind.START_OF_DATA)[0]
        nfa.add_transition(anchored_loop, anchored_loop)
        assert (len(nfa) > 64) == (filler > 0)
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
    # 1 is always enabled *and* enabled by 0 and by itself: the folded
    # start count plus the successor pass must not count it twice
    for filler in (0, 70):  # one word, then past it
        nfa = Automaton(name="double-count")
        _filler(nfa, filler)
        a = SymbolClass.from_symbols([ord("a")])
        s0 = nfa.add_state(a, start=StartKind.ALL_INPUT).ste_id
        s1 = nfa.add_state(
            a, start=StartKind.ALL_INPUT, reporting=True, report_code="hit"
        ).ste_id
        b = SymbolClass.from_symbols([ord("b")])
        s2 = nfa.add_state(b, reporting=True, report_code="b").ste_id
        assert (s2 >= 64) == (filler > 0)
        nfa.add_transition(s0, s1)
        nfa.add_transition(s1, s1)
        nfa.add_transition(s1, s2)
        data = b"aaabaabbbaaa"
        engine = _assert_differential(nfa, data)
        result = engine.run(data)
        # enabled each cycle: {0, 1} and the filler's starts always,
        # plus 2 after every 'a' (no filler state ever becomes active)
        starts = 2 + filler // 5
        assert result.stats.enabled_states_sum == starts * len(
            data
        ) + data[:-1].count(b"a")


# -- the folded starts ------------------------------------------------------
#
# Past a call's first cycle a multi-word row holds only its non-start
# hits; the starts' successors are a per-symbol constant count and,
# per symbol pair, the words of them that match; reports OR the
# symbol's start hits back in, and the row is made whole again when
# the call returns or pauses.


def _pair_entries(arrays, prev, cur):
    """The pair table's ``(word, bits)`` entries for ``cur`` after
    ``prev``, looked up the way the C loop does."""
    word, bit = divmod(cur, 64)
    any_bits = int(arrays["pair_any"][prev, word])
    if not any_bits >> bit & 1:
        return []
    below = bin(any_bits & ((1 << bit) - 1)).count("1")
    pair = int(arrays["pair_rank"][prev, word]) + below
    entries = slice(arrays["pair_at"][pair], arrays["pair_at"][pair + 1])
    return list(
        zip(
            arrays["pair_word"][entries].tolist(),
            arrays["pair_bits"][entries].tolist(),
        )
    )


def test_start_successors_that_are_starts_and_non_starts_in_two_words():
    # s (word 0) enables a start t (word 1) and a non-start u (word 2):
    # the folded starts' successor list must keep u and drop t, which
    # the start count already covers
    nfa = Automaton(name="fan-out")
    ab = SymbolClass.from_symbols(b"ab")
    s = nfa.add_state(
        SymbolClass.from_symbols(b"a"), start=StartKind.ALL_INPUT
    ).ste_id
    _filler(nfa, 70)
    t = nfa.add_state(
        ab, start=StartKind.ALL_INPUT, reporting=True, report_code="t"
    ).ste_id
    _filler(nfa, 60)
    u = nfa.add_state(ab, reporting=True, report_code="u").ste_id
    assert (s // 64, t // 64, u // 64) == (0, 1, 2)
    nfa.add_transition(s, t)
    nfa.add_transition(s, u)
    nfa.add_transition(t, u)
    kernel = Engine(nfa, backend="native").kernel
    if isinstance(kernel, NativeKernel) and kernel._lib is not None:
        kernel._tables()
        row = kernel._c_arrays["start_succ"][ord("a")]
        # 'a' makes s and t active; of their successors t and u, only
        # u is kept, and t's word is left empty
        assert row.tolist() == [0, 0, 1 << (u % 64)]
        assert kernel._c_arrays["start_succ_enabled"][ord("a")] == 1
        # and 'b' after 'a' makes u active: the pair's one entry
        pair = _pair_entries(kernel._c_arrays, ord("a"), ord("b"))
        assert pair == [(2, 1 << (u % 64))]
        assert _pair_entries(kernel._c_arrays, ord("a"), ord("z")) == []
    rng = random.Random(2112)
    data = b"abba" + bytes(rng.choice(b"abz") for _ in range(300))
    _assert_differential(nfa, data)
    for _ in range(4):
        _assert_differential(nfa, data, chunks=random_chunks(rng, data))


def _spread(nfa, seed):
    """``nfa`` with its state ids shuffled, so that every component —
    and each start's successors — lands across many words."""
    order = list(range(len(nfa)))
    random.Random(seed).shuffle(order)
    new_id = {old: new for new, old in enumerate(order)}
    spread = Automaton(name=f"{nfa.name}.spread")
    for old in order:
        ste = nfa.states[old]
        spread.add_state(
            ste.symbol_class,
            start=ste.start,
            reporting=ste.reporting,
            report_code=ste.report_code,
        )
    for u, v in nfa.transitions():
        spread.add_transition(new_id[u], new_id[v])
    return spread


def _as_int(words):
    return int.from_bytes(np.ascontiguousarray(words).tobytes(), "little")


def _word_entries(bits):
    """The non-zero 64-bit words of a Python int, ascending, as
    ``(word, bits)`` pairs."""
    entries = []
    while bits:
        word = ((bits & -bits).bit_length() - 1) >> 6
        entries.append((word, bits >> (64 * word) & (1 << 64) - 1))
        bits &= ~(((1 << 64) - 1) << (64 * word))
    return entries


@needs_native
@pytest.mark.parametrize("ruleset", ["tiny", "tiny-wide", "snort", "spread"])
def test_pair_table_matches_a_brute_force_oracle(ruleset):
    """The folded starts' tables against a brute-force oracle written
    from the automaton's own states and successors: the dense
    start-successor rows and their popcounts, and for every (prev,
    cur) symbol pair the pair table's entries — the non-zero words of
    start_succ[prev] & match_words[cur], ascending — with pair_any,
    the rank and the offsets agreeing.  A one-word kernel derives no
    pair table: its loop reads start_succ[prev] itself."""
    if ruleset.startswith("tiny"):
        nfa = Automaton(name=ruleset)
        if ruleset == "tiny-wide":
            _filler(nfa, 70)
        nfa.merge(compile_regex_set(RULES, name="tiny"))
    else:
        nfa = get_benchmark("Snort", scale=1 / 32).automaton
        if ruleset == "spread":
            nfa = _spread(nfa, 40)
    kernel = NativeKernel(nfa)
    kernel._tables()
    arrays = kernel._c_arrays
    starts = [s.ste_id for s in nfa.states if s.start is StartKind.ALL_INPUT]
    non_start = ~sum(1 << s for s in starts)
    start_succ = []
    for symbol in range(256):
        row = 0
        for s in starts:
            if symbol in nfa.states[s].symbol_class:
                for t in nfa.successors(s):
                    row |= 1 << t
        start_succ.append(row & non_start)
    assert [_as_int(row) for row in arrays["start_succ"]] == start_succ
    assert arrays["start_succ_enabled"].tolist() == [
        bin(row).count("1") for row in start_succ
    ]
    if ruleset == "tiny":
        assert kernel._num_words == 1
        assert not any(len(arrays[name]) for name in arrays if "pair" in name)
        # and no per-kernel table of 65,536 pair entries: the tiny
        # kernel's C tables stay a few KB
        assert sum(a.nbytes for a in arrays.values()) < 16 * 1024
        return
    match = [_as_int(row) for row in kernel._match_words]
    listed = 0
    for prev in range(256):
        for cur in range(256):
            expected = _word_entries(start_succ[prev] & match[cur])
            assert _pair_entries(arrays, prev, cur) == expected
            listed += bool(expected)
    # the index: one offset per non-empty pair, ranks counting the
    # pair_any bits before each word, no empty pair listed
    flat = [int(x) for x in arrays["pair_any"].ravel()]
    assert len(arrays["pair_at"]) == listed + 1 == 1 + sum(
        bin(x).count("1") for x in flat
    )
    assert arrays["pair_rank"].ravel().tolist() == [
        sum(bin(x).count("1") for x in flat[:i]) for i in range(len(flat))
    ]
    assert (np.diff(arrays["pair_at"]) > 0).all()
    assert arrays["pair_at"][-1] == len(arrays["pair_word"])
    assert len(arrays["pair_word"]) == len(arrays["pair_bits"])
    # and the loop over them steps as the sparse kernel does
    data = benchmark_input(nfa, 4096)
    got = Engine.from_kernel(kernel).run(data)
    want = Engine(nfa, backend="sparse").run(data)
    assert _keys(got.reports) == _keys(want.reports)
    assert got.stats.enabled_states_sum == want.stats.enabled_states_sum
    assert got.stats.active_states_sum == want.stats.active_states_sum


@needs_native
@pytest.mark.parametrize("filler", [0, 70], ids=["one-word", "wide"])
def test_held_cycle_shares_words_with_the_start_successors(
    monkeypatch, filler
):
    """A cycle whose row holds a non-start hit, right after a symbol
    whose starts enable successors in the same word: the row's
    successor ``u`` is also a start successor (counted and matched
    once), ``v`` shares its word, ``w`` is the starts' alone.  Against
    the sparse kernel — reports, enabled and active sums, final rows —
    over 1-byte chunks, calls resumed with a non-start row, and a
    report buffer so small that calls pause mid-row."""
    monkeypatch.setattr(native_module, "_REPORT_BUFFER_FLOOR", 1)
    nfa = Automaton(name="held-overlap")
    _filler(nfa, filler)
    cls = {c: SymbolClass.from_symbols(c.encode()) for c in "abx"}
    p = nfa.add_state(cls["x"], start=StartKind.ALL_INPUT).ste_id
    s = nfa.add_state(cls["a"], start=StartKind.ALL_INPUT).ste_id
    q = nfa.add_state(cls["a"]).ste_id
    u = nfa.add_state(cls["b"], reporting=True, report_code="u").ste_id
    v = nfa.add_state(cls["b"], reporting=True, report_code="v").ste_id
    w = nfa.add_state(cls["b"], reporting=True, report_code="w").ste_id
    assert len({x // 64 for x in (p, s, q, u, v, w)}) == 1
    assert (u >= 64) == (filler > 0)
    for src, dst in ((p, q), (q, q), (s, u), (s, w), (q, u), (q, v)):
        nfa.add_transition(src, dst)
    kernel = get_backend("native").compile(nfa)  # a fresh workspace
    lib = kernel._lib = _CountingLib(kernel._lib)
    reference = SparseKernel(nfa)
    rng = random.Random(4040)
    data = b"xab" + bytes(rng.choice(b"xabz") for _ in range(400))
    # 'b' after "xa": the pair lists u and w, the row's q adds v, and u
    # is enabled and active once
    result = kernel.run_chunk(data[:3], kernel.initial_state())
    expected = reference.run_chunk(data[:3], reference.initial_state())
    assert _keys(result.reports) == _keys(expected.reports)
    assert [r.state_id for r in result.reports] == [u, v, w]
    assert result.stats.enabled_states_sum == expected.stats.enabled_states_sum
    splits = [
        [data],
        [data[i : i + 1] for i in range(len(data))],
        [data[:2], data[2:]],  # resumed with q in the row, before 'b'
        random_chunks(rng, data),
    ]
    for chunks in splits:
        state, ref_state = kernel.initial_state(), reference.initial_state()
        calls = len(lib.first_rows)
        for chunk in chunks:
            got = kernel.run_chunk(chunk, state)
            want = reference.run_chunk(chunk, ref_state)
            assert _keys(got.reports) == _keys(want.reports)
            assert got.stats.enabled_states_sum == want.stats.enabled_states_sum
            assert got.stats.active_states_sum == want.stats.active_states_sum
            assert _active(state) == _active(ref_state)
        if len(chunks) == 1:
            # the one-slot buffer paused the call, well inside the row
            assert len(lib.first_rows) - calls > 10
    # and as one batch, rows resumed mid-stream at different points
    rows = [kernel.initial_state() for _ in range(3)]
    ref_rows = [reference.initial_state() for _ in range(3)]
    heads = [data[:2], data[:40], b""]
    kernel.step_batch(heads, rows)
    reference.step_batch(heads, ref_rows)
    tails = [data[2:], data[40:90], data]
    got = kernel.step_batch(tails, rows)
    want = reference.step_batch(tails, ref_rows)
    for g, r in zip(got, want):
        assert _keys(g.reports) == _keys(r.reports)
        assert g.stats.enabled_states_sum == r.stats.enabled_states_sum
        assert g.stats.active_states_sum == r.stats.active_states_sum
    assert [_active(x) for x in rows] == [_active(x) for x in ref_rows]


def test_start_and_non_start_firing_in_one_word_report_in_order():
    # after "x", 'y' fires non-start n1, start r and non-start n2 — ids
    # 71 < 72 < 73, one word — and must report them in that order
    nfa = Automaton(name="interleaved-reports")
    _filler(nfa, 70)
    x = SymbolClass.from_symbols(b"x")
    y = SymbolClass.from_symbols(b"y")
    p = nfa.add_state(x, start=StartKind.ALL_INPUT).ste_id
    n1 = nfa.add_state(y, reporting=True, report_code="n1").ste_id
    r = nfa.add_state(
        y, start=StartKind.ALL_INPUT, reporting=True, report_code="r"
    ).ste_id
    n2 = nfa.add_state(y, reporting=True, report_code="n2").ste_id
    assert n1 // 64 == n2 // 64 == 1 and n1 < r < n2
    nfa.add_transition(p, n1)
    nfa.add_transition(p, n2)
    data = b"xyyxxyzy"
    candidate = _assert_differential(nfa, data)
    for chunks in ([data[:1], data[1:]], [data[:3], data[3:]]):
        _assert_differential(nfa, data, chunks=chunks)
    fired = [(rep.cycle, rep.state_id) for rep in candidate.run(data).reports]
    assert fired == [
        (1, n1), (1, r), (1, n2), (2, r), (5, n1), (5, r), (5, n2), (7, r),
    ]


@needs_native
def test_a_pause_while_folded_leaves_the_row_whole(monkeypatch):
    """A one-slot report buffer pauses the C loop after nearly every
    reporting cycle, mid-chunk, with the starts folded out of the row:
    the row it leaves — stepped on by the resumed call, and read by a
    snapshot — must be the whole active set."""
    monkeypatch.setattr(native_module, "_REPORT_BUFFER_FLOOR", 1)
    nfa = Automaton(name="folded-pause")
    _filler(nfa, 70)
    ab = _literal(nfa, "ab")
    nfa.add_transition(ab[1], ab[0])  # into a start
    ba = _literal(nfa, "ba")
    nfa.add_transition(ba[1], ba[1])  # a reporting non-start loop
    _filler(nfa, 60)
    aa = _literal(nfa, "aab")
    assert aa[-1] // 64 == 2
    kernel = get_backend("native").compile(nfa)  # a fresh workspace
    lib = kernel._lib = _CountingLib(kernel._lib)
    reference = Engine(nfa, backend="sparse")
    rng = random.Random(404)
    data = bytes(rng.choice(b"abz") for _ in range(400))
    state, ref_state = kernel.initial_state(), reference.initial_state()
    chunks = random_chunks(rng, data)
    for chunk in chunks:
        got = kernel.run_chunk(chunk, state)
        want = reference.run_chunk(chunk, ref_state)
        assert _keys(got.reports) == _keys(want.reports)
        assert got.stats.enabled_states_sum == want.stats.enabled_states_sum
        assert got.stats.active_states_sum == want.stats.active_states_sum
        assert _active(state) == _active(ref_state)
    assert len(lib.first_rows) > len(chunks) + 10  # it paused, often
    snapshots = []
    for backend in ("native", "sparse"):
        with MatchingService(ScanConfig(backend=backend)) as service:
            session = service.open_session(nfa, "s")
            for chunk in chunks:
                session.feed(chunk)
            snapshots.append([s.to_dict() for s in session.snapshot()])
    assert snapshots[0] == snapshots[1]
    assert snapshots[0][0]["active"] == _active(ref_state)


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
    hands out SparseKernel objects, named for the kernel that runs,
    and stays correct."""
    assert native_available() is False
    assert "unavailable" in native_status()
    nfa = compile_regex_set(RULES, name="degraded")
    kernel = get_backend("native").compile(nfa)
    assert type(kernel) is SparseKernel
    assert kernel.name == "sparse"
    rebuilt = get_backend("native").from_tables(nfa, kernel.export_tables())
    assert type(rebuilt) is SparseKernel
    bench = get_benchmark("Snort", scale=1 / 32)
    for nfa, data in (
        (nfa, b"abcddxfoobarbaz123zqnd" * 5),
        (bench.automaton, bench.input_stream(300)),
    ):
        engine = Engine(nfa, backend="native")
        assert engine.backend_name == "sparse"
        expected = oracle_run(nfa, data)
        result = engine.run(data)
        assert _keys(result.reports) == _keys(expected.reports)
        assert result.stats.enabled_states_sum == expected.enabled_states_sum
        assert result.stats.active_states_sum == expected.active_states_sum


@needs_native
def test_native_engine_pickle_round_trip():
    """The ctypes handle and every C-side table (raw pointers into this
    process) are dropped on pickle; arrival re-probes, and the first
    step re-derives."""
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
    result = clone.run(data)
    assert clone.kernel._c_arrays.keys() == kernel._c_arrays.keys()
    for name, table in kernel._c_arrays.items():
        rebuilt = clone.kernel._c_arrays[name]
        assert rebuilt is not table
        assert rebuilt.dtype == table.dtype
        assert np.array_equal(rebuilt, table)
    assert _keys(result.reports) == _keys(expected.reports)
    assert result.stats.num_reports == expected.stats.num_reports


@needs_native
def test_the_service_derives_the_c_tables_before_the_first_request(
    monkeypatch,
):
    """Registering a ruleset (or updating it) derives its shard
    kernels' C tables, so neither the first scan nor the first feed
    pays for them; a compile, whose kernels only export their tables,
    never derives them."""
    derived = []
    derive = NativeKernel._derive_tables

    def counting(kernel):
        derived.append(kernel)
        derive(kernel)

    monkeypatch.setattr(NativeKernel, "_derive_tables", counting)
    automaton = get_benchmark("Snort", scale=1 / 32).automaton
    compile_ruleset(automaton, backend="native")
    assert derived == []
    data = benchmark_input(automaton, 4096)
    with MatchingService(ScanConfig(num_shards=2)) as service:
        handle = service.register_ruleset(automaton).lineage
        kernels = [
            engine.kernel for engine in service.dispatcher(automaton).engines
        ]
        assert derived == kernels and len(kernels) == 2
        scanned = service.scan(handle, data)
        service.open_session(handle, "s").feed(data)
        assert derived == kernels
        update = compile_regex_set(RULES, name="update")
        service.update_ruleset(handle, automaton=update)
        kernels += [
            engine.kernel for engine in service.dispatcher(update).engines
        ]
        assert derived == kernels
        service.scan(handle, data)
        service.open_session(handle, "t").feed(data)
    assert derived == kernels
    assert scanned.backends == ["native", "native"]


@needs_native
def test_rulesets_above_the_old_state_cap_run_on_the_c_loop():
    """Snort at 1/4 scale (17,769 states, 278 words a row) runs and is
    served, with no backend flag, on the C loop: its successor table
    is each state's packed slice, about a word per state, where a dense
    matrix would be 38 MiB.  Under ASan a slice read out of bounds
    aborts here."""
    automaton = get_benchmark("Snort", scale=0.25).automaton
    assert len(automaton) > 1 << 14
    data = benchmark_input(automaton, 8192)
    expected = Engine(automaton, backend="sparse").run(data)
    assert expected.stats.num_reports > 100
    assert choose_backend_name() == "native"
    engine = Engine(automaton, backend="native")
    assert engine.backend_name == "native"
    result = engine.run(data)
    assert _keys(result.reports) == _keys(expected.reports)
    assert result.stats.enabled_states_sum == expected.stats.enabled_states_sum
    assert result.stats.active_states_sum == expected.stats.active_states_sum
    assert len(engine.kernel._c_arrays["succ_packed"]) < 2 * len(automaton)
    with MatchingService(ScanConfig()) as service:
        served = service.scan(automaton, data)
    assert served.backends == ["native"]
    assert _keys(served.reports) == _keys(expected.reports)


# -- tables / artifact interchange -----------------------------------------


def test_artifact_round_trip_with_native_backend():
    """compile -> artifact bytes -> engine, recorded backend "native":
    the loaded engine is exact.  A host without the library compiles
    and loads the sparse kernel from the same tables."""
    nfa = compile_regex_set(RULES, name="native-artifact")
    compiled = compile_ruleset(nfa, backend="native")
    artifact = CompiledArtifact.from_compiled(compiled)
    loaded = CompiledArtifact.from_bytes(artifact.to_bytes()).validate()
    assert loaded.backend == "native"
    expected_name = "native" if native_available() else "sparse"
    engine = loaded.engine()
    assert engine.backend_name == expected_name
    data = b"abcddxfoobarbaz123zqnd" * 10
    expected = oracle_run(nfa, data)
    result = engine.run(data)
    assert _keys(result.reports) == _keys(expected.reports)
    assert result.stats.num_reports == expected.num_reports


@needs_native
def test_artifact_bytes_do_not_depend_on_the_c_loop(monkeypatch):
    """A native compile on a host without the C loop (it runs the
    sparse kernel) writes the same bytes as one with it, and the
    artifact loads on the C loop wherever the loop loads."""
    nfa = compile_regex_set(RULES, name="host-independent")
    with_loop = CompiledArtifact.from_compiled(
        compile_ruleset(nfa, backend="native")
    ).to_bytes()
    monkeypatch.setenv(native_module.ENV_SWITCH, "0")
    native_module._reset_probe_cache()
    try:
        compiled = compile_ruleset(nfa, backend="native")
        assert compiled.kernel.name == "sparse"
        without_loop = CompiledArtifact.from_compiled(compiled).to_bytes()
    finally:
        monkeypatch.undo()
        native_module._reset_probe_cache()
    assert without_loop == with_loop
    engine = CompiledArtifact.from_bytes(without_loop).engine()
    assert engine.kernel.name == "native"
    data = b"abcddxfoobarbaz123zqnd" * 10
    assert _keys(engine.run(data).reports) == _keys(oracle_run(nfa, data).reports)


def test_auto_artifact_engine_resolves_at_load_time():
    """An artifact compiled with backend="auto" records "auto", so
    loading it re-runs the policy on the loading host, as asking for
    "auto" again does."""
    nfa = dense_activity_automaton(48, chain_length=16, match_width=230)
    compiled = compile_ruleset(nfa, backend="auto")
    loaded = CompiledArtifact.from_bytes(
        CompiledArtifact.from_compiled(compiled).to_bytes()
    )
    assert loaded.backend == "auto"
    here = choose_backend_name()
    assert loaded.engine().backend_name == here
    assert loaded.engine(backend="auto").backend_name == here
