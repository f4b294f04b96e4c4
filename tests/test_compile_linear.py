"""A cold compile is linear in the ruleset: differential and cost tests.

The component split, symbol clustering, match packing and store
eviction each used to redo whole-ruleset work once per component.  Their
rewrites must produce exactly what the old definitions did, so those
definitions are kept here as references and compared on generated
inputs; the cost tests count calls instead of timing anything.
"""

import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata import compile_regex_set
from repro.automata.nfa import Automaton, StartKind
from repro.automata.symbols import SymbolClass, membership_matrix
from repro.compile import (
    ArtifactStore,
    CompiledArtifact,
    IncrementalCompiler,
    PipelineOptions,
    compile_ruleset,
)
from repro.core.encoding.clustering import cluster_symbols, cooccurrence_matrix
from repro.errors import EncodingError
from repro.sim.backends import bitwords
from repro.sim.backends.base import match_table

# -- the old definitions, kept as references ---------------------------


def reference_subautomaton(automaton, state_ids, name=None):
    keep = sorted(set(state_ids))
    remap = {old: new for new, old in enumerate(keep)}
    sub = Automaton(name=name or f"{automaton.name}.sub")
    for old in keep:
        ste = automaton.states[old]
        sub.add_state(
            ste.symbol_class,
            start=ste.start,
            reporting=ste.reporting,
            report_code=ste.report_code,
            name=ste.name,
        )
    for u, v in automaton.transitions():
        if u in remap and v in remap:
            sub.add_transition(remap[u], remap[v])
    return sub


def reference_cluster_symbols(
    symbol_classes, alphabet, cluster_capacity, max_clusters
):
    if cluster_capacity < 1:
        raise EncodingError("cluster capacity must be positive")
    symbols = list(alphabet)
    if len(symbols) > cluster_capacity * max_clusters:
        raise EncodingError(
            f"alphabet of {len(symbols)} symbols does not fit "
            f"{max_clusters} clusters of {cluster_capacity}"
        )
    matrix = cooccurrence_matrix(symbol_classes)
    frequency = matrix.diagonal().copy()
    unassigned = set(symbols)
    clusters = []
    while unassigned:
        seed = max(unassigned, key=lambda s: (frequency[s], -s))
        cluster = [seed]
        unassigned.remove(seed)
        while len(cluster) < cluster_capacity and unassigned:
            members = np.fromiter(cluster, dtype=np.int64)
            candidates = np.fromiter(sorted(unassigned), dtype=np.int64)
            affinity = matrix[np.ix_(candidates, members)].sum(axis=1)
            if affinity.max() > 0:
                best = int(candidates[int(affinity.argmax())])
            else:
                best = max(unassigned, key=lambda s: (frequency[s], -s))
            cluster.append(best)
            unassigned.remove(best)
        clusters.append(cluster)
        if len(clusters) > max_clusters:
            raise EncodingError("clustering exceeded the cluster budget")
    return clusters


def reference_pack_bool(mask):
    n = len(mask)
    padded = np.zeros(bitwords.num_words(n) * bitwords.WORD_BITS, dtype=np.uint8)
    padded[:n] = mask
    return np.packbits(padded, bitorder="little").view(np.uint64)


def reference_match_table(automaton):
    table = np.zeros((256, len(automaton)), dtype=bool)
    for ste in automaton.states:
        for symbol in ste.symbol_class:
            table[symbol, ste.ste_id] = True
    return table


def reference_successor_rows(offsets, targets, n):
    rows = np.zeros((n, bitwords.num_words(n) * 8), dtype=np.uint8)
    for s in range(n):
        succ = targets[offsets[s] : offsets[s + 1]]
        if succ.size:
            np.bitwise_or.at(
                rows[s], succ >> 3, np.left_shift(1, succ & 7).astype(np.uint8)
            )
    return rows.view(np.uint64)


# -- generated inputs ----------------------------------------------------

_masks = st.integers(min_value=1, max_value=(1 << 256) - 1)


@st.composite
def automata_with_ids(draw):
    """A random automaton and a random subset of its ids."""
    n = draw(st.integers(min_value=1, max_value=24))
    automaton = Automaton(name="gen")
    for i in range(n):
        reporting = draw(st.booleans())
        automaton.add_state(
            SymbolClass(draw(_masks)),
            start=draw(st.sampled_from(list(StartKind))),
            reporting=reporting,
            report_code=f"r{i % 3}" if reporting else None,
            name=draw(st.sampled_from([None, f"s{i}"])),
        )
    pairs = st.tuples(
        st.integers(min_value=0, max_value=n - 1),
        st.integers(min_value=0, max_value=n - 1),
    )
    for u, v in draw(st.lists(pairs, max_size=4 * n)):
        automaton.add_transition(u, v)
    ids = draw(st.lists(st.integers(min_value=0, max_value=n - 1), max_size=n))
    return automaton, ids


def _shape(automaton):
    """Everything observable of an automaton, successor sets in their
    iteration order included."""
    return (
        automaton.name,
        automaton.states,
        list(automaton.transitions()),
        [list(succ) for succ in automaton._successors],
    )


class TestSubautomaton:
    @settings(max_examples=150, deadline=None)
    @given(automata_with_ids())
    def test_matches_the_whole_graph_walk(self, case):
        automaton, ids = case
        new = automaton.subautomaton(ids, name="x")
        old = reference_subautomaton(automaton, ids, name="x")
        assert _shape(new) == _shape(old)
        assert new.fingerprint == old.fingerprint

    @settings(max_examples=50, deadline=None)
    @given(automata_with_ids())
    def test_keyed_digest_is_the_sub_automatons(self, case):
        from repro.automata.nfa import language_digest

        automaton, ids = case
        keep = sorted(set(ids))
        assert language_digest(automaton, keep) == (
            reference_subautomaton(automaton, keep).fingerprint
        )


# a small symbol pool makes frequency and affinity ties common
_pool_classes = st.lists(
    st.sets(st.integers(min_value=0, max_value=11), min_size=1, max_size=5),
    max_size=12,
)


def _classes(symbol_sets, repeat):
    classes = [SymbolClass.from_symbols(s) for s in symbol_sets]
    # duplicates weight a class, and tie frequencies across symbols
    return classes + classes[:repeat]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except EncodingError as exc:
        return ("EncodingError", str(exc))


class TestClustering:
    @settings(max_examples=300, deadline=None)
    @given(
        _pool_classes,
        st.integers(min_value=0, max_value=4),
        # alphabet symbols beyond the classes' pool co-occur with
        # nothing: the zero-affinity fill
        st.sets(st.integers(min_value=0, max_value=15), max_size=16),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=12),
    )
    def test_matches_the_resorting_loop(
        self, symbol_sets, repeat, alphabet, capacity, max_clusters
    ):
        classes = _classes(symbol_sets, repeat)
        alpha = SymbolClass.from_symbols(alphabet)
        assert _outcome(
            cluster_symbols, classes, alpha, capacity, max_clusters
        ) == _outcome(
            reference_cluster_symbols, classes, alpha, capacity, max_clusters
        )

    def test_capacity_one_is_frequency_order(self):
        classes = _classes([{3, 4}, {4, 5}, {5}, {7}], 2)
        alpha = SymbolClass.from_symbols({1, 3, 4, 5, 7})
        clusters = cluster_symbols(classes, alpha, 1, 5)
        assert clusters == reference_cluster_symbols(classes, alpha, 1, 5)
        assert clusters == [[4], [5], [3], [7], [1]]

    def test_budget_errors(self):
        alpha = SymbolClass.from_symbols(range(10))
        for capacity, max_clusters in ((0, 4), (3, 3), (4, 2)):
            assert _outcome(cluster_symbols, [], alpha, capacity, max_clusters) == (
                _outcome(reference_cluster_symbols, [], alpha, capacity, max_clusters)
            )
            with pytest.raises(EncodingError):
                cluster_symbols([], alpha, capacity, max_clusters)

    def test_registry_families(self):
        from repro.core.encoding.selection import class_statistics, stored_classes
        from repro.workloads.registry import get_benchmark

        for name in ("Snort", "Ranges1", "Dotstar03"):
            states = get_benchmark(name, 1 / 64).automaton.states
            classes = [s.symbol_class for s in states]
            alpha, _ = class_statistics(classes)
            stored = stored_classes(classes, alpha)
            assert cluster_symbols(stored, alpha, 16, 64) == (
                reference_cluster_symbols(stored, alpha, 16, 64)
            ), name


class TestPacking:
    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 130])
    def test_rows_pack_as_stacked_single_rows(self, n):
        rng = np.random.default_rng(n)
        table = rng.random((256, n)) < 0.3
        got = bitwords.pack_bool_rows(table)
        expected = np.stack([reference_pack_bool(row) for row in table])
        assert got.dtype == np.uint64 and got.shape == expected.shape
        np.testing.assert_array_equal(got, expected)

    @settings(max_examples=100, deadline=None)
    @given(automata_with_ids())
    def test_match_table_and_successor_rows(self, case):
        automaton, _ = case
        got = match_table(automaton)
        assert got.flags.c_contiguous
        np.testing.assert_array_equal(got, reference_match_table(automaton))
        offsets, targets = automaton.successor_csr()
        n = len(automaton)
        np.testing.assert_array_equal(
            bitwords.successor_rows(offsets, targets, n),
            reference_successor_rows(offsets, targets, n),
        )

    def test_membership_round_trip(self):
        classes = [SymbolClass.from_symbols(s) for s in ({0}, {255}, range(256))]
        members = membership_matrix(classes)
        assert members.shape == (3, 256)
        assert [SymbolClass.from_membership(row) for row in members] == classes
        assert membership_matrix([]).shape == (0, 256)


# -- linear cost, counted --------------------------------------------------

COMPONENTS = 12


def _many_components():
    return compile_regex_set(
        {f"p{i}": f"a{i}b+c{i}" for i in range(COMPONENTS)}, name="many"
    )


def test_cold_compile_walks_each_component_once(tmp_path, monkeypatch):
    """No per-component walk of the parent's transitions, and one scan
    of the store directory for the whole write batch."""
    parent = _many_components()
    store = ArtifactStore(tmp_path)
    parent_walks = []
    in_split = []
    transitions = Automaton.transitions
    subautomaton = Automaton.subautomaton

    def counted_transitions(self):
        if in_split and self is parent:
            parent_walks.append(1)
        return transitions(self)

    def split(self, *args, **kwargs):
        in_split.append(1)
        try:
            return subautomaton(self, *args, **kwargs)
        finally:
            in_split.pop()

    scans = []
    glob = Path.glob

    def counted_glob(self, pattern):
        if self == store.root:
            scans.append(pattern)
        return glob(self, pattern)

    monkeypatch.setattr(Automaton, "transitions", counted_transitions)
    monkeypatch.setattr(Automaton, "subautomaton", split)
    monkeypatch.setattr(Path, "glob", counted_glob)
    composed = IncrementalCompiler(store).compile(parent)
    assert composed.compiled_components == COMPONENTS
    assert parent_walks == []
    assert len(scans) == 1
    assert len(store) == COMPONENTS


def _older_artifact(tag: str) -> CompiledArtifact:
    rules = compile_regex_set({tag: f"{tag}x+y"}, name=tag)
    return CompiledArtifact.from_compiled(compile_ruleset(rules, PipelineOptions()))


def test_batch_survives_a_budget_smaller_than_itself(tmp_path, monkeypatch):
    """The batch just written is kept whole; older unpinned artifacts
    still go, least recently used first, and pins still hold."""
    roomy = ArtifactStore(tmp_path)
    older = {tag: _older_artifact(tag) for tag in ("ab", "cd", "ef")}
    for when, (tag, artifact) in enumerate(older.items(), start=1):
        roomy.put(artifact)
        os.utime(roomy.path(artifact.key), (when * 1000, when * 1000))
    roomy.pin([older["cd"].key])
    # the same directory under a budget no component fits
    store = ArtifactStore(tmp_path, max_bytes=1)
    evicted = []
    unlink = Path.unlink

    def logged_unlink(self, *args, **kwargs):
        if self.parent == store.root and self.suffix == ".npz":
            evicted.append(self.stem)
        return unlink(self, *args, **kwargs)

    monkeypatch.setattr(Path, "unlink", logged_unlink)
    composed = IncrementalCompiler(store).compile(_many_components())
    assert composed.compiled_components == COMPONENTS
    assert evicted == [older["ab"].key, older["ef"].key]
    assert set(store.keys()) == set(composed.component_keys) | {older["cd"].key}
    assert store.stats.evictions == 2


def test_batch_writes_leave_the_store_lock_free(tmp_path, monkeypatch):
    """Another thread's get or pin waits for the eviction pass only,
    never for the batch's artifact writes."""
    store = ArtifactStore(tmp_path)
    held = []
    save = CompiledArtifact.save

    def checked_save(self, path):
        held.append(store._lock.locked())
        return save(self, path)

    monkeypatch.setattr(CompiledArtifact, "save", checked_save)
    composed = IncrementalCompiler(store).compile(_many_components())
    assert held == [False] * COMPONENTS
    assert set(store.keys()) == set(composed.component_keys)
