"""Tests for the homogeneous NFA model."""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.automata.nfa import Automaton, StartKind
from repro.automata.striding import stride2
from repro.automata.symbols import SymbolClass
from repro.compile.fingerprint import component_fingerprint, ruleset_fingerprint
from repro.errors import AutomatonError


def chain(text: str, name: str = "chain") -> Automaton:
    """Linear automaton matching `text` (anchored), reporting at the end."""
    nfa = Automaton(name=name)
    prev = None
    for i, ch in enumerate(text):
        ste = nfa.add_state(
            SymbolClass.from_bytes(ch),
            start=StartKind.START_OF_DATA if i == 0 else StartKind.NONE,
            reporting=i == len(text) - 1,
        )
        if prev is not None:
            nfa.add_transition(prev, ste)
        prev = ste
    return nfa


class TestConstruction:
    def test_ids_are_dense(self):
        nfa = chain("abc")
        assert [s.ste_id for s in nfa.states] == [0, 1, 2]

    def test_add_state_parses_strings(self):
        nfa = Automaton()
        ste = nfa.add_state("[0-9]", start=StartKind.ALL_INPUT, reporting=True)
        assert len(ste.symbol_class) == 10

    def test_empty_class_rejected(self):
        nfa = Automaton()
        with pytest.raises(AutomatonError):
            nfa.add_state(SymbolClass.empty())

    def test_transition_unknown_state_rejected(self):
        nfa = chain("ab")
        with pytest.raises(AutomatonError):
            nfa.add_transition(0, 5)

    def test_transition_idempotent(self):
        nfa = chain("ab")
        nfa.add_transition(0, 1)
        nfa.add_transition(0, 1)
        assert nfa.num_transitions() == 1

    def test_accepts_ste_objects(self):
        nfa = Automaton()
        a = nfa.add_state("a", start=StartKind.ALL_INPUT)
        b = nfa.add_state("b", reporting=True)
        nfa.add_transition(a, b)
        assert nfa.successors(0) == frozenset([1])


class TestAccessors:
    def test_successors_predecessors(self):
        nfa = chain("abc")
        assert nfa.successors(0) == frozenset([1])
        assert nfa.predecessors(2) == frozenset([1])
        assert nfa.predecessors(0) == frozenset()

    def test_transitions_sorted(self):
        nfa = Automaton()
        for i in range(3):
            nfa.add_state("a", start=StartKind.ALL_INPUT, reporting=i == 0)
        nfa.add_transition(0, 2)
        nfa.add_transition(0, 1)
        assert list(nfa.transitions()) == [(0, 1), (0, 2)]

    def test_start_and_reporting_lists(self):
        nfa = chain("ab")
        assert [s.ste_id for s in nfa.start_states()] == [0]
        assert [s.ste_id for s in nfa.reporting_states()] == [1]

    def test_alphabet_union(self):
        nfa = chain("ab")
        assert set(nfa.alphabet()) == {ord("a"), ord("b")}

    def test_average_symbol_class_size(self):
        nfa = Automaton()
        nfa.add_state("[ab]", start=StartKind.ALL_INPUT, reporting=True)
        nfa.add_state("[abcd]")
        nfa.add_transition(0, 1)
        assert nfa.average_symbol_class_size() == 3.0


class TestValidation:
    def test_valid_chain_passes(self):
        chain("hello").validate()

    def test_empty_rejected(self):
        with pytest.raises(AutomatonError, match="no states"):
            Automaton().validate()

    def test_no_start_rejected(self):
        nfa = Automaton()
        nfa.add_state("a", reporting=True)
        with pytest.raises(AutomatonError, match="no start state"):
            nfa.validate()

    def test_no_report_rejected(self):
        nfa = Automaton()
        nfa.add_state("a", start=StartKind.ALL_INPUT)
        with pytest.raises(AutomatonError, match="no reporting state"):
            nfa.validate()

    def test_unreachable_rejected(self):
        nfa = chain("ab")
        nfa.add_state("z")  # orphan
        with pytest.raises(AutomatonError, match="unreachable"):
            nfa.validate()

    def test_unreachable_states_reported(self):
        nfa = chain("ab")
        nfa.add_state("z")
        assert nfa.unreachable_states() == {2}


class TestMergeAndSub:
    def test_merge_remaps_ids(self):
        a = chain("ab", name="a")
        b = chain("cd", name="b")
        remap = a.merge(b)
        assert remap == {0: 2, 1: 3}
        assert a.successors(2) == frozenset([3])
        assert len(a) == 4

    def test_merge_preserves_flags(self):
        a = chain("ab")
        b = chain("cd")
        a.merge(b)
        assert a.states[2].start is StartKind.START_OF_DATA
        assert a.states[3].reporting

    def test_subautomaton(self):
        nfa = chain("abcd")
        sub = nfa.subautomaton([1, 2])
        assert len(sub) == 2
        assert sub.successors(0) == frozenset([1])
        assert set(sub.states[0].symbol_class) == {ord("b")}

    def test_subautomaton_drops_external_edges(self):
        nfa = chain("abcd")
        sub = nfa.subautomaton([0, 3])
        assert sub.num_transitions() == 0


class TestSealAndMemo:
    """An automaton is named once: its fingerprint and successor CSR
    are memoized, and the first read of either seals it."""

    def test_ste_is_frozen(self):
        ste = chain("ab").states[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            ste.reporting = True

    @pytest.mark.parametrize(
        "read", [lambda a: a.fingerprint, lambda a: a.successor_csr()]
    )
    def test_first_read_seals(self, read):
        nfa = chain("ab")
        nfa.add_state("c")
        nfa.add_transition(1, 2)
        nfa.merge(chain("de"))
        read(nfa)
        with pytest.raises(AutomatonError, match="sealed"):
            nfa.add_state("z")
        with pytest.raises(AutomatonError, match="sealed"):
            nfa.add_transition(0, 0)
        with pytest.raises(AutomatonError, match="sealed"):
            nfa.merge(chain("xy"))
        assert len(nfa) == 5 and nfa.num_transitions() == 3

    def test_reads_are_memoized(self):
        nfa = chain("abc")
        assert nfa.successor_csr() is nfa.successor_csr()
        offsets, targets = nfa.successor_csr()
        assert offsets.tolist() == [0, 1, 2, 2]
        assert targets.tolist() == [1, 2]
        assert nfa.fingerprint is nfa.fingerprint

    def test_fingerprint_is_the_ruleset_fingerprint(self):
        nfa = chain("abc")
        assert nfa.fingerprint == ruleset_fingerprint(nfa)
        # the component form runs the same serializer over chosen ids
        assert nfa.fingerprint == component_fingerprint(nfa, [0, 1, 2])
        assert nfa.fingerprint == chain("abc", name="other").fingerprint

    def test_sealed_automaton_pickles_with_its_memo(self):
        nfa = chain("abc")
        fingerprint = nfa.fingerprint
        offsets, targets = nfa.successor_csr()
        clone = pickle.loads(pickle.dumps(nfa))
        assert clone == nfa
        assert clone._memo["fingerprint"] == fingerprint
        assert np.array_equal(clone.successor_csr()[0], offsets)
        assert np.array_equal(clone.successor_csr()[1], targets)
        with pytest.raises(AutomatonError, match="sealed"):
            clone.add_state("z")

    def test_strided_automaton_seals_on_csr_read(self):
        strided = stride2(chain("abc"))
        strided.add_transition(0, 0)
        strided.successor_csr()
        with pytest.raises(AutomatonError, match="sealed"):
            strided.add_transition(0, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            strided.states[0].reporting = True
