"""Homogeneous (ANML-style) non-deterministic finite automata.

A homogeneous NFA attaches the accepted symbol class to the *state*
rather than to each edge: a state s with class C(s) becomes active at
cycle t iff (a) some predecessor was active at cycle t-1 (or s is a
start state enabled at t) and (b) the input symbol at t is in C(s).
This is the automaton model of the Micron AP, Cache Automaton, Impala,
eAP and CAMA; the paper calls states *STEs* (state transition
elements).
"""

from __future__ import annotations

import enum
import hashlib
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

from repro.automata.symbols import SymbolClass
from repro.errors import AutomatonError


class StartKind(enum.Enum):
    """When a state is self-enabled, independent of its predecessors."""

    NONE = "none"
    #: enabled on every input symbol (ANML ``start-of-input="all-input"``)
    ALL_INPUT = "all-input"
    #: enabled only on the first symbol of the stream
    START_OF_DATA = "start-of-data"


@dataclass(frozen=True)
class STE:
    """One state transition element of a homogeneous NFA.

    Frozen: an automaton's fingerprint is memoized, so a state can only
    change by building a new automaton.

    Attributes:
        ste_id: dense integer id, equal to the state's index in its
            :class:`Automaton`.
        symbol_class: the set of symbols this state matches.
        start: whether/how the state self-enables.
        reporting: whether an activation of this state emits a report.
        report_code: opaque label attached to reports (ANML allows one).
        name: optional human-readable name preserved from ANML/MNRL.
    """

    ste_id: int
    symbol_class: SymbolClass
    start: StartKind = StartKind.NONE
    reporting: bool = False
    report_code: str | None = None
    name: str | None = None

    def label(self) -> str:
        return self.name if self.name is not None else f"ste{self.ste_id}"


def language_digest(
    automaton: "Automaton",
    ids: "list[int] | None" = None,
    suffix: bytes = b"",
) -> str:
    """SHA-256 hex of an automaton's language-relevant content.

    Serializes every state's symbol-class mask, start kind, reporting
    flag and report code, then the transition relation, then
    ``suffix``; names are left out, so the same rules under another
    label digest alike.  With ``ids`` (ascending), the digest is that of
    ``automaton.subautomaton(ids)`` without building it.  The one
    serializer behind :attr:`Automaton.fingerprint` and
    :mod:`repro.compile.fingerprint`.
    """
    keep = range(len(automaton.states)) if ids is None else ids
    local = None if ids is None else {old: new for new, old in enumerate(ids)}
    parts = [len(keep).to_bytes(8, "little")]
    for old in keep:
        ste = automaton.states[old]
        # variable-length fields are length-prefixed so shifted record
        # boundaries cannot make different rulesets serialize alike
        start = ste.start.value.encode()
        code = (ste.report_code or "").encode()
        parts += (
            ste.symbol_class.mask.to_bytes(32, "little"),
            len(start).to_bytes(1, "little"),
            start,
            b"\x01" if ste.reporting else b"\x00",
            len(code).to_bytes(4, "little"),
            code,
        )
    # sources in local-id order, successors ascending: the remap is
    # monotonic, so this is subautomaton(ids).transitions()'s order
    for u, old in enumerate(keep):
        src = u.to_bytes(8, "little")
        for v in sorted(automaton._successors[old]):
            if local is not None:
                v = local.get(v)
                if v is None:
                    continue
            parts += (src, v.to_bytes(8, "little"))
    parts.append(suffix)
    return hashlib.sha256(b"".join(parts)).hexdigest()


class _Graph:
    """Dense-id states plus forward adjacency, and the memo of values
    derived from them.

    The first read of a memoized value *seals* the graph: adding a
    state or a transition afterwards raises, so nothing compiled from
    it can drift from it.  The memo holds plain values (a hex string,
    ndarrays), so a sealed graph pickles with it; two threads racing a
    first read may both compute a value, and store the same one.
    """

    name: str
    states: list
    _successors: list[set[int]]
    _memo: dict

    def _derived(self, key: str, build):
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = build()
        return value

    def _check_unsealed(self) -> None:
        if self._memo:
            raise AutomatonError(
                f"{self.name}: automaton is sealed (its fingerprint or "
                f"successor CSR has been read); build a new one instead"
            )

    def _append_state(self, ste):
        self._check_unsealed()
        self.states.append(ste)
        self._successors.append(set())
        return ste

    def _link(self, u: int, v: int, what: str) -> None:
        self._check_unsealed()
        n = len(self.states)
        if not (0 <= u < n and 0 <= v < n):
            raise AutomatonError(f"{what} ({u}, {v}) references unknown state")
        self._successors[u].add(v)

    def successor_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """The successor CSR ``(offsets, targets)``, built once.

        ``targets[offsets[s]:offsets[s + 1]]`` holds state ``s``'s
        successors in ascending order.  Every kernel compiled from this
        graph shares the arrays, so they are read-only.  Seals the graph.
        """
        return self._derived("csr", self._build_csr)

    def _build_csr(self) -> tuple[np.ndarray, np.ndarray]:
        offsets = np.zeros(len(self._successors) + 1, dtype=np.int64)
        flat: list[int] = []
        for s, succ in enumerate(self._successors):
            flat.extend(sorted(succ))
            offsets[s + 1] = len(flat)
        return offsets, np.asarray(flat, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.states)

    def successors(self, ste_id: int) -> frozenset[int]:
        return frozenset(self._successors[ste_id])

    def transitions(self) -> Iterator[tuple[int, int]]:
        """Yield all transitions as (src, dst) pairs."""
        for u, succ in enumerate(self._successors):
            for v in sorted(succ):
                yield u, v

    def num_transitions(self) -> int:
        return sum(len(s) for s in self._successors)


@dataclass
class Automaton(_Graph):
    """A homogeneous NFA: STEs plus an STE-to-STE transition relation.

    Transitions are stored as forward adjacency ``successors[u] = {v}``.
    States are created through :meth:`add_state` so ids stay dense, which
    the simulator and mapper rely on.  Reading :attr:`fingerprint` or
    :meth:`successor_csr` seals the automaton (see :class:`_Graph`).
    """

    name: str = "automaton"
    states: list[STE] = field(default_factory=list)
    _successors: list[set[int]] = field(default_factory=list)
    _memo: dict = field(default_factory=dict, repr=False, compare=False)

    # -- construction ---------------------------------------------------
    def add_state(
        self,
        symbol_class: SymbolClass | str,
        *,
        start: StartKind = StartKind.NONE,
        reporting: bool = False,
        report_code: str | None = None,
        name: str | None = None,
    ) -> STE:
        """Create a state and return it; its id is assigned densely."""
        if isinstance(symbol_class, str):
            symbol_class = SymbolClass.parse(symbol_class)
        if not symbol_class:
            raise AutomatonError("a state must accept at least one symbol")
        return self._append_state(
            STE(
                ste_id=len(self.states),
                symbol_class=symbol_class,
                start=start,
                reporting=reporting,
                report_code=report_code,
                name=name,
            )
        )

    def add_transition(self, src: int | STE, dst: int | STE) -> None:
        """Add the transition ``src -> dst`` (idempotent)."""
        u = src.ste_id if isinstance(src, STE) else src
        v = dst.ste_id if isinstance(dst, STE) else dst
        self._link(u, v, "transition")

    # -- accessors ------------------------------------------------------
    @property
    def fingerprint(self) -> str:
        """The rules' name: :func:`language_digest` of the automaton.

        Keys the service's ruleset table and every artifact built from
        these rules.  Computed on first read, which seals the automaton.
        """
        return self._derived("fingerprint", lambda: language_digest(self))

    def predecessors(self, ste_id: int) -> frozenset[int]:
        return frozenset(
            u for u in range(len(self.states)) if ste_id in self._successors[u]
        )

    def start_states(self) -> list[STE]:
        return [s for s in self.states if s.start is not StartKind.NONE]

    def reporting_states(self) -> list[STE]:
        return [s for s in self.states if s.reporting]

    # -- validation -----------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`AutomatonError` unless the automaton is usable.

        A usable automaton has at least one start state, at least one
        reporting state, dense consistent ids, and no state that is
        unreachable from every start state.
        """
        if not self.states:
            raise AutomatonError(f"{self.name}: automaton has no states")
        for i, ste in enumerate(self.states):
            if ste.ste_id != i:
                raise AutomatonError(
                    f"{self.name}: state at index {i} has id {ste.ste_id}"
                )
            if not ste.symbol_class:
                raise AutomatonError(
                    f"{self.name}: state {ste.label()} has an empty symbol class"
                )
        if not self.start_states():
            raise AutomatonError(f"{self.name}: automaton has no start state")
        if not self.reporting_states():
            raise AutomatonError(f"{self.name}: automaton has no reporting state")
        unreachable = self.unreachable_states()
        if unreachable:
            sample = ", ".join(str(i) for i in sorted(unreachable)[:5])
            raise AutomatonError(
                f"{self.name}: {len(unreachable)} states unreachable from any "
                f"start state (e.g. {sample})"
            )

    def unreachable_states(self) -> set[int]:
        """Ids of states not reachable from any start state."""
        seen: set[int] = set()
        frontier = [s.ste_id for s in self.start_states()]
        seen.update(frontier)
        while frontier:
            nxt: list[int] = []
            for u in frontier:
                for v in self._successors[u]:
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        return set(range(len(self.states))) - seen

    # -- convenience ----------------------------------------------------
    def merge(self, other: "Automaton") -> dict[int, int]:
        """Append ``other``'s states/transitions; return old-id -> new-id."""
        self._check_unsealed()
        offset = len(self.states)
        remap: dict[int, int] = {}
        for ste in other.states:
            new = self.add_state(
                ste.symbol_class,
                start=ste.start,
                reporting=ste.reporting,
                report_code=ste.report_code,
                name=ste.name,
            )
            remap[ste.ste_id] = new.ste_id
        for u, v in other.transitions():
            self.add_transition(remap[u], remap[v])
        if offset == 0 and not remap:
            raise AutomatonError("cannot merge an empty automaton")
        return remap

    def subautomaton(self, state_ids: Iterable[int], name: str | None = None) -> "Automaton":
        """The induced sub-automaton on ``state_ids`` (ids are re-densified)."""
        keep = sorted(set(state_ids))
        remap = {old: new for new, old in enumerate(keep)}
        sub = Automaton(name=name or f"{self.name}.sub")
        for old in keep:
            ste = self.states[old]
            sub.add_state(
                ste.symbol_class,
                start=ste.start,
                reporting=ste.reporting,
                report_code=ste.report_code,
                name=ste.name,
            )
        # only the kept states' successors, by source then ascending
        # successor: language_digest(ids=keep) walks the same order
        for u, old in enumerate(keep):
            for v in sorted(self._successors[old]):
                new = remap.get(v)
                if new is not None:
                    sub.add_transition(u, new)
        return sub

    def average_symbol_class_size(self) -> float:
        """Mean |C(s)| over states — the paper's "symbol class size"."""
        if not self.states:
            return 0.0
        return sum(len(s.symbol_class) for s in self.states) / len(self.states)

    def alphabet(self) -> SymbolClass:
        """Union of all symbol classes — the automaton's live alphabet."""
        mask = 0
        for ste in self.states:
            mask |= ste.symbol_class.mask
        return SymbolClass(mask)

    def __repr__(self) -> str:
        return (
            f"Automaton({self.name!r}, states={len(self.states)}, "
            f"transitions={self.num_transitions()})"
        )
