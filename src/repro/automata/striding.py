"""Temporal 2-striding: one automaton step per *pair* of input symbols.

Multi-stride processing (Becchi & Crowley) raises throughput by
consuming k symbols per cycle at the cost of a larger alphabet
(``256^k``) and more states.  The paper evaluates 2-stride CAMA against
4-stride Impala (Fig. 13); both start from this transform.

For a homogeneous NFA, every 2-strided state corresponds to a *pair* of
original states matched at the odd/even sub-positions of one stride, so
its 16-bit symbol class is always a single rectangle ``C1 x C2``.  We
represent that exactly with :class:`ProductClass` instead of a 65536-bit
mask.

Construction (language-preserving, proven by the equivalence tests):

* pair state ``(u, v)`` for every transition ``u -> v``: matched when a
  stride's first symbol is in ``C(u)`` and its second in ``C(v)``;
* entry state ``(*, v)`` for every start state ``v``: a match whose
  first matched symbol falls on the *second* half of a stride;
* exit state ``(u, *)`` for every reporting state ``u``: a match whose
  last symbol falls on the *first* half of a stride.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.automata.nfa import STE, Automaton, StartKind, _Graph
from repro.automata.symbols import SymbolClass
from repro.errors import AutomatonError


@dataclass(frozen=True)
class ProductClass:
    """A 16-bit symbol class of the form ``first x second``."""

    first: SymbolClass
    second: SymbolClass

    def __contains__(self, pair: tuple[int, int]) -> bool:
        a, b = pair
        return a in self.first and b in self.second

    def __len__(self) -> int:
        return len(self.first) * len(self.second)

    def __repr__(self) -> str:
        return f"ProductClass({self.first.to_anml()}, {self.second.to_anml()})"


@dataclass(frozen=True)
class StridedSTE:
    """A state of a 2-strided automaton."""

    ste_id: int
    product: ProductClass
    start: StartKind = StartKind.NONE
    reporting: bool = False
    #: original reporting state this report corresponds to, if reporting
    report_origin: int | None = None
    #: True when the report fires on the first sub-symbol (odd position)
    reports_on_first_half: bool = False


@dataclass
class StridedAutomaton(_Graph):
    """A homogeneous NFA over 16-bit (symbol-pair) inputs, sealed by its
    first :meth:`successor_csr` read like an :class:`Automaton`."""

    name: str
    states: list[StridedSTE] = field(default_factory=list)
    _successors: list[set[int]] = field(default_factory=list)
    _memo: dict = field(default_factory=dict, repr=False, compare=False)

    def add_state(
        self,
        product: ProductClass,
        *,
        start: StartKind = StartKind.NONE,
        reporting: bool = False,
        report_origin: int | None = None,
        reports_on_first_half: bool = False,
    ) -> StridedSTE:
        return self._append_state(
            StridedSTE(
                ste_id=len(self.states),
                product=product,
                start=start,
                reporting=reporting,
                report_origin=report_origin,
                reports_on_first_half=reports_on_first_half,
            )
        )

    def add_transition(self, src: int, dst: int) -> None:
        self._link(src, dst, "strided transition")


def stride2(automaton: Automaton) -> StridedAutomaton:
    """Build the 2-stride automaton. Inputs must be padded to even length
    (use :func:`pad_input`)."""
    universe = SymbolClass.universe()
    out = StridedAutomaton(name=f"{automaton.name}.stride2")

    def start_kind_of(u: STE) -> StartKind:
        return u.start

    # pair states, keyed by (u, v) transition
    pair_id: dict[tuple[int, int], int] = {}
    for u, v in automaton.transitions():
        su, sv = automaton.states[u], automaton.states[v]
        ste = out.add_state(
            ProductClass(su.symbol_class, sv.symbol_class),
            start=start_kind_of(su),
            reporting=sv.reporting,
            report_origin=v if sv.reporting else None,
        )
        pair_id[(u, v)] = ste.ste_id

    # Entry states (*, v): a match whose first symbol is the second half
    # of a stride.  Only all-input starts can fire there; a
    # start-of-data state is enabled solely on the very first symbol,
    # which is always a first half.
    entry_id: dict[int, int] = {}
    for sv in automaton.start_states():
        if sv.start is not StartKind.ALL_INPUT:
            continue
        ste = out.add_state(
            ProductClass(universe, sv.symbol_class),
            start=StartKind.ALL_INPUT,
            reporting=sv.reporting,
            report_origin=sv.ste_id if sv.reporting else None,
        )
        entry_id[sv.ste_id] = ste.ste_id

    # exit states (u, *) for reporting states u (match ends mid-stride)
    exit_id: dict[int, int] = {}
    for su in automaton.reporting_states():
        ste = out.add_state(
            ProductClass(su.symbol_class, universe),
            start=start_kind_of(su),
            reporting=True,
            report_origin=su.ste_id,
            reports_on_first_half=True,
        )
        exit_id[su.ste_id] = ste.ste_id

    # transitions: any strided state whose second half is y feeds every
    # strided state whose first half is a successor u of y.
    ends_at: dict[int, list[int]] = {}
    for (u, v), sid in pair_id.items():
        ends_at.setdefault(v, []).append(sid)
    for v, sid in entry_id.items():
        ends_at.setdefault(v, []).append(sid)

    for y, sources in ends_at.items():
        for u in automaton.successors(y):
            targets: list[int] = []
            for v in automaton.successors(u):
                targets.append(pair_id[(u, v)])
            if u in exit_id:
                targets.append(exit_id[u])
            for src in sources:
                for dst in targets:
                    out.add_transition(src, dst)
    return out


def pad_input(data: bytes, pad_symbol: int = 0) -> bytes:
    """Pad ``data`` to even length so it splits into strides."""
    if len(data) % 2:
        return data + bytes([pad_symbol])
    return data


def stride_pairs(data: bytes) -> list[tuple[int, int]]:
    """Split an even-length byte stream into (first, second) pairs."""
    if len(data) % 2:
        raise AutomatonError("2-stride input must have even length; pad first")
    return [(data[i], data[i + 1]) for i in range(0, len(data), 2)]
