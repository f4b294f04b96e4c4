"""Synthetic automaton generators, one family per benchmark shape.

Every generator is deterministic in (profile, scale, seed) and produces
a valid homogeneous NFA whose per-state statistics track the published
numbers (asserted by the workload tests within tolerances) and whose
*structure* — component size, diagonal band, density — drives the
mapper the way the real benchmark drives the paper's (Table V).
"""

from __future__ import annotations

import random

from repro.automata.nfa import Automaton, StartKind
from repro.automata.symbols import SymbolClass
from repro.errors import ReproError
from repro.workloads.profiles import DEFAULT_SCALE, BenchmarkProfile


def _rng_symbols(rng: random.Random, alphabet: int) -> int:
    return rng.randrange(alphabet)


class _ClassPools:
    """Shared pools of multi-symbol and negated classes.

    Real benchmarks reuse a small set of character classes ([0-9],
    [a-f], amino-acid groups, frequent item sets, ...), which is what
    lets CAMA's frequency clustering co-locate their symbols and
    compress each class into one entry.  Drawing classes from pools —
    instead of fresh random sets per state — reproduces that property.
    """

    MULTI_POOL = 24
    NEGATED_POOL = 16

    def __init__(self, rng: random.Random, alphabet: int, params: dict) -> None:
        lo, hi = params.get("multi_size", (2, 6))
        self.multi: list[SymbolClass] = []
        for _ in range(self.MULTI_POOL):
            size = min(rng.randint(lo, hi), alphabet)
            if params.get("ranges"):
                start = rng.randrange(max(1, alphabet - size))
                self.multi.append(
                    SymbolClass.from_ranges((start, start + size - 1))
                )
            else:
                self.multi.append(
                    SymbolClass.from_symbols(rng.sample(range(alphabet), size))
                )
        nlo, nhi = params.get("negated_size", (1, 4))
        self.negated: list[SymbolClass] = []
        for _ in range(self.NEGATED_POOL):
            size = rng.randint(nlo, nhi)
            excluded = rng.sample(range(alphabet), min(size, alphabet - 1))
            base = SymbolClass.from_symbols(excluded).negate()
            if alphabet < 256:
                base = base & SymbolClass.from_ranges((0, alphabet - 1))
            self.negated.append(base)


def _pattern_class(
    rng: random.Random, alphabet: int, params: dict, pools: _ClassPools
) -> SymbolClass:
    """Draw one state's symbol class according to the family's mix."""
    roll = rng.random()
    dot_prob = params.get("dot_prob", 0.0)
    negated_prob = params.get("negated_prob", 0.0)
    multi_prob = params.get("multi_prob", 0.0)
    if roll < dot_prob:
        if alphabet >= 256:
            return SymbolClass.universe()
        return SymbolClass.from_ranges((0, alphabet - 1))
    roll -= dot_prob
    if roll < negated_prob:
        return rng.choice(pools.negated)
    roll -= negated_prob
    if roll < multi_prob:
        return rng.choice(pools.multi)
    return SymbolClass.from_symbols([_rng_symbols(rng, alphabet)])


def _add_chain(
    nfa: Automaton,
    rng: random.Random,
    length: int,
    alphabet: int,
    params: dict,
    pools: "_ClassPools",
    code: str,
) -> None:
    """One pattern = one chain CC, with optional dot-star bridges."""
    dotstar_prob = params.get("dotstar_prob", 0.0)
    prev = None
    dotstar_at = (
        rng.randint(1, max(1, length - 2))
        if rng.random() < dotstar_prob and length >= 4
        else None
    )
    for i in range(length):
        if i == dotstar_at:
            universe = (
                SymbolClass.universe()
                if alphabet >= 256
                else SymbolClass.from_ranges((0, alphabet - 1))
            )
            bridge = nfa.add_state(universe)
            nfa.add_transition(prev, bridge)
            nfa.add_transition(bridge, bridge)  # the .* self-loop
            prev = bridge
        ste = nfa.add_state(
            _pattern_class(rng, alphabet, params, pools),
            start=StartKind.ALL_INPUT if i == 0 else StartKind.NONE,
            reporting=i == length - 1,
            report_code=code if i == length - 1 else None,
        )
        if prev is not None:
            nfa.add_transition(prev, ste)
        prev = ste


def _generate_strings(profile: BenchmarkProfile, scale: float, seed: int) -> Automaton:
    """Pattern-set benchmarks: Brill, ClamAV, Snort, Ranges, SPM, TCP, ..."""
    rng = random.Random(seed)
    params = profile.params
    alphabet = params.get("alphabet_size", 256)
    target = profile.target_states(scale)
    nfa = Automaton(name=profile.name)
    pools = _ClassPools(rng, alphabet, params)

    if params.get("big_component"):
        # one >256-state component exercising the global switch (TCP,
        # Snort, Protomata and ClamAV show baseline/proposed globals)
        _add_chain(nfa, rng, 300, alphabet, params, pools, code="big")

    for index, _ in enumerate(range(10**6)):
        if len(nfa) >= target:
            break
        lo, hi = params["pattern_len"]
        _add_chain(
            nfa, rng, rng.randint(lo, hi), alphabet, params, pools,
            code=f"p{index}",
        )

    for _ in range(params.get("dense_ccs", 0)):
        _add_dense_component(
            nfa, rng, rng.randint(50, 70), alphabet, params, pools
        )
    return nfa


def _add_dense_component(
    nfa: Automaton,
    rng: random.Random,
    size: int,
    alphabet: int,
    params: dict,
    pools: "_ClassPools",
    jump_prob: float = 0.3,
) -> None:
    """A dense CC whose BFS band exceeds the RCB diagonal (FCB fodder).

    Chain backbone plus *local* long jumps (distance 44-70): the band
    exceeds CAMA's k_dia=43 so the component needs FCB mode, but cut
    sizes stay small so domains still pack tightly — the structure of
    the paper's dense benchmarks (their FCB domains are ~90% full).
    """
    first = len(nfa)
    for i in range(size):
        nfa.add_state(
            _pattern_class(rng, alphabet, params, pools),
            start=StartKind.ALL_INPUT if i == 0 else StartKind.NONE,
            reporting=i == size - 1,
            report_code="dense" if i == size - 1 else None,
        )
    for i in range(size - 1):
        # backbone keeps every state reachable from the start state
        nfa.add_transition(first + i, first + i + 1)
    for i in range(size):
        if rng.random() < jump_prob:
            dist = rng.randint(44, 70)
            j = i + dist if rng.random() < 0.5 else i - dist
            if 0 <= j < size:
                nfa.add_transition(first + i, first + j)


def _generate_dotstar(profile: BenchmarkProfile, scale: float, seed: int) -> Automaton:
    return _generate_strings(profile, scale, seed)


def _generate_negated_strings(
    profile: BenchmarkProfile, scale: float, seed: int
) -> Automaton:
    return _generate_strings(profile, scale, seed)


def _generate_hamming(profile: BenchmarkProfile, scale: float, seed: int) -> Automaton:
    """Hamming-distance grids: (position x errors) lattice per pattern."""
    rng = random.Random(seed)
    length = profile.params["pattern_len"]
    distance = profile.params["distance"]
    target = profile.target_states(scale)
    nfa = Automaton(name=profile.name)
    while len(nfa) < target:
        pattern = [rng.randrange(256) for _ in range(length)]
        grid: dict[tuple[int, int], int] = {}
        # only e <= i is reachable (an error consumes a position)
        for e in range(distance + 1):
            for i in range(e, length):
                ste = nfa.add_state(
                    SymbolClass.from_symbols([pattern[i]]),
                    start=StartKind.ALL_INPUT if i == 0 and e == 0 else StartKind.NONE,
                    reporting=i == length - 1,
                    report_code=f"d{e}" if i == length - 1 else None,
                )
                grid[(i, e)] = ste.ste_id
        for (i, e) in list(grid):
            if (i + 1, e) in grid:
                nfa.add_transition(grid[(i, e)], grid[(i + 1, e)])
            if (i + 1, e + 1) in grid:
                # a mismatch consumes one symbol and one error credit
                nfa.add_transition(grid[(i, e)], grid[(i + 1, e + 1)])
    return nfa


def _generate_levenshtein(
    profile: BenchmarkProfile, scale: float, seed: int
) -> Automaton:
    """Levenshtein lattices: like Hamming plus deletion edges."""
    rng = random.Random(seed)
    length = profile.params["pattern_len"]
    distance = profile.params["distance"]
    target = profile.target_states(scale)
    nfa = Automaton(name=profile.name)
    while len(nfa) < target:
        pattern = [rng.randrange(256) for _ in range(length)]
        grid: dict[tuple[int, int], int] = {}
        # only e <= i is reachable (errors consume pattern positions)
        for e in range(distance + 1):
            for i in range(e, length):
                ste = nfa.add_state(
                    SymbolClass.from_symbols([pattern[i]]),
                    start=StartKind.ALL_INPUT if i == 0 and e == 0 else StartKind.NONE,
                    reporting=i == length - 1,
                    report_code=f"d{e}" if i == length - 1 else None,
                )
                grid[(i, e)] = ste.ste_id
        for (i, e) in list(grid):
            if (i + 1, e) in grid:
                nfa.add_transition(grid[(i, e)], grid[(i + 1, e)])
            if (i + 1, e + 1) in grid:
                nfa.add_transition(grid[(i, e)], grid[(i + 1, e + 1)])
            if (i + 2, e + 1) in grid:
                # deletion: skip a pattern position
                nfa.add_transition(grid[(i, e)], grid[(i + 2, e + 1)])
    return nfa


def _generate_blockrings(
    profile: BenchmarkProfile, scale: float, seed: int
) -> Automaton:
    """Rings over a 2-symbol alphabet (ANMLZoo's synthetic BlockRings)."""
    ring_len = profile.params["ring_len"]
    target = profile.target_states(scale)
    nfa = Automaton(name=profile.name)
    rng = random.Random(seed)
    while len(nfa) < target:
        first = len(nfa)
        for i in range(ring_len):
            nfa.add_state(
                SymbolClass.from_symbols([rng.randrange(2)]),
                start=StartKind.ALL_INPUT if i == 0 else StartKind.NONE,
                reporting=i == ring_len - 1,
                report_code="ring" if i == ring_len - 1 else None,
            )
        for i in range(ring_len):
            nfa.add_transition(first + i, first + (i + 1) % ring_len)
    return nfa


def _generate_random_forest(
    profile: BenchmarkProfile, scale: float, seed: int
) -> Automaton:
    """Decision-tree ensembles: dense small CCs with very wide classes.

    Feature-threshold tests accept long symbol ranges (the paper: raw
    class size ~179, with NO ~52), and tree levels are densely wired —
    RandomForest is the paper's 32-bit-mode, all-FCB benchmark.
    """
    rng = random.Random(seed)
    target = profile.target_states(scale)
    lo, hi = profile.params["cc_size"]
    nfa = Automaton(name=profile.name)
    while len(nfa) < target:
        size = rng.randint(lo, hi)
        first = len(nfa)
        for i in range(size):
            if rng.random() < 0.72:
                # wide threshold range, e.g. [x-255] or [0-x]
                width = rng.randint(150, 253)
                start = rng.randrange(256 - width)
                cls = SymbolClass.from_ranges((start, start + width - 1))
            else:
                width = rng.randint(20, 90)
                start = rng.randrange(256 - width)
                cls = SymbolClass.from_ranges((start, start + width - 1))
            nfa.add_state(
                cls,
                start=StartKind.ALL_INPUT if i == 0 else StartKind.NONE,
                reporting=i == size - 1,
                report_code="leaf" if i == size - 1 else None,
            )
        for i in range(size - 1):
            nfa.add_transition(first + i, first + i + 1)
        for i in range(size):
            if rng.random() < 0.2:
                dist = rng.randint(44, 50)
                if i + dist < size:
                    nfa.add_transition(first + i, first + i + dist)
    return nfa


def _generate_entity_resolution(
    profile: BenchmarkProfile, scale: float, seed: int
) -> Automaton:
    """Name-matching automata: dense mid-size CCs, many negated classes."""
    rng = random.Random(seed)
    target = profile.target_states(scale)
    lo, hi = profile.params["cc_size"]
    negated_prob = profile.params["negated_prob"]
    nfa = Automaton(name=profile.name)
    pools = _ClassPools(rng, 256, {"negated_size": (1, 3)})
    while len(nfa) < target:
        size = rng.randint(lo, hi)
        first = len(nfa)
        for i in range(size):
            if rng.random() < negated_prob:
                cls = rng.choice(pools.negated)
            else:
                cls = SymbolClass.from_symbols([rng.randrange(256)])
            nfa.add_state(
                cls,
                start=StartKind.ALL_INPUT if i == 0 else StartKind.NONE,
                reporting=i == size - 1,
                report_code="match" if i == size - 1 else None,
            )
        for i in range(size - 1):
            nfa.add_transition(first + i, first + i + 1)
        for i in range(size):
            if rng.random() < 0.3:
                dist = rng.randint(44, 70)
                j = i + dist if rng.random() < 0.5 else i - dist
                if 0 <= j < size:
                    nfa.add_transition(first + i, first + j)
    return nfa


_FAMILIES = {
    "strings": _generate_strings,
    "dotstar": _generate_dotstar,
    "negated_strings": _generate_negated_strings,
    "hamming": _generate_hamming,
    "levenshtein": _generate_levenshtein,
    "blockrings": _generate_blockrings,
    "random_forest": _generate_random_forest,
    "entity_resolution": _generate_entity_resolution,
}


def generate(
    profile: BenchmarkProfile,
    scale: float = DEFAULT_SCALE,
    seed: int | None = None,
) -> Automaton:
    """Build the synthetic automaton for ``profile``."""
    if profile.family not in _FAMILIES:
        raise ReproError(f"unknown benchmark family {profile.family!r}")
    if seed is None:
        seed = sum(ord(c) for c in profile.name) * 7919
    automaton = _FAMILIES[profile.family](profile, scale, seed)
    automaton.validate()
    return automaton


def dense_activity_automaton(
    num_states: int = 512,
    *,
    chain_length: int = 16,
    match_width: int = 200,
    seed: int = 0,
    name: str = "dense-activity",
) -> Automaton:
    """A workload whose per-cycle active fraction is high by construction.

    Chains of wide-class (``match_width`` symbols out of 256) states
    whose heads are all all-input starts: under uniform random input a
    large fraction of states is active every cycle — the opposite of
    the paper's few-percent regime, and the one where a bit-vector
    design pays least for its capacity (used by the dense kernel
    tests and benchmarks).  Reports stay
    rare: each chain's reporter requires one extra symbol outside the
    wide class, so throughput measures matching, not report recording.
    """
    rng = random.Random(seed)
    nfa = Automaton(name=name)
    wide_lo, wide_hi = 0, match_width - 1
    report_symbol = min(255, match_width)  # just outside the wide class
    while len(nfa) < num_states:
        length = min(chain_length, num_states - len(nfa))
        prev = None
        for i in range(length):
            start = rng.randrange(wide_lo, max(1, wide_hi - 40))
            width = rng.randint(max(1, match_width - 60), match_width)
            if i == length - 1:
                # always narrow, even for a length-1 trailing chain —
                # a wide all-input reporter would flood the report
                # stream and break the "reports stay rare" guarantee
                cls = SymbolClass.from_symbols([report_symbol])
            else:
                cls = SymbolClass.from_ranges(
                    (start, min(255, start + width - 1))
                )
            ste = nfa.add_state(
                cls,
                start=StartKind.ALL_INPUT if i == 0 else StartKind.NONE,
                reporting=i == length - 1,
                report_code=f"d{len(nfa)}" if i == length - 1 else None,
            )
            if not ste.reporting:
                # dot-star-like self-loop: once entered, a wide state
                # stays active while its (wide) class keeps matching —
                # the mechanism that drives activity toward the match
                # probability instead of decaying down the chain
                nfa.add_transition(ste, ste)
            if prev is not None:
                nfa.add_transition(prev, ste)
            prev = ste
    nfa.validate()
    return nfa
