"""Structural analysis of homogeneous NFAs.

The mapper and the workload characterization both need the same three
analyses the paper relies on:

* *connected components* (CCs) — transitions never cross CCs, so the
  greedy mapper packs whole CCs into partitions;
* *BFS ordering* — laying each CC out in breadth-first order from its
  start states places most transitions near the diagonal of the local
  switch (the observation behind eAP's RCB and CAMA's RRCB);
* summary statistics (Table I's columns).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.automata.nfa import Automaton


def connected_components(automaton: Automaton) -> list[list[int]]:
    """Weakly connected components, each sorted by state id.

    Components are returned largest-first, the order the greedy packer
    consumes them in.
    """
    n = len(automaton)
    neighbors: list[set[int]] = [set() for _ in range(n)]
    for u, v in automaton.transitions():
        neighbors[u].add(v)
        neighbors[v].add(u)
    seen = [False] * n
    components: list[list[int]] = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        component = [root]
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in neighbors[u]:
                if not seen[v]:
                    seen[v] = True
                    component.append(v)
                    queue.append(v)
        components.append(sorted(component))
    components.sort(key=len, reverse=True)
    return components


def balanced_component_groups(
    components: list[list[int]], num_shards: int
) -> list[list[int]]:
    """Pack components into at most ``num_shards`` groups of *component
    indices*, balanced by state count.

    Greedy longest-processing-time packing: components largest-first,
    each into the currently lightest group.  Empty groups are dropped,
    so fewer than ``num_shards`` groups come back when there are fewer
    components.  The incremental compiler needs the per-component
    structure to compose cached component artifacts block-by-block
    (:mod:`repro.compile.incremental`); :func:`balanced_shards` flattens
    it for callers that only want state ids.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    groups: list[list[int]] = [
        [] for _ in range(min(num_shards, len(components)))
    ]
    if not groups:
        return []
    loads = [0] * len(groups)
    order = sorted(
        range(len(components)), key=lambda i: len(components[i]), reverse=True
    )
    for index in order:
        lightest = loads.index(min(loads))
        groups[lightest].append(index)
        loads[lightest] += len(components[index])
    return [group for group in groups if group]


def balanced_shards(
    components: list[list[int]], num_shards: int
) -> list[list[int]]:
    """Pack connected components into at most ``num_shards`` groups of
    sorted state ids: each :func:`balanced_component_groups` group,
    flattened.

    Transitions never cross components, so each group induces an
    independent sub-automaton that can be simulated in isolation — the
    property the sharded dispatcher in :mod:`repro.service` relies on.
    """
    return [
        sorted(state for index in group for state in components[index])
        for group in balanced_component_groups(components, num_shards)
    ]


def bfs_order(automaton: Automaton, component: list[int]) -> list[int]:
    """Breadth-first ordering of one component from its start states.

    States unreached by forward BFS (e.g. predecessors of a start state)
    are appended afterwards, preserving id order, so the result is always
    a permutation of ``component``.
    """
    in_component = set(component)
    order: list[int] = []
    seen: set[int] = set()
    roots = [
        s for s in component if automaton.states[s].start.value != "none"
    ] or component[:1]
    queue = deque()
    for root in roots:
        if root not in seen:
            seen.add(root)
            queue.append(root)
    while queue:
        u = queue.popleft()
        order.append(u)
        for v in sorted(automaton.successors(u)):
            if v in in_component and v not in seen:
                seen.add(v)
                queue.append(v)
    for s in component:
        if s not in seen:
            order.append(s)
            seen.add(s)
    return order


def bandwidth_under_order(automaton: Automaton, order: list[int]) -> int:
    """Maximum |pos(u) - pos(v)| over transitions inside ``order``.

    This is the diagonal band width a reduced crossbar must provide to
    hold the component without falling back to a full crossbar.
    """
    position = {s: i for i, s in enumerate(order)}
    width = 0
    for u, v in automaton.transitions():
        if u in position and v in position:
            width = max(width, abs(position[u] - position[v]))
    return width


@dataclass(frozen=True)
class AutomatonStats:
    """Summary statistics of an automaton (Table I's raw ingredients)."""

    name: str
    num_states: int
    num_transitions: int
    num_start: int
    num_reporting: int
    avg_symbol_class_size: float
    max_symbol_class_size: int
    alphabet_size: int
    num_components: int
    largest_component: int
    avg_out_degree: float


def automaton_stats(automaton: Automaton) -> AutomatonStats:
    """Compute :class:`AutomatonStats` for ``automaton``."""
    components = connected_components(automaton)
    sizes = [len(s.symbol_class) for s in automaton.states]
    n = len(automaton)
    return AutomatonStats(
        name=automaton.name,
        num_states=n,
        num_transitions=automaton.num_transitions(),
        num_start=len(automaton.start_states()),
        num_reporting=len(automaton.reporting_states()),
        avg_symbol_class_size=sum(sizes) / n if n else 0.0,
        max_symbol_class_size=max(sizes, default=0),
        alphabet_size=len(automaton.alphabet()),
        num_components=len(components),
        largest_component=len(components[0]) if components else 0,
        avg_out_degree=automaton.num_transitions() / n if n else 0.0,
    )
