"""Frequency-first symbol clustering (paper §V.B).

After the encoding shape (ls, lp, zeros) is selected, symbols must be
assigned to clusters (= prefixes).  Suffix compression can only merge
symbols of the *same* cluster, so the goal is to co-locate symbols that
tend to appear in the same symbol classes.

The paper's algorithm, implemented here: compute each symbol's
frequency across the automaton's symbol classes; seed each cluster with
the most frequent unassigned symbol; then repeatedly add the unassigned
symbol with the highest estimated probability of co-occurring with the
cluster's current members (we use the co-occurrence count
P(X, C) = sum over c in C of #classes containing both X and c),
until the cluster is full; repeat until all symbols are assigned.

P(X, C) is kept as a running affinity vector over all 256 symbols:
placing a symbol adds its co-occurrence column, so each placement costs
one vector add and one ``argmax`` instead of re-gathering the
candidates x members block.  Assigned and out-of-alphabet symbols hold
a large negative score, so the ``argmax`` sees only candidates and
returns the lowest-numbered best one.  The tie-breaks are the rule's:
highest affinity, then lowest symbol; when nothing co-occurs with the
cluster (every candidate's affinity is 0), the most frequent remaining
symbol, then lowest symbol — the same order that picks each seed.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence

import numpy as np

from repro.automata.symbols import SymbolClass
from repro.errors import EncodingError

#: the score of a symbol that may not be picked: below any sum of
#: co-occurrence counts added to it, which stay far under 2**53
_CLOSED = np.int64(-(1 << 62))


def cooccurrence_matrix(symbol_classes: Iterable[SymbolClass]) -> np.ndarray:
    """256x256 matrix counting classes containing each symbol pair.

    The diagonal holds plain symbol frequencies.  Duplicate classes are
    weighted by multiplicity (a class used by many states makes its
    symbols co-occur more often).
    """
    counts = Counter(symbol_classes)
    matrix = np.zeros((256, 256), dtype=np.int64)
    for symbol_class, count in counts.items():
        index = np.fromiter(symbol_class, dtype=np.int64)
        matrix[np.ix_(index, index)] += count
    return matrix


def cluster_symbols(
    symbol_classes: Sequence[SymbolClass],
    alphabet: SymbolClass,
    cluster_capacity: int,
    max_clusters: int,
) -> list[list[int]]:
    """Greedy frequency-first clustering of ``alphabet``.

    Returns clusters (lists of symbols, slot order = insertion order).
    Raises EncodingError when the capacity cannot hold the alphabet.
    """
    if cluster_capacity < 1:
        raise EncodingError("cluster capacity must be positive")
    symbols = list(alphabet)
    if len(symbols) > cluster_capacity * max_clusters:
        raise EncodingError(
            f"alphabet of {len(symbols)} symbols does not fit "
            f"{max_clusters} clusters of {cluster_capacity}"
        )
    matrix = cooccurrence_matrix(symbol_classes)
    # the scores of the unassigned symbols; a placed symbol is closed
    frequency = np.full(256, _CLOSED)
    frequency[symbols] = matrix.diagonal()[symbols]
    remaining = len(symbols)
    clusters: list[list[int]] = []
    while remaining:
        # Seed with the most frequent unassigned symbol (ties: lowest).
        seed = int(frequency.argmax())
        cluster = [seed]
        affinity = np.where(frequency > _CLOSED, matrix[:, seed], _CLOSED)
        frequency[seed] = affinity[seed] = _CLOSED
        remaining -= 1
        while len(cluster) < cluster_capacity and remaining:
            best = int(affinity.argmax())
            if affinity[best] <= 0:
                # Nothing co-occurs with this cluster; fill with the most
                # frequent remaining symbol (the paper fills all clusters).
                best = int(frequency.argmax())
            cluster.append(best)
            affinity += matrix[:, best]
            frequency[best] = affinity[best] = _CLOSED
            remaining -= 1
        clusters.append(cluster)
        if len(clusters) > max_clusters:
            raise EncodingError("clustering exceeded the cluster budget")
    return clusters


def identity_clusters(
    alphabet: SymbolClass, cluster_capacity: int
) -> list[list[int]]:
    """Clustering baseline used by Table II's "fixed 32-bit, no
    clustering optimization" column: symbols packed in numeric order."""
    symbols = list(alphabet)
    return [
        symbols[i : i + cluster_capacity]
        for i in range(0, len(symbols), cluster_capacity)
    ]
