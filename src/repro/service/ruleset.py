"""Compiled-ruleset cache accounting: fingerprints, counters, store keys.

Hardware automata processors amortize one expensive compile/place/route
over unbounded input.  The service layer gets the same economics in
software by fingerprinting an :class:`Automaton`'s *language-relevant*
content (see :func:`repro.compile.fingerprint.ruleset_fingerprint`,
canonically defined there and re-exported here) and keeping what it
compiled in exactly two places:

1. in memory, the :class:`~repro.service.service.MatchingService`'s
   ruleset table — LRU-bounded lineages of version records, each owning
   its :class:`~repro.service.sharding.Dispatcher` and shard engines;
2. optionally on disk, an :class:`~repro.compile.store.ArtifactStore`
   of serialized :class:`~repro.compile.artifact.CompiledArtifact`\\ s,
   bounded by bytes and keyed by fingerprint *plus compile options*, so
   a warm restart (or a remote client upload) skips compilation.

Two rulesets that define the same language share one table record; the
same ruleset compiled under different pipeline options never shares a
store entry.  :class:`CacheStats` counts both levels.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api.config import DEFAULT_CACHE_CAPACITY
from repro.compile.fingerprint import ruleset_fingerprint
from repro.compile.ir import PipelineOptions
from repro.compile.store import ArtifactStore
from repro.telemetry.metrics import default_registry

__all__ = [
    "DEFAULT_CACHE_CAPACITY",
    "CacheStats",
    "artifact_options",
    "open_store",
    "ruleset_fingerprint",
]

#: the cache-layer metric series; labels: level = memory | disk,
#: outcome = hit | miss | eviction
_CACHE_EVENTS = default_registry().counter(
    "repro_ruleset_cache_events_total",
    "Compiled-ruleset cache lookups and evictions, by level and outcome",
    ("level", "outcome"),
)

#: CacheStats field -> its (level, outcome) metric labels
_EVENT_LABELS = {
    "hits": ("memory", "hit"),
    "misses": ("memory", "miss"),
    "evictions": ("memory", "eviction"),
    "disk_hits": ("disk", "hit"),
    "disk_misses": ("disk", "miss"),
}


@dataclass
class CacheStats:
    """Hit/miss/eviction counters of one service's compiled rulesets.

    ``hits``/``misses``/``evictions`` count the ruleset table: a lookup
    that found a resident record, a record that had to be built, a
    lineage the LRU bound dropped.  ``disk_hits``/``disk_misses`` break
    down how classic whole-shard builds resolved when a disk store is
    attached (a disk hit is a build served by loading an artifact
    instead of compiling).
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    disk_hits: int = 0
    disk_misses: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def count(self, event: str, amount: int = 1) -> None:
        """Add ``amount`` to field ``event`` and to its metric series
        (the caller serializes: ``+=`` is a read-modify-write)."""
        setattr(self, event, getattr(self, event) + amount)
        _CACHE_EVENTS.labels(*_EVENT_LABELS[event]).inc(amount)


def artifact_options(backend) -> PipelineOptions | None:
    """The compile options the service keys and builds artifacts under,
    or None for a backend *instance* (no stable digest, so not
    disk-cacheable).  No optimization, stride 1: the service must
    execute rulesets exactly as registered, since optimization
    renumbers the state ids reports carry."""
    if not isinstance(backend, str):
        return None
    return PipelineOptions(optimize=False, stride=1, backend=backend)


def open_store(store) -> ArtifactStore | None:
    """A ``ScanConfig.artifact_store`` value (None, a store or a
    directory path) as an :class:`ArtifactStore` or None."""
    if store is None or isinstance(store, ArtifactStore):
        return store
    return ArtifactStore(store)
