"""Compiled-ruleset cache: fingerprints + two cache levels.

Hardware automata processors amortize one expensive compile/place/route
over unbounded input.  The service layer gets the same economics in
software by fingerprinting an :class:`Automaton`'s *language-relevant*
content (see :func:`repro.compile.fingerprint.ruleset_fingerprint`,
canonically defined there and re-exported here) and memoizing the
compiled artifacts behind it, at two levels:

1. an in-process LRU of live, compiled :class:`Engine`\\ s, bounded
   by entry count;
2. optionally, a persistent on-disk :class:`~repro.compile.store.
   ArtifactStore` of serialized :class:`~repro.compile.artifact.
   CompiledArtifact`\\ s, bounded by bytes and keyed by fingerprint
   *plus compile options*, so a warm restart (or a remote client
   upload) skips compilation entirely.

Two rulesets that define the same language share one cache entry; the
same ruleset compiled under different pipeline options never does.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

from repro.api.config import DEFAULT_CACHE_CAPACITY
from repro.automata.nfa import Automaton
from repro.compile.artifact import CompiledArtifact
from repro.compile.fingerprint import ruleset_fingerprint
from repro.compile.ir import PipelineOptions
from repro.compile.pipeline import compile_ruleset
from repro.compile.store import ArtifactStore
from repro.errors import ConfigError, ReproError
from repro.sim.backends import ExecutionBackend
from repro.sim.engine import Engine
from repro.telemetry.metrics import default_registry

#: the cache-layer metric series; labels: level = memory | disk,
#: outcome = hit | miss | eviction
_CACHE_EVENTS = default_registry().counter(
    "repro_ruleset_cache_events_total",
    "Compiled-ruleset cache lookups and evictions, by level and outcome",
    ("level", "outcome"),
)


@dataclass
class CacheStats:
    """Hit/miss/eviction counters of one :class:`RulesetManager`.

    ``hits``/``misses`` count the in-memory level; ``disk_hits``/
    ``disk_misses`` break down how the misses resolved when a disk
    store is attached (a disk hit is a memory miss served by loading
    an artifact instead of compiling).
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


class RulesetManager:
    """Two-level cache of compiled artifacts, keyed by ruleset fingerprint.

    One manager serves every tenant of a :class:`~repro.service.service.
    MatchingService`; ``capacity`` bounds the resident compiled rulesets
    (each entry holds a 256 x n match table), evicting
    least-recently-used first.  With a
    ``store``, evicted-then-re-requested (or never-seen-this-process)
    rulesets load from disk instead of recompiling.

    Args:
        capacity: max resident in-memory entries.
        store: optional persistent second level — an
            :class:`ArtifactStore` or a directory path to open one in.
        options: base :class:`PipelineOptions` for disk-cache keys and
            compilation.  ``optimize``/``stride`` are forced to their
            service-safe values (no optimization, stride 1): the
            service must execute rulesets exactly as registered, since
            optimization renumbers the state ids reports carry.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CACHE_CAPACITY,
        *,
        store: ArtifactStore | str | Path | None = None,
        options: PipelineOptions | None = None,
    ) -> None:
        if capacity < 1:
            raise ConfigError("cache capacity must be >= 1")
        self.capacity = capacity
        self.stats = CacheStats()
        self._entries: OrderedDict[tuple[str, str], object] = OrderedDict()
        if store is not None and not isinstance(store, ArtifactStore):
            store = ArtifactStore(store)
        self.store = store
        self._options = (options or PipelineOptions()).replace(
            optimize=False, stride=1
        )

    def __len__(self) -> int:
        return len(self._entries)

    def fingerprint(self, automaton: Automaton) -> str:
        return ruleset_fingerprint(automaton)

    def _get(self, key: tuple[str, str], build):
        if key in self._entries:
            self.stats.hits += 1
            _CACHE_EVENTS.labels("memory", "hit").inc()
            self._entries.move_to_end(key)
            return self._entries[key]
        self.stats.misses += 1
        _CACHE_EVENTS.labels("memory", "miss").inc()
        value = build()
        self._entries[key] = value
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
            _CACHE_EVENTS.labels("memory", "eviction").inc()
        return value

    # -- artifact (second-level) plumbing --------------------------------
    def artifact_options(
        self, backend: str | ExecutionBackend | None
    ) -> PipelineOptions | None:
        """Disk-cache options for a backend hint, or None when the
        combination is not disk-cacheable (custom backend instances
        have no stable digest)."""
        if backend is not None and not isinstance(backend, str):
            return None
        return self._options.replace(backend=backend)

    def seed_engine(
        self,
        automaton: Automaton,
        backend: str | ExecutionBackend,
        engine: Engine,
        *,
        fingerprint: str | None = None,
    ) -> None:
        """Insert a ready engine (e.g. from an uploaded artifact).

        The entry obeys the same LRU discipline as compiled ones; an
        existing entry for the key is refreshed, not duplicated.
        """
        if fingerprint is None:
            fingerprint = ruleset_fingerprint(automaton)
        key = ("engine", backend, fingerprint)
        self._entries[key] = engine
        self._entries.move_to_end(key)
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
            _CACHE_EVENTS.labels("memory", "eviction").inc()

    # -- compiled-object accessors ----------------------------------------
    def engine(
        self,
        automaton: Automaton,
        backend: str | ExecutionBackend = "sparse",
    ) -> Engine:
        """The cached :class:`Engine` for ``automaton`` on ``backend``.

        Distinct backends get distinct cache entries (an ``auto`` entry
        is keyed as ``auto`` even though it resolves to a concrete
        kernel, so re-requesting it never re-runs the policy).  Backend
        *instances* are keyed by identity, not by name — two
        differently parameterized backends that happen to share a name
        never alias to one compiled engine — and bypass the disk level.
        """
        # the instance itself (not id()) keys the tuple: the cache entry
        # then pins the backend, so the identity can never be recycled
        key = ("engine", backend, ruleset_fingerprint(automaton))

        def build() -> Engine:
            options = self.artifact_options(backend)
            if self.store is None or options is None:
                return Engine(automaton, backend=backend)
            artifact_key = ruleset_fingerprint(automaton, options)
            artifact = self.store.get(artifact_key)
            if artifact is not None:
                try:
                    engine = artifact.engine()
                except ReproError:
                    # loadable but unusable (e.g. table skew validate()
                    # cannot see): a cache miss, never a stuck ruleset
                    pass
                else:
                    self.stats.disk_hits += 1
                    _CACHE_EVENTS.labels("disk", "hit").inc()
                    return engine
            self.stats.disk_misses += 1
            _CACHE_EVENTS.labels("disk", "miss").inc()
            compiled = compile_ruleset(automaton, options)
            self.store.put(CompiledArtifact.from_compiled(compiled))
            return compiled.engine()

        return self._get(key, build)

    def clear(self) -> None:
        """Drop the in-memory level (the disk store, if any, persists)."""
        self._entries.clear()
