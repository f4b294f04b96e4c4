"""The matching-service facade: cached rulesets, shards, sessions.

:class:`MatchingService` is the one object a host application holds.
It owns a :class:`RulesetManager` (compiled-artifact LRU), builds and
caches one sharded :class:`Dispatcher` per distinct ruleset, and hands
out :class:`Session`\\ s for streaming tenants.  One-shot work goes
through :meth:`~MatchingService.scan` / :meth:`~MatchingService.
scan_many`, which report wall-clock throughput alongside the match
results.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.api.config import ScanConfig
from repro.automata.nfa import Automaton
from repro.compile.incremental import (
    ComposedRuleset,
    IncrementalCompiler,
    apply_update,
)
from repro.errors import SimulationError
from repro.service.ruleset import CacheStats, RulesetManager
from repro.service.session import Session
from repro.service.sharding import Dispatcher
from repro.sim.backends import ExecutionBackend
from repro.sim.backends.base import check_truncation_policy, handle_truncation
from repro.sim.reports import Report
from repro.sim.trace import TraceStats
from repro.telemetry.metrics import default_registry
from repro.telemetry.tracing import Trace, start_trace

_REGISTRY = default_registry()
_SERVICE_SCANS = _REGISTRY.counter(
    "repro_service_scans_total",
    "One-shot MatchingService scans, by dispatcher cache outcome",
    ("cached",),
)
_SERVICE_SCAN_BYTES = _REGISTRY.counter(
    "repro_service_scan_bytes_total",
    "Input bytes consumed by one-shot MatchingService scans",
)
_SERVICE_SCAN_SECONDS = _REGISTRY.histogram(
    "repro_service_scan_seconds",
    "End-to-end MatchingService.scan wall-clock latency",
)
_SESSIONS_OPEN = _REGISTRY.gauge(
    "repro_service_sessions_open",
    "Streaming sessions currently open across MatchingService instances",
)
_RULESET_VERSIONS = _REGISTRY.gauge(
    "repro_ruleset_versions",
    "Live ruleset versions (including retiring ones still draining "
    "sessions) across MatchingService instances",
)
_RULESET_UPDATES = _REGISTRY.counter(
    "repro_ruleset_updates_total",
    "Hot-swap ruleset updates applied (a new version compiled and bound)",
)


@dataclass
class RulesetVersion:
    """One live version of a hot-swappable ruleset lineage.

    A *lineage* is identified by its first version's fingerprint (the
    registration handle); each :meth:`MatchingService.update_ruleset`
    appends a new version whose own fingerprint keys the engines.  A
    version is *retired* when a newer one exists; it stays resident —
    dispatcher, pinned component artifacts and all — until its last
    open session closes, so in-flight streams always finish on the
    engine they started on.
    """

    lineage: str
    version: int
    fingerprint: str
    automaton: Automaton
    #: component artifact keys pinned in the store while this version
    #: is live (empty when the incremental path was unavailable)
    component_keys: tuple[str, ...] = ()
    reused_components: int = 0
    compiled_components: int = 0
    #: open sessions bound to this version
    sessions: int = 0
    #: a newer version exists; retire when sessions drain to zero
    retired: bool = False


@dataclass
class ServiceResult:
    """One scan's outcome plus service-level metadata."""

    reports: list[Report]
    stats: TraceStats
    bytes_scanned: int
    elapsed_s: float
    num_shards: int
    #: True when the compiled shard engines were already resident
    cached: bool
    #: resolved kernel name per shard ("sparse", "bitparallel" or
    #: "native")
    backends: list[str] = field(default_factory=list)
    #: True when the kept-reports cap truncated recording
    truncated: bool = False
    #: modeled CAMA hardware cost (:class:`~repro.telemetry.ledger.
    #: HardwareLedger`); present only under ``ScanConfig(hardware_
    #: ledger=True)``
    ledger: object | None = None
    #: the scan's span tree; present only under ``ScanConfig(trace=True)``
    trace: Trace | None = None

    @property
    def trace_id(self) -> str | None:
        return self.trace.trace_id if self.trace is not None else None

    @property
    def num_reports(self) -> int:
        return self.stats.num_reports

    @property
    def throughput_mbps(self) -> float:
        """Scan throughput in MB/s (0 when too fast to time)."""
        if self.elapsed_s <= 0.0:
            return 0.0
        return self.bytes_scanned / self.elapsed_s / 1e6


class MatchingService:
    """Streaming, sharded, multi-tenant automata-matching service.

    Args:
        config: the :class:`~repro.api.config.ScanConfig` driving this
            service — backend policy, sharding, workers, chunking, the
            default kept-reports cap and truncation policy, the
            persistent artifact store, and the multiprocessing start
            method; see :class:`ScanConfig` for field semantics.

    The service is safe to share across threads: compiled-artifact
    acquisition and the session table are lock-protected, while scans
    themselves run concurrently (the compiled kernels are read-only).
    """

    def __init__(self, config: ScanConfig | None = None) -> None:
        self.config = config if config is not None else ScanConfig()
        self.manager = RulesetManager(
            capacity=self.config.cache_capacity,
            store=self.config.artifact_store,
        )
        self.sessions: dict[str, Session] = {}
        # LRU-bounded alongside the manager: a Dispatcher pins its shard
        # engines, so an unbounded dict here would defeat the cache cap.
        self._dispatchers: OrderedDict[str, Dispatcher] = OrderedDict()
        # guards the dispatcher LRU and the session table; held only for
        # dict operations, never while compiling or matching
        self._lock = threading.RLock()
        # serializes ruleset compilation so concurrent threads neither
        # double-compile one ruleset nor race the manager's LRU — without
        # stalling cache-hit lookups (which only take ``_lock``)
        self._compile_lock = threading.Lock()
        # dispatchers evicted while their worker pool exists retire here
        # (terminating a pool mid-scan would kill another thread's work);
        # they are closed with the service
        self._retired: list[Dispatcher] = []
        # hardware-ledger reference material — (DesignBuild, sparse
        # reference Engine) per (fingerprint, design) — shares the
        # manager's LRU bound; guarded by _compile_lock (placement +
        # compile are the expensive parts)
        self._ledger_refs: OrderedDict[tuple[str, str], tuple] = OrderedDict()
        #: running modeled-cost totals across ledgered scans/sessions
        #: (:class:`~repro.telemetry.ledger.LedgerAccumulator`), exposed
        #: by the server's stats frame; folded under ``_lock``
        from repro.telemetry.ledger import LedgerAccumulator

        self.ledger_totals = LedgerAccumulator()
        # versioned live rulesets: lineage handle -> version list
        # (oldest first), plus fingerprint -> record and session-name ->
        # record indexes; all guarded by _lock
        self._lineages: OrderedDict[str, list[RulesetVersion]] = OrderedDict()
        self._version_by_fp: dict[str, RulesetVersion] = {}
        self._session_versions: dict[str, RulesetVersion] = {}
        # the incremental compiler shares the manager's store and forced
        # options; None when the backend is an ExecutionBackend instance
        # (no stable artifact key exists for those)
        options = self.manager.artifact_options(self.config.backend)
        self._incremental = (
            IncrementalCompiler(store=self.manager.store, options=options)
            if options is not None
            else None
        )
        self.closed = False

    # -- config views (the pre-facade attribute surface) ------------------
    @property
    def num_shards(self) -> int:
        return self.config.num_shards

    @property
    def workers(self) -> int:
        return self.config.workers

    @property
    def chunk_size(self) -> int:
        return self.config.chunk_size

    @property
    def backend(self) -> str | ExecutionBackend:
        return self.config.backend

    @property
    def mp_start_method(self) -> str | None:
        return self.config.mp_start_method

    @property
    def default_max_reports(self) -> int:
        return self.config.max_reports

    @property
    def on_truncation(self) -> str:
        return self.config.on_truncation

    @property
    def cache_stats(self) -> CacheStats:
        return self.manager.stats

    def dispatcher(
        self, automaton: Automaton, *, key: str | None = None
    ) -> Dispatcher:
        """The cached sharded dispatcher for ``automaton``.

        ``key`` lets callers that already fingerprinted the ruleset skip
        re-hashing it (the fingerprint is O(states + transitions)).
        """
        if key is None:
            key = self.manager.fingerprint(automaton)
        cached = self._cached_dispatcher(key)
        if cached is not None:
            return cached
        with self._compile_lock:
            # re-check: another thread may have compiled it while we waited
            cached = self._cached_dispatcher(key)
            if cached is not None:
                return cached
            dispatcher = Dispatcher(
                automaton, self.config, manager=self.manager
            )
            dispatcher.engines  # compile (and cache) the shard engines now
            self._insert_dispatcher(key, dispatcher)
            return dispatcher

    def _insert_dispatcher(self, key: str, dispatcher: Dispatcher) -> None:
        """LRU-insert a freshly built dispatcher (evicting past capacity)."""
        with self._lock:
            if self.closed:
                raise SimulationError("the matching service is closed")
            self._dispatchers[key] = dispatcher
            evicted = None
            if len(self._dispatchers) > self.manager.capacity:
                _, evicted = self._dispatchers.popitem(last=False)
                if evicted._pool is not None:
                    # another thread may be mid-scan on this pool;
                    # retire it and close with the service instead
                    self._retired.append(evicted)
                    evicted = None
        if evicted is not None:
            evicted.close()

    def _cached_dispatcher(self, key: str) -> Dispatcher | None:
        with self._lock:
            if self.closed:
                raise SimulationError("the matching service is closed")
            dispatcher = self._dispatchers.get(key)
            if dispatcher is not None:
                self._dispatchers.move_to_end(key)
            return dispatcher

    # -- hardware-ledger plumbing -----------------------------------------
    def _check_design(self, ledger_design: str | None) -> str:
        """Resolve (and validate) a per-call ledger-design override."""
        if ledger_design is None:
            return self.config.ledger_design
        from repro.telemetry.ledger import check_ledger_design

        return check_ledger_design(ledger_design)

    def _ledger_probe(self, automaton: Automaton, key: str, design: str):
        """A fresh :class:`~repro.telemetry.ledger.LedgerProbe` for one
        scan/session, reusing the cached design build + reference engine
        (placement and compilation are the expensive parts; the probe
        itself only holds stream state)."""
        from repro.telemetry.ledger import LedgerProbe, build_design

        ref_key = (key, design)
        with self._compile_lock:
            ref = self._ledger_refs.get(ref_key)
            if ref is not None:
                self._ledger_refs.move_to_end(ref_key)
            else:
                probe = LedgerProbe(
                    automaton, design, build=build_design(design, automaton)
                )
                ref = (probe.build, probe.engine)
                self._ledger_refs[ref_key] = ref
                if len(self._ledger_refs) > self.manager.capacity:
                    self._ledger_refs.popitem(last=False)
                return probe
        build, engine = ref
        return LedgerProbe(automaton, design, build=build, engine=engine)

    def _fold_ledger(self, ledger) -> None:
        if ledger is None or self.ledger_totals is None:
            return
        with self._lock:
            self.ledger_totals.add(ledger)

    # -- precompiled-artifact registration --------------------------------
    def register_artifact(self, artifact) -> tuple[str, Automaton]:
        """Adopt a precompiled ruleset artifact ("compile once, load
        anywhere"): returns ``(handle, automaton)``.

        ``artifact`` may be a :class:`~repro.compile.artifact.
        CompiledArtifact`, its raw bytes, or a path to one.  The
        reconstructed automaton is the ruleset; its prebuilt engine is
        seeded into the compiled-ruleset cache (so the first scan skips
        compilation when the sharding/backend configuration lines up),
        and the artifact is persisted to the service's store when one
        is attached.  The handle is the ruleset fingerprint — the same
        handle a source-level registration of the same rules yields.
        """
        from pathlib import Path

        from repro.compile.artifact import CompiledArtifact

        if isinstance(artifact, (bytes, bytearray)):
            artifact = CompiledArtifact.from_bytes(bytes(artifact))
        elif isinstance(artifact, (str, Path)):
            artifact = CompiledArtifact.load(artifact)
        # Uploads are untrusted: verify() re-binds the content-address
        # key to (content, options) and re-derives the match tables, so
        # a hand-edited artifact can neither poison another ruleset's
        # slot in a shared store nor smuggle in wrong match behaviour.
        artifact.verify()
        automaton = artifact.automaton()
        # recomputed (not trusted from the manifest) so the handle is
        # guaranteed to match a source-level registration of the same
        # rules, even for a hand-edited artifact
        handle = self.manager.fingerprint(automaton)
        with self._lock:
            if self.closed:
                raise SimulationError("the matching service is closed")
        if self.manager.store is not None:
            self.manager.store.put(artifact)
        if isinstance(self.backend, str):
            # the "auto" -> "defer to the artifact's recorded kernel"
            # rewrite is resolved once, inside ScanConfig
            self.manager.seed_engine(
                automaton,
                self.backend,
                artifact.engine(backend=self.config.engine_backend),
                fingerprint=handle,
            )
        return handle, automaton

    # -- versioned live rulesets ------------------------------------------
    def register_ruleset(
        self, automaton: Automaton, *, key: str | None = None
    ) -> RulesetVersion:
        """Register ``automaton`` as version 1 of a live lineage.

        Idempotent: re-registering a fingerprint already tracked returns
        its existing record.  When the incremental path is available
        (string backend), the dispatcher is *composed* from per-component
        artifacts — written to the store and pinned against eviction —
        so a later :meth:`update_ruleset` reuses every untouched
        component.
        """
        if key is None:
            key = self.manager.fingerprint(automaton)
        with self._lock:
            if self.closed:
                raise SimulationError("the matching service is closed")
            record = self._version_by_fp.get(key)
        if record is not None:
            return record
        composed = self._compile_incremental(automaton)
        self._bind_dispatcher(automaton, key, composed)
        with self._lock:
            record = self._version_by_fp.get(key)
            if record is not None:  # lost a registration race; defer
                return record
            record = self._make_record(
                lineage=key, version=1, fingerprint=key,
                automaton=automaton, composed=composed,
            )
            self._lineages[key] = [record]
            self._version_by_fp[key] = record
        self._pin(record)
        _RULESET_VERSIONS.labels().inc()
        return record

    def update_ruleset(
        self,
        ruleset: "Automaton | str",
        *,
        add=None,
        remove=None,
        automaton: Automaton | None = None,
        name: str | None = None,
    ) -> RulesetVersion:
        """Hot-swap a lineage to a new version without dropping streams.

        ``ruleset`` names the lineage — a handle string, any live
        version's fingerprint, or any live version's automaton (an
        unregistered automaton is registered first, so the very first
        update works too).  The new version is either ``automaton``
        directly or the result of :func:`~repro.compile.incremental.
        apply_update` over the latest version with ``add``/``remove``.

        The new version compiles through the incremental path (cached
        components reused, missing ones compiled — in parallel when
        several are missing), then binds atomically: scans and sessions
        opened after this call see the new engines, while sessions
        already open keep feeding the old version's dispatcher and
        retire it when the last one closes.
        """
        latest = self._resolve_lineage(ruleset)
        if automaton is None:
            automaton = apply_update(
                latest.automaton, add=add, remove=remove, name=name
            )
        new_key = self.manager.fingerprint(automaton)
        if new_key == latest.fingerprint:
            return latest
        composed = self._compile_incremental(automaton)
        self._bind_dispatcher(automaton, new_key, composed)
        with self._lock:
            versions = self._lineages[latest.lineage]
            current = versions[-1]
            if current.fingerprint == new_key:  # concurrent identical update
                return current
            record = self._make_record(
                lineage=latest.lineage,
                version=current.version + 1,
                fingerprint=new_key,
                automaton=automaton,
                composed=composed,
            )
            versions.append(record)
            self._version_by_fp[new_key] = record
            current.retired = True
        self._pin(record)
        _RULESET_VERSIONS.labels().inc()
        _RULESET_UPDATES.labels().inc()
        self._retire_if_idle(current)
        return record

    def ruleset_version(self, fingerprint: str) -> RulesetVersion | None:
        """The live version record keyed by ``fingerprint`` (or None)."""
        with self._lock:
            return self._version_by_fp.get(fingerprint)

    def lineage_versions(self, lineage: str) -> list[RulesetVersion]:
        """All live versions of ``lineage``, oldest first."""
        with self._lock:
            return list(self._lineages.get(lineage, ()))

    def version_summary(self) -> dict:
        """Aggregate version counts for the stats surface."""
        with self._lock:
            records = [r for vs in self._lineages.values() for r in vs]
            return {
                "lineages": len(self._lineages),
                "live": len(records),
                "retiring": sum(1 for r in records if r.retired),
            }

    @staticmethod
    def _make_record(
        *,
        lineage: str,
        version: int,
        fingerprint: str,
        automaton: Automaton,
        composed: ComposedRuleset | None,
    ) -> RulesetVersion:
        return RulesetVersion(
            lineage=lineage,
            version=version,
            fingerprint=fingerprint,
            automaton=automaton,
            component_keys=composed.component_keys if composed else (),
            reused_components=composed.reused_components if composed else 0,
            compiled_components=composed.compiled_components if composed else 0,
        )

    def _compile_incremental(
        self, automaton: Automaton
    ) -> ComposedRuleset | None:
        if self._incremental is None:
            return None
        with self._compile_lock:
            return self._incremental.compile(
                automaton,
                workers=self.workers,
                mp_start_method=self.mp_start_method,
            )

    def _bind_dispatcher(
        self,
        automaton: Automaton,
        key: str,
        composed: ComposedRuleset | None,
    ) -> Dispatcher:
        """The dispatcher for ``key`` — composed from cached component
        artifacts when possible, classic compile otherwise."""
        if composed is None:
            return self.dispatcher(automaton, key=key)
        cached = self._cached_dispatcher(key)
        if cached is not None:
            return cached
        with self._compile_lock:
            cached = self._cached_dispatcher(key)
            if cached is not None:
                return cached
            shards, engines = composed.build_shards(
                self.config.num_shards, self.config.backend
            )
            dispatcher = Dispatcher(
                automaton,
                self.config,
                manager=self.manager,
                prebuilt=(shards, engines),
            )
            self._insert_dispatcher(key, dispatcher)
            return dispatcher

    def _resolve_lineage(self, ruleset: "Automaton | str") -> RulesetVersion:
        """The latest live version of the lineage ``ruleset`` names."""
        if isinstance(ruleset, Automaton):
            fingerprint = self.manager.fingerprint(ruleset)
            with self._lock:
                record = self._version_by_fp.get(fingerprint)
            if record is None:
                record = self.register_ruleset(ruleset, key=fingerprint)
            with self._lock:
                return self._lineages[record.lineage][-1]
        with self._lock:
            versions = self._lineages.get(ruleset)
            if versions:
                return versions[-1]
            record = self._version_by_fp.get(ruleset)
            if record is not None:
                return self._lineages[record.lineage][-1]
        raise SimulationError(f"unknown ruleset lineage: {ruleset!r}")

    def _pin(self, record: RulesetVersion) -> None:
        if record.component_keys and self.manager.store is not None:
            self.manager.store.pin(record.component_keys)

    def _unpin(self, record: RulesetVersion) -> None:
        if record.component_keys and self.manager.store is not None:
            self.manager.store.unpin(record.component_keys)

    def _retire_if_idle(self, record: RulesetVersion) -> None:
        """Release a retired version once its sessions have drained."""
        evict = None
        with self._lock:
            if not record.retired or record.sessions > 0:
                return
            versions = self._lineages.get(record.lineage)
            if not versions or record not in versions:
                return  # already released
            versions.remove(record)
            if self._version_by_fp.get(record.fingerprint) is record:
                del self._version_by_fp[record.fingerprint]
            still_keyed = any(
                r.fingerprint == record.fingerprint
                for vs in self._lineages.values()
                for r in vs
            )
            if not still_keyed:
                evict = self._dispatchers.pop(record.fingerprint, None)
                if evict is not None and evict._pool is not None:
                    self._retired.append(evict)
                    evict = None
        if evict is not None:
            evict.close()
        self._unpin(record)
        _RULESET_VERSIONS.labels().dec()

    # -- one-shot scans --------------------------------------------------
    def scan(
        self,
        automaton: Automaton,
        data: bytes,
        *,
        chunk_size: int | None = None,
        max_reports: int | None = None,
        on_truncation: str | None = None,
        hardware_ledger: bool | None = None,
        ledger_design: str | None = None,
        trace: bool | None = None,
    ) -> ServiceResult:
        """Scan one complete stream, reusing cached compiled shards.

        When the *default* kept-reports cap truncates recording, the
        service's (or the call's) ``on_truncation`` policy applies —
        warn, error, or stay silent; an explicit ``max_reports`` is
        taken as intentional, mirroring :meth:`Engine.run`.

        ``hardware_ledger`` / ``ledger_design`` / ``trace`` override the
        service config's telemetry fields for this call (None = keep).
        """
        policy = (
            self.on_truncation
            if on_truncation is None
            else check_truncation_policy(on_truncation)
        )
        want_ledger = (
            self.config.hardware_ledger
            if hardware_ledger is None
            else hardware_ledger
        )
        design = self._check_design(ledger_design)
        want_trace = self.config.trace if trace is None else trace
        key = self.manager.fingerprint(automaton)
        cached = key in self._dispatchers
        explicit = max_reports is not None
        cap = max_reports if explicit else self.default_max_reports
        size = self.chunk_size if chunk_size is None else chunk_size
        trace = Trace() if want_trace else None
        ledger = None

        def run():
            dispatcher = self.dispatcher(automaton, key=key)
            result = dispatcher.scan(data, chunk_size=size, max_reports=cap)
            probe = None
            if want_ledger:
                probe = self._ledger_probe(automaton, key, design)
                if trace is not None:
                    with trace.span("ledger.probe", design=design):
                        probe.run(data)
                else:
                    probe.run(data)
            return dispatcher, result, probe

        start = time.perf_counter()
        if trace is not None:
            with start_trace(trace):
                with trace.span(
                    "service.scan", ruleset=automaton.name, bytes=len(data)
                ):
                    dispatcher, result, probe = run()
        else:
            dispatcher, result, probe = run()
        elapsed = time.perf_counter() - start

        if probe is not None:
            ledger = probe.ledger()
            self._fold_ledger(ledger)
        _SERVICE_SCANS.labels("hit" if cached else "miss").inc()
        _SERVICE_SCAN_BYTES.labels().inc(len(data))
        _SERVICE_SCAN_SECONDS.labels().observe(elapsed)
        if result.truncated and not explicit:
            handle_truncation(
                policy,
                f"scan of {automaton.name!r} hit the kept-reports cap "
                f"({cap}); further reports were counted but not recorded",
            )
        return ServiceResult(
            reports=result.reports,
            stats=result.stats,
            bytes_scanned=len(data),
            elapsed_s=elapsed,
            num_shards=dispatcher.num_shards,
            cached=cached,
            backends=dispatcher.backend_names,
            truncated=result.truncated,
            ledger=ledger,
            trace=trace,
        )

    def scan_many(
        self,
        automaton: Automaton,
        streams: dict[str, bytes],
        *,
        chunk_size: int | None = None,
        max_reports: int | None = None,
        on_truncation: str | None = None,
        hardware_ledger: bool | None = None,
        ledger_design: str | None = None,
        trace: bool | None = None,
    ) -> dict[str, ServiceResult]:
        """Batch entry point: scan every named stream against one ruleset.

        The ruleset compiles (at most) once; each stream gets its own
        independent START_OF_DATA semantics, report offsets, and
        truncation handling (a truncating stream warns or errors per
        ``on_truncation`` without affecting its siblings).

        With two or more streams (and ``ScanConfig.batch_max_rows >
        1``), the streams advance *together*: groups of up to
        ``batch_max_rows`` streams step through the input in batched
        kernel calls (:meth:`Dispatcher.run_chunk_batch`), amortizing
        per-chunk dispatch across the whole group.  Results are
        byte-identical to the sequential path; per-stream
        ``elapsed_s`` then reports the group's shared wall-clock.
        Hardware-ledger and trace runs fall back to sequential scans
        (both instruments are inherently per-stream).
        """
        want_ledger = (
            self.config.hardware_ledger
            if hardware_ledger is None
            else hardware_ledger
        )
        want_trace = self.config.trace if trace is None else trace
        if (
            len(streams) < 2
            or self.config.batch_max_rows < 2
            or want_ledger
            or want_trace
        ):
            self.dispatcher(automaton)  # compile once, before the loop
            return {
                name: self.scan(
                    automaton,
                    data,
                    chunk_size=chunk_size,
                    max_reports=max_reports,
                    on_truncation=on_truncation,
                    hardware_ledger=hardware_ledger,
                    ledger_design=ledger_design,
                    trace=trace,
                )
                for name, data in streams.items()
            }
        return self._scan_many_batched(
            automaton,
            streams,
            chunk_size=chunk_size,
            max_reports=max_reports,
            on_truncation=on_truncation,
        )

    def _scan_many_batched(
        self,
        automaton: Automaton,
        streams: dict[str, bytes],
        *,
        chunk_size: int | None,
        max_reports: int | None,
        on_truncation: str | None,
    ) -> dict[str, ServiceResult]:
        """Batched core of :meth:`scan_many`: grouped lock-step scans."""
        from repro.service.batching import observe_flush
        from repro.service.merge import accumulate_stats

        policy = (
            self.on_truncation
            if on_truncation is None
            else check_truncation_policy(on_truncation)
        )
        explicit = max_reports is not None
        cap = max_reports if explicit else self.default_max_reports
        size = self.chunk_size if chunk_size is None else chunk_size
        key = self.manager.fingerprint(automaton)
        cached = key in self._dispatchers
        dispatcher = self.dispatcher(automaton, key=key)
        num_states = sum(len(s.global_ids) for s in dispatcher.shards)
        batch_rows = self.config.batch_max_rows

        names = list(streams)
        reports: dict[str, list[Report]] = {name: [] for name in names}
        stats = {name: TraceStats(num_states=num_states) for name in names}
        truncated = {name: False for name in names}
        elapsed: dict[str, float] = {}

        for group_start in range(0, len(names), batch_rows):
            group = names[group_start : group_start + batch_rows]
            states = {name: dispatcher.initial_states() for name in group}
            offsets = {name: 0 for name in group}
            start = time.perf_counter()
            while True:
                # streams leave the batch as they run dry; the group's
                # live prefix shrinks until everyone has finished
                live = [
                    name
                    for name in group
                    if offsets[name] < len(streams[name])
                ]
                if not live:
                    break
                chunks = [
                    streams[name][offsets[name] : offsets[name] + size]
                    for name in live
                ]
                # shrinking per-stream budgets keep the per-tick trim
                # identical to Dispatcher.scan's end-of-stream trim
                budgets = [
                    max(0, cap - len(reports[name])) for name in live
                ]
                observe_flush(
                    len(live),
                    "rows_full" if len(live) == batch_rows else "drain",
                )
                results = dispatcher.run_chunk_batch(
                    chunks,
                    [states[name] for name in live],
                    max_reports=budgets,
                )
                for name, chunk, result in zip(live, chunks, results):
                    offsets[name] += len(chunk)
                    reports[name].extend(result.reports)
                    accumulate_stats(stats[name], result.stats)
                    truncated[name] |= result.truncated
            group_elapsed = time.perf_counter() - start
            for name in group:
                elapsed[name] = group_elapsed

        out: dict[str, ServiceResult] = {}
        for name in names:
            _SERVICE_SCANS.labels("hit" if cached else "miss").inc()
            _SERVICE_SCAN_BYTES.labels().inc(len(streams[name]))
            _SERVICE_SCAN_SECONDS.labels().observe(elapsed[name])
            if truncated[name] and not explicit:
                handle_truncation(
                    policy,
                    f"scan of {automaton.name!r} (stream {name!r}) hit "
                    f"the kept-reports cap ({cap}); further reports "
                    f"were counted but not recorded",
                )
            out[name] = ServiceResult(
                reports=reports[name],
                stats=stats[name],
                bytes_scanned=len(streams[name]),
                elapsed_s=elapsed[name],
                num_shards=dispatcher.num_shards,
                cached=cached,
                backends=dispatcher.backend_names,
                truncated=truncated[name],
            )
        return out

    # -- streaming sessions ----------------------------------------------
    def open_session(
        self,
        automaton: Automaton,
        name: str,
        *,
        max_reports: int | None = None,
        on_truncation: str | None = None,
        hardware_ledger: bool | None = None,
        ledger_design: str | None = None,
    ) -> Session:
        """Open a named resumable stream against ``automaton``.

        ``max_reports`` / ``on_truncation`` (and the hardware-ledger
        fields) default to the service config's values; pass any to
        override for this session.
        """
        want_ledger = (
            self.config.hardware_ledger
            if hardware_ledger is None
            else hardware_ledger
        )
        design = self._check_design(ledger_design)
        key = self.manager.fingerprint(automaton)
        dispatcher = self.dispatcher(automaton, key=key)
        probe = None
        if want_ledger:
            probe = self._ledger_probe(automaton, key, design)
        with self._lock:
            if name in self.sessions and not self.sessions[name].closed:
                raise SimulationError(f"session {name!r} is already open")
            session = Session(
                name,
                dispatcher,
                self.config.merged(
                    max_reports=max_reports, on_truncation=on_truncation
                ),
                ledger_probe=probe,
            )
            # bind the session to the ruleset version it opened against:
            # a later update_ruleset retires this version only after the
            # session closes, so the stream finishes on these engines
            record = self._version_by_fp.get(key)
            if record is not None:
                record.sessions += 1
                self._session_versions[name] = record
                session.ruleset_version = record.version
            self.sessions[name] = session
            _SESSIONS_OPEN.labels().inc()
            return session

    def close_session(self, name: str):
        """Close a session and return its accumulated result."""
        with self._lock:
            try:
                session = self.sessions.pop(name)
            except KeyError:
                raise SimulationError(f"no such session: {name!r}") from None
            record = self._session_versions.pop(name, None)
            if record is not None:
                record.sessions -= 1
        _SESSIONS_OPEN.labels().dec()
        self._fold_ledger(session.ledger())
        result = session.close()
        if record is not None:
            self._retire_if_idle(record)
        return result

    def close(self) -> None:
        """Tear the service down: sessions, dispatchers, worker pools.

        Idempotent and safe after a scan or feed raised mid-stream:
        every open session is closed (its accumulated result is
        discarded), every dispatcher — including any the LRU already
        evicted — releases its worker pool, and later use of the
        service raises instead of silently recompiling.
        """
        with self._lock:
            if self.closed:
                return
            self.closed = True
            sessions = list(self.sessions.values())
            self.sessions.clear()
            dispatchers = list(self._dispatchers.values()) + self._retired
            self._dispatchers.clear()
            self._retired = []
            records = [r for vs in self._lineages.values() for r in vs]
            self._lineages.clear()
            self._version_by_fp.clear()
            self._session_versions.clear()
        for session in sessions:
            _SESSIONS_OPEN.labels().dec()
            if not session.closed:
                session.close()
        for dispatcher in dispatchers:
            dispatcher.close()
        for record in records:
            self._unpin(record)
            _RULESET_VERSIONS.labels().dec()

    def __enter__(self) -> "MatchingService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
