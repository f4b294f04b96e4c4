"""The matching-service facade: cached rulesets, shards, sessions.

:class:`MatchingService` is the one object a host application holds.
It owns the one ruleset table of the process — LRU-bounded lineages of
:class:`RulesetVersion` records, each holding its sharded
:class:`Dispatcher`; the only in-memory home of compiled rulesets, with
the optional :class:`~repro.compile.store.ArtifactStore` behind it on
disk — and hands out :class:`Session`\\ s for streaming tenants.
One-shot work goes through :meth:`~MatchingService.scan` /
:meth:`~MatchingService.scan_many`, which report wall-clock throughput
alongside the match results.

Every entry point names its ruleset one of two ways: a *handle* string
(what registration returned) is a dictionary lookup, never a hash, and
means the latest version of that lineage; an :class:`Automaton` means
exactly those rules, and is looked up by its memoized
:attr:`~repro.automata.nfa.Automaton.fingerprint` — hashed once per
automaton *object*, not per call, and sealed against mutation from then
on, so a table record can never drift from the engines compiled for it.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial

from repro.api.config import ScanConfig
from repro.automata.nfa import Automaton
from repro.compile.incremental import (
    ComposedRuleset,
    IncrementalCompiler,
    apply_update,
)
from repro.errors import SimulationError, UnknownRulesetError
from repro.service.ruleset import (
    CacheStats,
    artifact_options,
    open_store,
)
from repro.service.session import Session
from repro.service.sharding import Dispatcher
from repro.sim.backends.base import check_truncation_policy, handle_truncation
from repro.sim.engine import Engine
from repro.sim.reports import ReportBatch
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
    "End-to-end MatchingService scan / scan_many call wall-clock latency",
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


@dataclass(eq=False)
class RulesetVersion:
    """One live version of a ruleset lineage: a row of the service's
    ruleset table.

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
    #: the sharded engines serving this version
    dispatcher: Dispatcher
    #: component artifact keys pinned in the store while this version
    #: is live (empty for an ad-hoc scan's classic whole-shard compile,
    #: or when the incremental path was unavailable)
    component_keys: tuple[str, ...] = ()
    reused_components: int = 0
    compiled_components: int = 0
    #: open sessions bound to this version
    sessions: int = 0
    #: the lineage has moved on from these rules; released when
    #: sessions drain to zero
    retired: bool = False
    #: hardware-ledger reference material — (DesignBuild, sparse
    #: reference Engine) per design; placement + compile are the
    #: expensive parts, so they live (and die) with the record
    ledger_refs: dict[str, tuple] = field(default_factory=dict)


@dataclass
class ServiceResult:
    """One scan's outcome plus service-level metadata.

    ``batch`` holds the recorded reports in columnar form; ``reports``
    is the same batch read as a ``Sequence[Report]``.
    """

    batch: ReportBatch
    stats: TraceStats
    bytes_scanned: int
    elapsed_s: float
    num_shards: int
    #: True when the compiled shard engines were already resident
    cached: bool
    #: resolved kernel name per shard ("sparse" or "native")
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
    def reports(self) -> ReportBatch:
        return self.batch

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


def _component_fields(composed: ComposedRuleset | None) -> dict:
    """The :class:`RulesetVersion` fields an incremental compile fills."""
    if composed is None:
        return {}
    return {
        "component_keys": composed.component_keys,
        "reused_components": composed.reused_components,
        "compiled_components": composed.compiled_components,
    }


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
        config = config if config is not None else ScanConfig()
        #: the disk level behind the table (or None), opened once: its
        #: pins are refcounted in this process, and every dispatcher
        #: built from ``config`` reads through it
        self.store = open_store(config.artifact_store)
        self.config = config.replace(artifact_store=self.store)
        #: table hits, builds and LRU evictions, and the disk outcomes
        #: of classic builds
        self.cache_stats = CacheStats()
        self.sessions: dict[str, Session] = {}
        # THE ruleset table, and the only in-memory cache of compiled
        # rulesets: lineage handle -> live versions (oldest first),
        # least-recently-used lineage first and bounded by
        # config.cache_capacity (a record pins its shard engines); plus
        # its fingerprint -> record index.  Both guarded by _lock.
        self._lineages: OrderedDict[str, list[RulesetVersion]] = OrderedDict()
        self._version_by_fp: dict[str, RulesetVersion] = {}
        # guards the ruleset table and the session table; held only for
        # dict operations, never while compiling or matching
        self._lock = threading.RLock()
        # serializes ruleset compilation so concurrent threads never
        # double-compile one ruleset — without stalling table lookups
        # (which only take ``_lock``)
        self._compile_lock = threading.Lock()
        # orders a record's store pin before its unpin (both touch files,
        # so neither runs under ``_lock``): held from a record's insert
        # until its pin is down, and around every unpin
        self._pin_lock = threading.Lock()
        # dispatchers released while their worker pool exists retire here
        # (terminating a pool mid-scan would kill another thread's work);
        # they are closed with the service
        self._retired: list[Dispatcher] = []
        #: running modeled-cost totals across ledgered scans/sessions
        #: (:class:`~repro.telemetry.ledger.LedgerAccumulator`), exposed
        #: by the server's stats frame; folded under ``_lock``
        from repro.telemetry.ledger import LedgerAccumulator

        self.ledger_totals = LedgerAccumulator()
        # the incremental compiler shares the store and the classic
        # build's options; None when the backend is an ExecutionBackend
        # instance (no stable artifact key exists for those)
        options = artifact_options(self.config.backend)
        self._incremental = (
            IncrementalCompiler(store=self.store, options=options)
            if options is not None
            else None
        )
        self.closed = False

    def dispatcher(self, automaton: Automaton) -> Dispatcher:
        """The sharded dispatcher of ``automaton``'s table record
        (compiled and inserted on first sight)."""
        return self.resolve(automaton)[0].dispatcher

    # -- the ruleset table -------------------------------------------------
    def _check_open(self) -> None:
        if self.closed:
            raise SimulationError("the matching service is closed")

    def resolve(
        self, ruleset: "Automaton | str"
    ) -> tuple[RulesetVersion, bool]:
        """The record ``ruleset`` names, and whether it was resident.

        A handle string — a lineage handle or any live version's
        fingerprint — is a table lookup and means the lineage's latest
        version; :class:`~repro.errors.UnknownRulesetError` when the
        table does not (or no longer does) hold it.  An automaton means
        exactly those rules, compiled on first sight and looked up by
        its memoized fingerprint (hashed on the object's first use
        only).  :attr:`cache_stats` counts a hit for a handle or an
        automaton found resident.
        """
        if isinstance(ruleset, Automaton):
            record, resident = self._found(ruleset)
            if resident:
                with self._lock:
                    self.cache_stats.count("hits")
            return record, resident
        with self._lock:
            self._check_open()
            record = self._version_by_fp.get(ruleset)
            versions = self._lineages.get(ruleset) or (
                record and self._lineages[record.lineage]
            )
            if not versions:
                raise UnknownRulesetError(
                    f"unknown ruleset handle {ruleset!r}; register it "
                    f"first (or re-register: handles are LRU-bounded)"
                )
            self._lineages.move_to_end(versions[-1].lineage)
            self.cache_stats.count("hits")
            return versions[-1], True

    def _exact(self, key: str) -> RulesetVersion | None:
        """The resident record of exactly fingerprint ``key``, touched
        as most recently used."""
        with self._lock:
            self._check_open()
            record = self._version_by_fp.get(key)
            if record is None:
                # the index holds one record per fingerprint; a second
                # one, in the lineage of that name, can outlive it
                for record in self._lineages.get(key, ()):
                    if record.fingerprint == key:
                        self._version_by_fp[key] = record
                        break
                else:
                    return None
            self._lineages.move_to_end(record.lineage)
            return record

    def _found(
        self,
        automaton: Automaton,
        composed: ComposedRuleset | None = None,
        prebuilt: Engine | None = None,
    ) -> tuple[RulesetVersion, bool]:
        """The record of exactly ``automaton``'s rules, and whether it
        was resident: the one lookup-or-build path.  An absent one is
        built (a cache miss) — composed from ``composed``'s component
        artifacts, around the ready whole-ruleset engine ``prebuilt``,
        or by the classic whole-shard compile — as version 1 of the
        lineage named by its fingerprint, founding it when need be."""
        key = automaton.fingerprint
        record = self._exact(key)
        if record is not None:
            return record, True
        with self._compile_lock:
            # another thread may have built it while we waited
            record = self._exact(key)
            if record is not None:
                return record, True
            record = RulesetVersion(
                lineage=key,
                version=1,
                fingerprint=key,
                automaton=automaton,
                dispatcher=self._build_dispatcher(
                    automaton, composed, prebuilt
                ),
                **_component_fields(composed),
            )
            with self._pin_lock:
                with self._lock:
                    self._check_open()
                    self.cache_stats.count("misses")
                    versions = self._lineages.setdefault(key, [])
                    # a lineage that moved on from its first rules keeps
                    # them only for callers that pass the automaton
                    record.retired = bool(versions)
                    versions.insert(0, record)
                    self._lineages.move_to_end(key)
                    self._version_by_fp[key] = record
                    evicted = self._evict_lineages()
                self._pin(record)
        _RULESET_VERSIONS.labels().inc()
        self._released(evicted)
        return record, False

    def _build_dispatcher(
        self,
        automaton: Automaton,
        composed: ComposedRuleset | None,
        engine: Engine | None = None,
    ) -> Dispatcher:
        """Compile ``automaton``'s dispatcher (``_compile_lock`` held):
        composed from cached component artifacts when the incremental
        compile ran, around the ready whole-ruleset ``engine`` when one
        shard would compile exactly that, the classic whole-shard
        compile otherwise."""
        prebuilt = None
        if composed is not None:
            prebuilt = composed.build_shards(
                self.config.num_shards, self.config.backend
            )
        dispatcher = Dispatcher(automaton, self.config, prebuilt=prebuilt)
        if (
            prebuilt is None
            and engine is not None
            and dispatcher.num_shards == 1
            and not dispatcher.num_dropped_states
        ):
            # one shard that dropped no reporterless component IS the
            # ruleset; anything else compiles its own shard engines
            dispatcher = Dispatcher(
                automaton, self.config, prebuilt=(dispatcher.shards, [engine])
            )
        # its shard builds count their disk outcomes with the service's
        dispatcher.cache_stats = self.cache_stats
        dispatcher.engines  # compile the shard engines now
        return dispatcher

    @staticmethod
    def _prepared(record: RulesetVersion) -> RulesetVersion:
        """``record``, its shard kernels' step tables derived now, so
        that no request derives them.  Registration calls it once its
        compile is released: deriving inside the build would add the
        derivation's transient memory to the build's peak."""
        for engine in record.dispatcher.engines:
            engine.kernel.prepare()
        return record

    def _evict_lineages(self) -> list[RulesetVersion]:
        """Unlink least-recently-used lineages past capacity (``_lock``
        held), sparing the most recent one and any with an open session;
        returns their records for :meth:`_released`."""
        evicted: list[RulesetVersion] = []
        excess = len(self._lineages) - self.config.cache_capacity
        if excess <= 0:  # the common case, on every insert and close
            return evicted
        for handle in list(self._lineages)[:-1]:
            versions = self._lineages[handle]
            if not any(record.sessions for record in versions):
                del self._lineages[handle]
                self.cache_stats.count("evictions")
                evicted += versions
                excess -= 1
                if not excess:
                    break
        for record in evicted:
            self._unlink(record)
        return evicted

    def _unlink(self, record: RulesetVersion) -> None:
        """Forget a record already out of its lineage (``_lock`` held)."""
        if self._version_by_fp.get(record.fingerprint) is record:
            del self._version_by_fp[record.fingerprint]
        if record.dispatcher._pool is not None:
            # another thread may be mid-scan on this pool; retire it
            # and close with the service instead
            self._retired.append(record.dispatcher)

    def _released(self, records: list[RulesetVersion]) -> None:
        """Finish releasing unlinked records, outside ``_lock`` (an
        unpin touches the store's files)."""
        for record in records:
            if record.component_keys and self.store is not None:
                with self._pin_lock:
                    self.store.unpin(record.component_keys)
            _RULESET_VERSIONS.labels().dec()

    # -- hardware-ledger plumbing -----------------------------------------
    def _check_design(self, ledger_design: str | None) -> str:
        """Resolve (and validate) a per-call ledger-design override."""
        if ledger_design is None:
            return self.config.ledger_design
        from repro.telemetry.ledger import check_ledger_design

        return check_ledger_design(ledger_design)

    def _ledger_probe(self, record: RulesetVersion, design: str):
        """A fresh :class:`~repro.telemetry.ledger.LedgerProbe` for one
        scan/session, reusing the record's design build + reference
        engine (placement and compilation are the expensive parts; the
        probe itself only holds stream state)."""
        from repro.telemetry.ledger import LedgerProbe, build_design

        automaton = record.automaton
        with self._compile_lock:
            ref = record.ledger_refs.get(design)
            if ref is None:
                probe = LedgerProbe(
                    automaton, design, build=build_design(design, automaton)
                )
                record.ledger_refs[design] = (probe.build, probe.engine)
                return probe
        build, engine = ref
        return LedgerProbe(automaton, design, build=build, engine=engine)

    def _ledger_run(self, record: RulesetVersion, design: str, data, trace):
        """A fresh probe run over one stream (a ``ledger.probe`` span)."""
        probe = self._ledger_probe(record, design)
        span = nullcontext() if trace is None else trace.span(
            "ledger.probe", design=design
        )
        with span:
            probe.run(data)
        return probe

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
        reconstructed automaton is the ruleset; the table record is
        built around the artifact's prebuilt engine — no compile — when
        the ruleset runs as one whole shard on a named backend (more
        shards, or a backend instance, compile their own engines), and
        the artifact is persisted to the service's store when one is
        attached.  The handle is the ruleset fingerprint — the same
        handle a source-level registration of the same rules yields.
        """
        from pathlib import Path

        from repro.compile.artifact import CompiledArtifact

        if isinstance(artifact, (bytes, bytearray)):
            artifact = CompiledArtifact.from_bytes(artifact)
        elif isinstance(artifact, (str, Path)):
            artifact = CompiledArtifact.load(artifact)
        # Uploads are untrusted: verify() re-binds the content-address
        # key to (content, options) and re-derives the match tables, so
        # a hand-edited artifact can neither poison another ruleset's
        # slot in a shared store nor smuggle in wrong match behaviour.
        # It also computes the language fingerprint from the content —
        # the automaton's memoized name, so _found does not hash again —
        # and rejects a manifest that disagrees, so the handle matches a
        # source-level registration of the same rules.
        artifact.verify()
        automaton = artifact.automaton()
        with self._lock:
            self._check_open()
        if self.store is not None:
            self.store.put(artifact)
        engine = None
        if isinstance(self.config.backend, str):
            # the "auto" -> "defer to the kernel the artifact was compiled for"
            # rewrite is resolved once, inside ScanConfig
            engine = artifact.engine(backend=self.config.engine_backend)
        self._prepared(self._found(automaton, prebuilt=engine)[0])
        return automaton.fingerprint, automaton

    # -- versioned live rulesets ------------------------------------------
    def register_ruleset(self, automaton: Automaton) -> RulesetVersion:
        """Register ``automaton`` as version 1 of a live lineage.

        Idempotent: re-registering a fingerprint already tracked — as
        any live version of any lineage — returns its existing record.
        When the incremental path is available (string backend), the
        dispatcher is *composed* from per-component artifacts — written
        to the store and pinned against eviction — so a later
        :meth:`update_ruleset` reuses every untouched component; a
        record an ad-hoc scan already built keeps its dispatcher and
        gains the component artifacts.  Registering the first rules of
        a lineage that has since been updated away from them swaps the
        lineage back (as its next version).
        """
        key = automaton.fingerprint
        with self._lock:
            versions = self._lineages.get(key)
            moved_on = bool(versions) and versions[-1].fingerprint != key
        if moved_on:
            return self.update_ruleset(key, automaton=automaton)
        record = self._exact(key)
        if record is None or (
            self._incremental is not None and not record.component_keys
        ):
            composed = self._compile_incremental(automaton)
            record, _ = self._found(automaton, composed)
            with self._pin_lock:
                with self._lock:
                    adopted = (
                        composed is not None
                        and not record.component_keys
                        and record in self._lineages.get(record.lineage, ())
                    )
                    if adopted:
                        vars(record).update(_component_fields(composed))
                if adopted:
                    self._pin(record)
            del composed  # its component artifacts, before the tables
        return self._prepared(record)

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
        opened by handle after this call see the new engines, while
        sessions already open keep feeding the old version's dispatcher
        and retire it when the last one closes.
        """
        if isinstance(ruleset, Automaton):
            ruleset = self.register_ruleset(ruleset).lineage
        latest, _ = self.resolve(ruleset)
        if automaton is None:
            automaton = apply_update(
                latest.automaton, add=add, remove=remove, name=name
            )
        new_key = automaton.fingerprint
        if new_key == latest.fingerprint:
            return latest
        composed = self._compile_incremental(automaton)
        with self._compile_lock:
            dispatcher = self._build_dispatcher(automaton, composed)
        with self._pin_lock:
            with self._lock:
                self._check_open()
                versions = self._lineages.get(latest.lineage)
                if versions is None:
                    raise UnknownRulesetError(
                        f"ruleset {latest.lineage!r} was evicted while its "
                        f"update compiled; register it again"
                    )
                current = versions[-1]
                if current.fingerprint == new_key:  # concurrent, identical
                    return current
                record = RulesetVersion(
                    lineage=latest.lineage,
                    version=current.version + 1,
                    fingerprint=new_key,
                    automaton=automaton,
                    dispatcher=dispatcher,
                    **_component_fields(composed),
                )
                versions.append(record)
                # an update that round-tripped to a language still live
                # leaves the index with the older record of it
                self._version_by_fp.setdefault(new_key, record)
                current.retired = True
            self._pin(record)
        _RULESET_VERSIONS.labels().inc()
        _RULESET_UPDATES.labels().inc()
        self._retire_if_idle(current)
        del composed  # its component artifacts, before the tables
        return self._prepared(record)

    def ruleset_version(self, fingerprint: str) -> RulesetVersion | None:
        """The live version record keyed by ``fingerprint`` (or None)."""
        with self._lock:
            return self._version_by_fp.get(fingerprint)

    def lineage_versions(self, lineage: str) -> list[RulesetVersion]:
        """All live versions of ``lineage``, oldest first."""
        with self._lock:
            return list(self._lineages.get(lineage, ()))

    def version_summary(self) -> dict:
        """Aggregate table counts for the stats surface."""
        with self._lock:
            records = [r for vs in self._lineages.values() for r in vs]
            return {
                "lineages": len(self._lineages),
                "live": len(records),
                "retiring": sum(
                    1 for r in records if r.retired and r.sessions
                ),
            }

    def _compile_incremental(
        self, automaton: Automaton
    ) -> ComposedRuleset | None:
        if self._incremental is None:
            return None
        with self._compile_lock:
            return self._incremental.compile(
                automaton,
                workers=self.config.workers,
                mp_start_method=self.config.mp_start_method,
            )

    def _pin(self, record: RulesetVersion) -> None:
        """Pin ``record``'s component artifacts (``_pin_lock`` held since
        before it entered the table, so no release can unpin first)."""
        if record.component_keys and self.store is not None:
            self.store.pin(record.component_keys)

    def _retire_if_idle(self, record: RulesetVersion) -> None:
        """Release a retired version once its sessions have drained."""
        with self._lock:
            versions = self._lineages.get(record.lineage, ())
            if not record.retired or record.sessions or record not in versions:
                return
            versions.remove(record)
            self._unlink(record)
        self._released([record])

    # -- one-shot scans --------------------------------------------------
    def scan(
        self,
        ruleset: "Automaton | str",
        data: bytes,
        *,
        chunk_size: int | None = None,
        max_reports: int | None = None,
        on_truncation: str | None = None,
        hardware_ledger: bool | None = None,
        ledger_design: str | None = None,
        trace: bool | None = None,
    ) -> ServiceResult:
        """Scan one complete stream against ``ruleset`` — a handle (the
        lineage's latest version, no hashing) or an automaton (exactly
        those rules, compiled on first sight): a one-stream
        :meth:`scan_many`.

        When the *default* kept-reports cap truncates recording, the
        service's (or the call's) ``on_truncation`` policy applies —
        warn, error, or stay silent; an explicit ``max_reports`` is
        taken as intentional, mirroring :meth:`Engine.run`.

        ``hardware_ledger`` / ``ledger_design`` / ``trace`` override the
        service config's telemetry fields for this call (None = keep).
        """
        return self.scan_many(
            ruleset,
            {None: data},  # the one stream, named None: no name to report
            chunk_size=chunk_size,
            max_reports=max_reports,
            on_truncation=on_truncation,
            hardware_ledger=hardware_ledger,
            ledger_design=ledger_design,
            trace=trace,
        )[None]

    def scan_many(
        self,
        ruleset: "Automaton | str",
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

        The ruleset resolves — and compiles, at most — once (see
        :meth:`scan` for handle vs. automaton), so every stream runs on
        one version; each stream gets its own independent START_OF_DATA
        semantics, report offsets, and truncation handling (a
        truncating stream warns or errors per ``on_truncation`` without
        affecting its siblings).

        The streams advance *together*: groups of up to
        ``ScanConfig.batch_max_rows`` streams step through the input as
        one fresh state matrix per shard, one batched kernel call per
        chunk (:meth:`Dispatcher.scan_many`), so a group of one-chunk
        streams costs one C call, not one per stream.  Results are
        byte-identical to one :meth:`scan` per stream.  The ledger's
        reference run and the truncation policy then apply per stream,
        inside the call's one timing and one trace: every result's
        ``elapsed_s`` is the whole call's wall-clock, and under
        ``trace`` every result carries the call's one trace.  The
        service metrics count every stream and byte, and time the call
        once (one latency sample per call, however many streams).
        """
        policy = (
            self.config.on_truncation
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
        explicit = max_reports is not None
        cap = max_reports if explicit else self.config.max_reports
        size = self.config.chunk_size if chunk_size is None else chunk_size
        trace = Trace() if want_trace else None

        def run(span=None):
            record, cached = self.resolve(ruleset)
            if span is not None:
                span.attrs["ruleset"] = record.automaton.name
            results = record.dispatcher.scan_many(
                list(streams.values()), chunk_size=size, max_reports=cap
            )
            probes = [None] * len(results)
            if want_ledger:
                probes = [
                    self._ledger_run(record, design, data, trace)
                    for data in streams.values()
                ]
            return record, cached, results, probes

        start = time.perf_counter()
        if trace is not None:
            total = sum(len(data) for data in streams.values())
            with start_trace(trace):
                with trace.span(
                    "service.scan", bytes=total, streams=len(streams)
                ) as span:
                    record, cached, results, probes = run(span)
        else:
            record, cached, results, probes = run()
        elapsed = time.perf_counter() - start

        dispatcher = record.dispatcher
        backends, num_shards = dispatcher.backend_names, dispatcher.num_shards
        sizes = list(map(len, streams.values()))
        if streams:  # streams and bytes are counted, the call timed once
            _SERVICE_SCANS.labels("hit" if cached else "miss").inc(len(sizes))
            _SERVICE_SCAN_BYTES.labels().inc(sum(sizes))
            _SERVICE_SCAN_SECONDS.labels().observe(elapsed)
        out = {}
        for name, nbytes, result, probe in zip(
            streams, sizes, results, probes
        ):
            ledger = None
            if probe is not None:
                ledger = probe.ledger()
                self._fold_ledger(ledger)
            if result.truncated and not explicit:
                stream = "" if name is None else f" (stream {name!r})"
                handle_truncation(
                    policy,
                    f"scan of {record.automaton.name!r}{stream} hit the "
                    f"kept-reports cap ({cap}); further reports were "
                    f"counted but not recorded",
                )
            # in field order: one result per stream, and keywords
            # cost as much again as the construction
            out[name] = ServiceResult(
                result.batch,
                result.stats,
                nbytes,
                elapsed,
                num_shards,
                cached,
                list(backends),
                result.truncated,
                ledger,
                trace,
            )
        return out

    # -- streaming sessions ----------------------------------------------
    def open_session(
        self,
        ruleset: "Automaton | str",
        name: str,
        *,
        max_reports: int | None = None,
        on_truncation: str | None = None,
        hardware_ledger: bool | None = None,
        ledger_design: str | None = None,
    ) -> Session:
        """Open a named resumable stream against ``ruleset`` (see
        :meth:`scan` for handle vs. automaton).

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
        record, _ = self.resolve(ruleset)
        probe = self._ledger_probe(record, design) if want_ledger else None
        with self._lock:
            if name in self.sessions:
                raise SimulationError(f"session {name!r} is already open")
            session = Session(
                name,
                record.dispatcher,
                self.config.merged(
                    max_reports=max_reports, on_truncation=on_truncation
                ),
                ledger_probe=probe,
            )
            # bind the session to the ruleset version it opened against:
            # neither a later update_ruleset nor the table's LRU releases
            # this version before the session closes, so the stream
            # finishes on these engines
            record.sessions += 1
            session.ruleset_version = record.version
            session.on_close = partial(self._release_session, record)
            self.sessions[name] = session
            _SESSIONS_OPEN.labels().inc()
            return session

    def close_session(self, name: str):
        """Close a session by name and return its accumulated result."""
        with self._lock:
            session = self.sessions.get(name)
        if session is None:
            raise SimulationError(f"no such session: {name!r}")
        return session.close()

    def _release_session(
        self, record: RulesetVersion, session: Session
    ) -> None:
        """Unbind a closing session from the ``record`` it opened
        against: the one release path, run by :meth:`Session.close`.
        A no-op for a session already released, or once the service is
        closed (:meth:`close` released everything)."""
        with self._lock:
            if self.closed or self.sessions.get(session.name) is not session:
                return
            del self.sessions[session.name]
            record.sessions -= 1
            # the stream may have been all that held its lineage in an
            # over-full table
            evicted = self._evict_lineages()
        _SESSIONS_OPEN.labels().dec()
        self._fold_ledger(session.ledger())
        self._released(evicted)
        self._retire_if_idle(record)

    def close(self) -> None:
        """Tear the service down: sessions, dispatchers, worker pools.

        Idempotent and safe after a scan or feed raised mid-stream:
        every open session is closed (its accumulated result is
        discarded), every dispatcher — including any the table already
        released — closes its worker pool, and later use of the
        service raises instead of silently recompiling.
        """
        with self._lock:
            if self.closed:
                return
            self.closed = True
            sessions = list(self.sessions.values())
            self.sessions.clear()
            records = [r for vs in self._lineages.values() for r in vs]
            dispatchers = [r.dispatcher for r in records] + self._retired
            self._retired = []
            self._lineages.clear()
            self._version_by_fp.clear()
        for session in sessions:
            _SESSIONS_OPEN.labels().dec()
            session.close()
        for dispatcher in dispatchers:
            dispatcher.close()
        self._released(records)

    def __enter__(self) -> "MatchingService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
