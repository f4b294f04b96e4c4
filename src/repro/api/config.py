"""Typed configuration objects: the single source of option validation.

Four PRs grew four parallel entry points — ``Engine``/``CamaMachine``,
:class:`~repro.service.service.MatchingService`, the network server, and
the ``repro.compile`` pipeline — each re-declaring the same knobs as
loose keyword arguments.  This module collapses them into two frozen
dataclasses:

:class:`CompileConfig`
    Everything that changes *what gets compiled* (optimize, stride,
    backend hint, encoding knobs).  It is the same object the staged
    pipeline has always threaded through its passes —
    :class:`~repro.compile.ir.PipelineOptions` is now an alias — so its
    :meth:`~CompileConfig.digest` keeps feeding
    ``ruleset_fingerprint(automaton, options)`` unchanged: config
    identity and artifact keys come from one place.

:class:`ScanConfig`
    Everything that changes *how compiled rulesets execute and are
    cached* (backend policy, sharding, workers, chunking, report caps,
    truncation policy, the artifact store, the multiprocessing start
    method).  The service, dispatcher, session, server protocol and CLI
    all consume it; per-call overrides merge onto it with
    :meth:`~ScanConfig.merged`.

Both validate in ``__post_init__`` (raising
:class:`~repro.errors.ConfigError`), round-trip through
``to_dict``/``from_dict`` (the wire-protocol and artifact-manifest
form), and have a stable :meth:`digest`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, replace
from pathlib import Path

from repro.errors import ConfigError
from repro.sim.backends.base import (
    DEFAULT_MAX_KEPT_REPORTS,
    TRUNCATION_POLICIES,
)

#: default streaming granularity (bytes per run_chunk call) — canonical
#: definition; :mod:`repro.service.sharding` re-exports it
DEFAULT_CHUNK_SIZE = 64 * 1024

#: default max ruleset lineages resident in a service's table —
#: canonical definition; :mod:`repro.service.ruleset` re-exports it
DEFAULT_CACHE_CAPACITY = 32

#: strides the compilation pipeline knows how to build — canonical
#: definition; :mod:`repro.compile.ir` re-exports it
SUPPORTED_STRIDES = (1, 2)

#: multiprocessing start methods a :class:`ScanConfig` accepts (None =
#: platform default); availability is checked at pool creation, not here
MP_START_METHODS = (None, "fork", "spawn", "forkserver")


def _require_int(name: str, value, *, minimum: int) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(
            f"{name} must be an int, got {type(value).__name__}"
        )
    if value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")


def _canonical_digest(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


@dataclass(frozen=True)
class CompileConfig:
    """Configuration of one compilation: what the pipeline builds.

    Every field is *pipeline-relevant*: it changes the compiled output,
    so it participates in :meth:`digest` and therefore in artifact keys
    (see ``ruleset_fingerprint(automaton, options)``).

    Args:
        optimize: run the VASim-style optimization pass (dead-state
            removal + prefix merging).  Off by default — the service
            layer must execute rulesets exactly as given, since
            optimization renumbers states and thus report ids.
        stride: temporal stride (1 or 2).  Stride 2 builds the
            2-strided automaton and a :class:`~repro.sim.engine.
            StridedEngine`; the CAMA encoding/mapping passes apply only
            at stride 1.
        backend: execution-backend *hint* for the kernel-prebuild pass
            ("sparse" / "native" / "auto"), or None to
            skip kernel prebuild (program-only compilations).
        allow_negation: apply negation optimization per state.
        clustered: apply frequency-first symbol clustering.
        fixed_32bit: bypass selection and use the fixed 32-bit
            One-Zero-Prefix baseline of Table II.
    """

    optimize: bool = False
    stride: int = 1
    backend: str | None = "sparse"
    allow_negation: bool = True
    clustered: bool = True
    fixed_32bit: bool = False

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> "CompileConfig":
        """Check every field; kept as a method for legacy call sites
        (validation already ran in ``__post_init__``)."""
        from repro.sim.backends import BACKEND_NAMES

        if self.stride not in SUPPORTED_STRIDES:
            raise ConfigError(
                f"unsupported stride {self.stride}; "
                f"supported: {SUPPORTED_STRIDES}"
            )
        if self.backend is not None and self.backend not in BACKEND_NAMES:
            raise ConfigError(
                f"unknown execution backend {self.backend!r}; "
                f"known: {', '.join(BACKEND_NAMES)}"
            )
        return self

    def replace(self, **changes) -> "CompileConfig":
        return replace(self, **changes)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "CompileConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(
                f"unknown pipeline options: {', '.join(sorted(unknown))}"
            )
        return cls(**data)

    def digest(self) -> str:
        """Stable hex digest of the option set (keys artifact caches)."""
        return _canonical_digest(self.to_dict())


@dataclass(frozen=True)
class ScanConfig:
    """Configuration of scan execution: how compiled rulesets run.

    One object carries every knob the service stack used to re-declare
    per signature; :class:`~repro.service.service.MatchingService`,
    :class:`~repro.service.sharding.Dispatcher`,
    :class:`~repro.service.session.Session`, the server protocol and
    the CLI all consume it.

    Args:
        backend: execution backend policy — ``"sparse"``,
            ``"native"`` (compiled C loop, degrades to sparse when no
            compiled library is loadable), ``"auto"`` (resolves per
            shard), or an
            :class:`~repro.sim.backends.ExecutionBackend` instance
            (not serializable: :meth:`to_dict` rejects it).
        num_shards: shards per ruleset (whole connected components,
            balanced by state count).
        workers: processes for one-shot scans — ``scan`` and
            ``scan_many`` alike run one pool task per shard, covering
            every stream; 1 = in-process.
        chunk_size: streaming granularity in bytes.
        cache_capacity: max ruleset lineages resident in the service's
            table (the in-memory cache of compiled rulesets).
        max_reports: kept-reports cap for scans and sessions that do
            not pass their own explicit cap.
        on_truncation: reaction when the *default* cap truncates
            recording: ``"warn"``, ``"error"``, or ``"ignore"``.
        artifact_store: optional persistent compiled-artifact cache (an
            :class:`~repro.compile.store.ArtifactStore` or a directory
            path).
        mp_start_method: multiprocessing start method for sharded
            worker pools (None = platform default).  Workers get the
            compiled shard engines at pool start either way —
            copy-on-write under ``fork``, pickled under ``spawn``.
        hardware_ledger: attach the modeled-hardware ledger (CAMA
            energy breakdown, cycle latency, tile occupancy — see
            :mod:`repro.telemetry.ledger`) to every scan result and
            session.  Costs a reference re-run of the input on the
            Python sparse kernel: ~900x slower than a plain native
            scan (0.033 vs 29.4 MB/s on Snort at 1/32 scale).
        ledger_design: which architecture model prices the ledger
            (any :data:`repro.arch.designs.ALL_DESIGNS` name).
        trace: record a per-call span tree (scan -> dispatcher ->
            kernel batches, compile passes, ledger probes) and carry its
            ``trace_id`` through results and protocol frames; one
            ``scan_many`` call is one trace, shared by all its streams.
        batch_max_rows: max stream rows coalesced into one batched
            kernel step (one-shot scans step ``scan_many``'s streams in
            groups of this many, and the server's batch scheduler
            flushes with reason ``rows_full`` at this bound).  1 steps
            every stream alone: a one-row batch, the same path.
            There is no delay knob beside it: the server's scheduler
            is work-conserving, so a feed only ever waits behind a
            batch that is already running for its ruleset.
    """

    backend: object = "auto"
    num_shards: int = 1
    workers: int = 1
    chunk_size: int = DEFAULT_CHUNK_SIZE
    cache_capacity: int = DEFAULT_CACHE_CAPACITY
    max_reports: int = DEFAULT_MAX_KEPT_REPORTS
    on_truncation: str = "warn"
    artifact_store: object = None
    mp_start_method: str | None = None
    hardware_ledger: bool = False
    ledger_design: str = "CAMA-E"
    trace: bool = False
    batch_max_rows: int = 64

    def __post_init__(self) -> None:
        from repro.sim.backends import BACKEND_NAMES, ExecutionBackend

        if isinstance(self.backend, str):
            if self.backend not in BACKEND_NAMES:
                raise ConfigError(
                    f"unknown execution backend {self.backend!r}; "
                    f"known: {', '.join(BACKEND_NAMES)}"
                )
        elif not isinstance(self.backend, ExecutionBackend):
            raise ConfigError(
                f"not an execution backend: {self.backend!r} (expected a "
                f"name or an object with .name and .compile)"
            )
        _require_int("num_shards", self.num_shards, minimum=1)
        _require_int("workers", self.workers, minimum=1)
        _require_int("chunk_size", self.chunk_size, minimum=1)
        _require_int("cache_capacity", self.cache_capacity, minimum=1)
        _require_int("max_reports", self.max_reports, minimum=0)
        if self.on_truncation not in TRUNCATION_POLICIES:
            raise ConfigError(
                f"unknown truncation policy {self.on_truncation!r}; "
                f"expected one of {', '.join(TRUNCATION_POLICIES)}"
            )
        if self.mp_start_method not in MP_START_METHODS:
            known = ", ".join(str(m) for m in MP_START_METHODS)
            raise ConfigError(
                f"unknown mp_start_method {self.mp_start_method!r}; "
                f"expected one of {known}"
            )
        _require_int("batch_max_rows", self.batch_max_rows, minimum=1)
        for flag in ("hardware_ledger", "trace"):
            if not isinstance(getattr(self, flag), bool):
                raise ConfigError(
                    f"{flag} must be a bool, got "
                    f"{type(getattr(self, flag)).__name__}"
                )
        if self.hardware_ledger:
            # lazy: the design registry sits above the simulator and is
            # only needed when the ledger is actually requested
            from repro.telemetry.ledger import check_ledger_design

            check_ledger_design(self.ledger_design)
        elif not isinstance(self.ledger_design, str):
            raise ConfigError(
                f"ledger_design must be a design name, got "
                f"{type(self.ledger_design).__name__}"
            )

    # -- backend policy, resolved exactly once ----------------------------
    @property
    def engine_backend(self) -> object | None:
        """The backend to rebuild an adopted artifact's engine with.

        ``"auto"`` resolves to None — *defer to the backend the
        artifact was compiled for* — while a pinned backend
        passes through.  This is the one place the ``"auto"`` policy is
        rewritten; every consumer (service artifact registration, the
        facade) reads it from here instead of re-deriving it.
        """
        return None if self.backend == "auto" else self.backend

    def replace(self, **changes) -> "ScanConfig":
        return replace(self, **changes)

    def merged(self, **overrides) -> "ScanConfig":
        """This config with non-None per-call overrides applied.

        The merge pattern behind ``scan(..., chunk_size=..., )``-style
        call-level options: ``None`` means "keep the configured value".
        """
        changes = {k: v for k, v in overrides.items() if v is not None}
        return replace(self, **changes) if changes else self

    # -- serialization (wire protocol + manifests) ------------------------
    def to_dict(self) -> dict:
        """The JSON-serializable form used by wire frames and manifests.

        A backend *instance* has no stable serial form and is rejected;
        an attached store serializes as its directory path.
        """
        if not isinstance(self.backend, str):
            raise ConfigError(
                "a backend instance cannot be serialized; select the "
                "backend by registry name to put it in a config dict"
            )
        store = self.artifact_store
        if store is not None and not isinstance(store, (str, Path)):
            store = getattr(store, "root", None)
            if store is None:
                raise ConfigError(
                    "this artifact store cannot be serialized (no root "
                    "directory); pass a directory path instead"
                )
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload["artifact_store"] = None if store is None else str(store)
        return payload

    @classmethod
    def from_dict(cls, data: dict) -> "ScanConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(
                f"unknown scan options: {', '.join(sorted(unknown))}"
            )
        return cls(**data)

    def digest(self) -> str:
        """Stable hex digest of the full option set.

        Round-trips unchanged through ``to_dict``/``from_dict`` — i.e.
        through a wire frame or an artifact manifest — which the
        protocol tests assert end to end.
        """
        return _canonical_digest(self.to_dict())


@dataclass(frozen=True)
class ClusterConfig:
    """Configuration of a cluster deployment: fleet shape + admission.

    Consumed by :meth:`repro.api.RulesetHandle.serve_cluster` (which
    spawns the node processes and the router) and by the ``repro
    route`` CLI.  Node-level execution options still come from
    :class:`ScanConfig` — this object only describes what sits *above*
    the nodes: how many there are, how rulesets replicate across them,
    how often the router probes liveness, and what each tenant may
    consume.

    Quota fields of ``None`` mean unlimited; any non-None one arms the
    router's admission control (see :mod:`repro.cluster.quotas`).

    Args:
        num_nodes: matching-server processes in the fleet.
        replication: nodes per ruleset; >= 2 enables mid-stream
            failover.
        health_interval_s: router liveness-probe period (dead nodes
            rejoin automatically when they answer again).
        node_timeout_s: per-request router→node round-trip budget; a
            node that is connected but hung exceeds it and fails over
            like a dead one (None = wait forever).
        tenant_bytes_per_s: sustained scan/feed bytes per tenant.
        tenant_requests_per_s: sustained scan/feed requests per tenant.
        tenant_max_sessions: concurrently open sessions per tenant.
        tenant_compile_cost: compile cost (pattern count) admitted per
            ``quota_window_s`` per tenant.
        quota_window_s: burst window of the rate quotas.
    """

    num_nodes: int = 2
    replication: int = 2
    health_interval_s: float = 2.0
    node_timeout_s: float | None = 60.0
    tenant_bytes_per_s: float | None = None
    tenant_requests_per_s: float | None = None
    tenant_max_sessions: int | None = None
    tenant_compile_cost: int | None = None
    quota_window_s: float = 10.0

    def __post_init__(self) -> None:
        _require_int("num_nodes", self.num_nodes, minimum=1)
        _require_int("replication", self.replication, minimum=1)
        if self.replication > self.num_nodes:
            raise ConfigError(
                f"replication ({self.replication}) cannot exceed "
                f"num_nodes ({self.num_nodes})"
            )
        if self.health_interval_s <= 0:
            raise ConfigError("health_interval_s must be > 0")
        if self.node_timeout_s is not None and self.node_timeout_s <= 0:
            raise ConfigError("node_timeout_s must be > 0 (or None)")
        if self.quota_window_s <= 0:
            raise ConfigError("quota_window_s must be > 0")

    def quotas(self):
        """The :class:`~repro.cluster.quotas.QuotaManager` these limits
        describe, or None when every quota field is unlimited."""
        from repro.cluster.quotas import QuotaManager, TenantQuota

        quota = TenantQuota(
            bytes_per_s=self.tenant_bytes_per_s,
            requests_per_s=self.tenant_requests_per_s,
            max_open_sessions=self.tenant_max_sessions,
            compile_cost_per_window=self.tenant_compile_cost,
            window_s=self.quota_window_s,
        )
        return None if quota.unlimited else QuotaManager(quota)

    def replace(self, **changes) -> "ClusterConfig":
        return replace(self, **changes)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "ClusterConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(
                f"unknown cluster options: {', '.join(sorted(unknown))}"
            )
        return cls(**data)

    def digest(self) -> str:
        """Stable hex digest of the full option set."""
        return _canonical_digest(self.to_dict())
