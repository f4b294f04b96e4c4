"""Asyncio network front end for :class:`~repro.service.service.MatchingService`.

:class:`MatchingServer` exposes the full service surface — ruleset
registration, one-shot ``scan`` / ``scan_many``, named resumable
sessions, and service statistics — over TCP as length-prefixed frames
whose stream data and report arrays travel raw
(:mod:`repro.service.protocol`).  It is the deployment shape the
paper motivates: one shared accelerator (here, the compiled-ruleset
cache plus sharded backends) serving many remote tenants.

The listening side — one buffered protocol per connection, frame
limits, in-flight backpressure, drain, error frames — is the shared
:class:`~repro.service.transport.FrameServer`; this module supplies its
op table.  The light ops (``ping``, ``health``, ``stats``) return a
dict, answered in the socket callback that read the frame.  Every
``feed`` goes through the cross-connection
:class:`~repro.service.batching.BatchScheduler`: a small chunk of a
C-loop session whose ruleset is idle steps inline and is answered in
that same callback (the kernel work is shorter than a hand-off to a
worker thread); every other feed runs on the transport's thread pool,
coalesced with the feeds parked behind a running batch, and is
answered on the connection's task.  Every other op that touches the
service is a thread-pool future, answered in its done-callback, so
compiles, scans and the Python kernels never block the loop.

Sessions opened over the network are scoped to their connection: two
clients may both open a session called ``"s"``, and a dropped
connection closes its own sessions only.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.api.config import ScanConfig
from repro.errors import ArtifactError, ConfigError, ReproError
from repro.service.batching import BatchScheduler
from repro.service.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    DEFAULT_MAX_INFLIGHT,
    PROTOCOL_VERSION,
    ProtocolError,
    artifact_from_frame,
    automaton_from_frame,
    decode_data,
    encode_reports,
    ruleset_update_from_frame,
    scan_config_from_frame,
)
from repro.service.service import MatchingService
from repro.service.transport import (
    Background,
    Connection,
    FrameServer,
    run_until_shutdown as run_server,  # noqa: F401 — the public name
)
from repro.telemetry.log import get_logger
from repro.telemetry.metrics import default_registry

_log = get_logger("repro.service.server")

_REGISTRY = default_registry()


def _truncation_message(what: str, cap: int) -> str:
    return (
        f"{what} hit the kept-reports cap ({cap}); further reports are "
        f"counted but not recorded"
    )


@dataclass
class _ServerSession:
    """One network session: the service session plus its frame policy."""

    name: str
    internal: str
    on_truncation: str
    max_reports: int
    warned: bool = False
    #: when True, every feed response carries the serialized per-shard
    #: engine states (the cluster router's failover checkpoint)
    checkpoint: bool = False


@dataclass
class _BackendStats:
    """Aggregate scan traffic attributed to one resolved backend mix."""

    scans: int = 0
    bytes: int = 0
    elapsed_s: float = 0.0

    @property
    def throughput_mbps(self) -> float:
        if self.elapsed_s <= 0.0:
            return 0.0
        return self.bytes / self.elapsed_s / 1e6


class MatchingServer(FrameServer):
    """Serve a :class:`MatchingService` over TCP (length-prefixed frames).

    Args:
        service: the service to expose; one is built from ``config``
            when omitted.
        config: the :class:`~repro.api.config.ScanConfig` for the
            service built when ``service`` is omitted.
        host, port, max_frame_bytes, max_inflight, executor_workers,
            allow_shutdown: see
            :class:`~repro.service.transport.FrameServer`; the thread
            pool is where scans, compiles and every feed the scheduler
            does not step inline run.
    """

    def __init__(
        self,
        service: MatchingService | None = None,
        *,
        config: ScanConfig | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        executor_workers: int = 4,
        allow_shutdown: bool = True,
    ) -> None:
        heavy = self._heavy
        super().__init__(
            {
                "ping": self._op_ping,
                "health": self._op_health,
                "stats": self._op_stats,
                "register": heavy(self._op_register),
                "register_artifact": heavy(self._op_register_artifact),
                "update": heavy(self._op_update),
                "scan": heavy(self._op_scan),
                "scan_many": heavy(self._op_scan_many),
                "open": heavy(self._op_open),
                "feed": self._op_feed,
                "close": heavy(self._op_close),
            },
            host=host,
            port=port,
            max_frame_bytes=max_frame_bytes,
            max_inflight=max_inflight,
            executor_workers=executor_workers,
            allow_shutdown=allow_shutdown,
        )
        if service is None:
            service = MatchingService(
                config if config is not None else ScanConfig()
            )
        elif config is not None:
            raise ConfigError(
                "pass either a prebuilt service or a config, not both"
            )
        self.service = service
        # wire semantics: a frame that names no truncation policy warns,
        # independent of the service's own scan policy (the client gets
        # the warning and decides); per-frame options merge onto this
        self._frame_base = service.config.replace(on_truncation="warn")
        self._backend_stats: dict[str, _BackendStats] = {}
        # ops run on executor threads; guard their shared mutable state
        self._state_lock = threading.Lock()
        # the one feed path: feeds from concurrent connections that
        # arrive while their ruleset's kernel is busy coalesce into one
        # batched step (batch_max_rows=1: never); per-connection order
        # is untouched (one in-flight frame per connection)
        self._batcher = BatchScheduler(
            self._executor, max_rows=service.config.batch_max_rows
        )

    # -- lifecycle --------------------------------------------------------
    async def drain(self) -> None:
        # flush what is parked and stop parking: feeds racing in behind
        # the drain (frames already read off a socket) then run at once
        # instead of queueing behind a running batch
        self._batcher.close()
        await super().drain()

    async def stop(self) -> None:
        """Drain, then release the executor and the service's pools."""
        await super().stop()
        self.service.close()

    # -- transport hooks --------------------------------------------------
    async def _release_connection(self, conn: Connection) -> None:
        """Release a dropped connection's sessions (results discarded)."""
        for record in conn.sessions.values():
            try:
                self.service.close_session(record.internal)
            except ReproError as exc:
                _log.warning(
                    "session.close_failed",
                    conn_id=conn.conn_id,
                    session=record.name,
                    error=str(exc),
                )
        conn.sessions.clear()

    def _heavy(self, handler):
        """Table entry for an op that touches the service (payloads,
        compiles, or its lock): always the thread pool, never the loop."""
        return lambda conn, frame: self._offload(handler, conn, frame)

    # -- shared op plumbing ----------------------------------------------
    @staticmethod
    def _handle(frame: dict) -> str:
        """The ruleset handle a request names; the service's table
        resolves it, or raises the error that answers ``unknown-handle``
        (:class:`~repro.errors.UnknownRulesetError`)."""
        handle = frame.get("handle")
        if not isinstance(handle, str):
            raise ProtocolError("request has no 'handle'", code="bad-request")
        return handle

    def _scan_config(self, frame: dict) -> tuple:
        """The request's effective scan config (see
        :func:`~repro.service.protocol.scan_config_from_frame`); the
        typed config object is the single validation surface for loose
        frame fields and ``config`` objects alike."""
        return scan_config_from_frame(frame, self._frame_base)

    def _record_backend_traffic(self, result) -> None:
        key = "+".join(sorted(set(result.backends))) or "unresolved"
        with self._state_lock:
            stats = self._backend_stats.setdefault(key, _BackendStats())
            stats.scans += 1
            stats.bytes += result.bytes_scanned
            stats.elapsed_s += result.elapsed_s

    @staticmethod
    def _scan_options(cfg: ScanConfig) -> dict:
        """What a frame's config asks of the service; truncation policy
        is applied at the frame level (:meth:`_scan_payload`), so the
        service itself must not warn inside a worker thread."""
        return {
            "chunk_size": cfg.chunk_size,
            "max_reports": cfg.max_reports,
            "on_truncation": "ignore",
            "hardware_ledger": cfg.hardware_ledger,
            "ledger_design": cfg.ledger_design,
            "trace": cfg.trace,
        }

    def _scan_payload(
        self, result, cfg: ScanConfig, explicit_cap: bool
    ) -> dict:
        """Serialize one ServiceResult, applying the frame-level policy.

        Matches engine-level semantics: an *explicit* per-request cap is
        intentional and silent; hitting the service default cap warns
        (a ``warnings`` entry the client re-raises) or errors.
        """
        self._record_backend_traffic(result)
        warnings_out: list[str] = []
        if result.truncated and not explicit_cap:
            message = _truncation_message("scan", cfg.max_reports)
            if cfg.on_truncation == "error":
                raise ProtocolError(message, code="truncated")
            if cfg.on_truncation == "warn":
                warnings_out.append(message)
        payload = {
            "reports": encode_reports(result.reports),
            "num_reports": result.num_reports,
            "truncated": result.truncated,
            "bytes": result.bytes_scanned,
            "elapsed_s": result.elapsed_s,
            "backends": result.backends,
            "cached": result.cached,
            "warnings": warnings_out,
        }
        if result.ledger is not None:
            payload["ledger"] = result.ledger.to_dict()
        if result.trace is not None:
            payload["trace_id"] = result.trace_id
        return payload

    # -- ops ---------------------------------------------------------------
    def _op_ping(self, conn: Connection, frame: dict) -> dict:
        return {"pong": True, "version": PROTOCOL_VERSION}

    def _op_health(self, conn: Connection, frame: dict) -> dict:
        """Liveness + inventory in one light frame (no matching work).

        What a router (or any load balancer / monitor) polls: whether
        the server is draining, how long it has been up, what rulesets
        and versions it holds, and how much work is in flight right
        now.  Runs on the event loop — it must answer even when every
        executor thread is busy scanning.
        """
        versions = self.service.version_summary()
        return {
            "status": "draining" if self.draining else "ok",
            "uptime_s": round(time.monotonic() - self._started_monotonic, 3),
            "version": PROTOCOL_VERSION,
            "rulesets": versions["lineages"],
            "ruleset_versions": versions,
            "open_sessions": len(self.service.sessions),
            "inflight": self._inflight,
            "connections": len(self._conns),
        }

    def _op_register(self, conn: Connection, frame: dict) -> dict:
        automaton = automaton_from_frame(frame)
        handle = automaton.fingerprint
        cached = self.service.ruleset_version(handle) is not None
        # compile (and cache) the shard engines now: registration is the
        # expensive step, scans against the handle stay warm.  Versioned
        # registration also writes per-component artifacts, so a later
        # ``update`` reuses every untouched component.
        record = self.service.register_ruleset(automaton)
        return {
            "handle": handle,
            "states": len(automaton),
            "cached": cached,
            "version": record.version,
            "fingerprint": record.fingerprint,
        }

    def _op_register_artifact(self, conn: Connection, frame: dict) -> dict:
        """Adopt a client-side precompiled ruleset ("compile once, load
        anywhere"): the table record is built around the artifact's
        prebuilt tables, so registration skips the compile the
        ``register`` op would have paid (a sharded service still
        compiles its own shard engines)."""
        artifact = artifact_from_frame(frame)
        # the manifest's claim (a string: validate() checked); it is
        # register_artifact that verifies it against the content
        cached = self.service.ruleset_version(artifact.fingerprint) is not None
        try:
            handle, automaton = self.service.register_artifact(artifact)
        except ArtifactError as exc:
            raise ProtocolError(str(exc), code="bad-artifact") from exc
        return {
            "handle": handle,
            "states": len(automaton),
            "cached": cached,
            "backend": artifact.backend,
        }

    def _op_update(self, conn: Connection, frame: dict) -> dict:
        """Hot-swap a registered ruleset to a new version, zero downtime.

        The handle keeps naming the lineage: scans and sessions opened
        afterwards see the new version, while sessions already open keep
        streaming against the version they opened with (the service
        retires it when its last session closes).  Compilation goes
        through the incremental path — only the added patterns'
        components compile; everything untouched is reused from cache.
        """
        handle = self._handle(frame)
        add, remove = ruleset_update_from_frame(frame)
        record = self.service.update_ruleset(handle, add=add, remove=remove)
        return {
            "handle": handle,
            "version": record.version,
            "fingerprint": record.fingerprint,
            "states": len(record.automaton),
            "reused_components": record.reused_components,
            "compiled_components": record.compiled_components,
        }

    def _op_scan(self, conn: Connection, frame: dict) -> dict:
        handle = self._handle(frame)
        data = decode_data(frame.get("data", b""))
        cfg, explicit_cap, digest = self._scan_config(frame)
        result = self.service.scan(handle, data, **self._scan_options(cfg))
        payload = self._scan_payload(result, cfg, explicit_cap)
        if digest is not None:
            payload["config_digest"] = digest
        return payload

    def _op_scan_many(self, conn: Connection, frame: dict) -> dict:
        handle = self._handle(frame)
        streams = frame.get("streams")
        if not isinstance(streams, dict):
            raise ProtocolError(
                "scan_many needs a 'streams' dict of name -> data attachment",
                code="bad-request",
            )
        cfg, explicit_cap, digest = self._scan_config(frame)
        decoded = {str(name): decode_data(data) for name, data in streams.items()}
        results = self.service.scan_many(
            handle, decoded, **self._scan_options(cfg)
        )
        payload = {
            "results": {
                name: self._scan_payload(result, cfg, explicit_cap)
                for name, result in results.items()
            }
        }
        if digest is not None:
            payload["config_digest"] = digest
        return payload

    def _op_open(self, conn: Connection, frame: dict) -> dict:
        handle = self._handle(frame)
        name = conn.new_session_name(frame)
        cfg, _, digest = self._scan_config(frame)
        internal = f"conn{conn.conn_id}/{name}"
        # policy is applied at the frame level (below); the underlying
        # session must not warn inside a worker thread
        session = self.service.open_session(
            handle,
            internal,
            max_reports=cfg.max_reports,
            on_truncation="ignore",
            hardware_ledger=cfg.hardware_ledger,
            ledger_design=cfg.ledger_design,
        )
        state = frame.get("state")
        if state is not None:
            # failover handoff: adopt a checkpointed snapshot taken on
            # another node, so this stream resumes at the snapshot's
            # absolute position (only a fresh session may restore)
            if not isinstance(state, list):
                self.service.close_session(internal)
                raise ProtocolError(
                    "open 'state' must be a list of per-shard engine "
                    "state objects",
                    code="bad-request",
                )
            try:
                session.restore(state)
            except ReproError as exc:
                self.service.close_session(internal)
                raise ProtocolError(str(exc), code="bad-request") from exc
        conn.sessions[name] = _ServerSession(
            name=name,
            internal=internal,
            on_truncation=cfg.on_truncation,
            max_reports=session.max_reports,
            checkpoint=bool(frame.get("checkpoint")),
        )
        payload = {"session": name, "position": session.position}
        if session.ruleset_version is not None:
            payload["version"] = session.ruleset_version
        if digest is not None:
            payload["config_digest"] = digest
        return payload

    def _op_feed(self, conn: Connection, frame: dict):
        """Step one chunk through the scheduler: inline on the loop
        (answered at once) when its ruleset is idle and the step is
        cheap, else on the thread pool, where it may advance with other
        connections' feeds in one batched kernel step."""
        record = conn.session(frame)
        data = decode_data(frame.get("data", b""))
        session = self.service.sessions[record.internal]
        reports = self._batcher.step_inline(session.dispatcher, session, data)
        if reports is None:
            return self._feed_later(record, session, data)
        return self._feed_payload(record, session, reports)

    async def _feed_later(self, record, session, data) -> dict:
        reports = await self._batcher.submit(session.dispatcher, session, data)
        return self._feed_payload(record, session, reports)

    def _feed_payload(self, record, session, reports) -> dict:
        """Serialize one feed's outcome, applying the frame-level policy."""
        warnings_out: list[str] = []
        if session.truncated and not record.warned:
            record.warned = True
            message = _truncation_message(
                f"session {record.name!r}", record.max_reports
            )
            if record.on_truncation == "error":
                raise ProtocolError(message, code="truncated")
            if record.on_truncation == "warn":
                warnings_out.append(message)
        payload = {
            "reports": encode_reports(reports),
            "position": session.position,
            "truncated": session.truncated,
            "warnings": warnings_out,
        }
        if record.checkpoint:
            # the serialized per-shard engine states *after* this chunk:
            # whoever holds this response can resume the stream from
            # here on any node with the same ruleset (open with state=)
            payload["state"] = [s.to_dict() for s in session.shard_states]
        ledger = session.ledger()
        if ledger is not None:
            payload["ledger"] = ledger.to_dict()
        return payload

    def _op_close(self, conn: Connection, frame: dict) -> dict:
        record = conn.session(frame)
        session = self.service.sessions.get(record.internal)
        ledger = session.ledger() if session is not None else None
        result = self.service.close_session(record.internal)
        del conn.sessions[record.name]
        payload = {
            "num_reports": result.num_reports,
            "cycles": result.stats.num_cycles,
            "truncated": result.truncated,
        }
        if ledger is not None:
            payload["ledger"] = ledger.to_dict()
        return payload

    def _op_stats(self, conn: Connection, frame: dict) -> dict:
        cache = self.service.cache_stats
        with self._state_lock:
            backend_stats = {
                name: {
                    "scans": stats.scans,
                    "bytes": stats.bytes,
                    "elapsed_s": stats.elapsed_s,
                    "throughput_mbps": stats.throughput_mbps,
                }
                for name, stats in self._backend_stats.items()
            }
        versions = self.service.version_summary()
        payload = {
            #: stats-frame schema version (2: adds ``stats_version``,
            #: ``ledger`` totals and the ``telemetry`` block; absent
            #: means v1)
            "stats_version": 2,
            "cache": {
                "hits": cache.hits,
                "misses": cache.misses,
                "evictions": cache.evictions,
                "hit_rate": cache.hit_rate,
            },
            "active_sessions": len(self.service.sessions),
            "connections": {
                "active": len(self._conns),
                "total": self._connections_total,
            },
            "frames": self._frames_processed,
            "rulesets": versions["lineages"],
            "ruleset_versions": versions,
            "backends": backend_stats,
            "telemetry": {
                "metrics_enabled": _REGISTRY.enabled,
                "hardware_ledger": self.service.config.hardware_ledger,
            },
            "batching": self._batcher.stats(),
            "draining": self.draining,
        }
        totals = self.service.ledger_totals
        if totals is not None:
            with self.service._lock:
                payload["ledger"] = totals.to_dict()
        return payload


class BackgroundServer(Background):
    """A :class:`MatchingServer` on a daemon thread with its own loop.

    Extra keyword arguments build the server when one is not passed in.

    ::

        with BackgroundServer(config=ScanConfig(num_shards=4)) as bg:
            client = MatchingClient(port=bg.port)
    """

    def __init__(self, server: MatchingServer | None = None, **kwargs) -> None:
        super().__init__(
            server if server is not None else MatchingServer(**kwargs)
        )
