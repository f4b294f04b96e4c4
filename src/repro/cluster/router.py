"""The cluster router: one frame endpoint fronting a fleet of nodes.

Clients speak the ordinary service protocol
(:mod:`repro.service.protocol`) to the router exactly as they would to
a single :class:`~repro.service.server.MatchingServer`; the router
places rulesets on nodes by consistent hashing over their content
fingerprint (:mod:`repro.cluster.placement`), admits work per tenant
(:mod:`repro.cluster.quotas`), and forwards frames to the owning nodes
over raw :class:`~repro.cluster.nodes.NodeChannel` connections.

Three fleet behaviours live here:

* **single-compile registration** — ``register`` runs on the placement
  primary first (paying the one compile and publishing component
  artifacts to the shared store), then on the replicas, whose
  registrations hit the store instead of compiling;
* **failover** — every proxied session is opened with
  ``checkpoint: true``, so each feed response carries the serialized
  per-shard engine states.  When a node dies mid-stream the router
  opens the session on a replica with ``state=`` (the last checkpoint),
  re-sends the failed chunk, and the stream resumes byte-identically —
  the checkpoint only ever advances when a feed *response* arrived, so
  replaying the in-flight chunk is exactly-once;
* **admission control** — over-quota tenants get typed ``over-quota``
  error frames (with ``retry_after_s``) before any node sees the work.

The listening side is the same
:class:`~repro.service.transport.FrameServer` a node runs — this module
is its second op table: frames of one client connection are processed
strictly in order (feed ordering is what makes sessions streams);
different connections proceed concurrently, each with its own channels
to the nodes.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from dataclasses import dataclass, field
from functools import partial

from repro.errors import ConfigError, ReproError
from repro.cluster.nodes import (
    DEFAULT_REQUEST_TIMEOUT_S as DEFAULT_NODE_TIMEOUT_S,
    NodeChannel,
    NodeError,
    NodeHandle,
    NodePool,
)
from repro.cluster.placement import HashRing
from repro.cluster.quotas import QuotaExceededError, QuotaManager
from repro.service.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    artifact_from_frame,
    automaton_from_frame,
    decode_data,
    report_count,
)
from repro.service.transport import Background, Connection, FrameServer
from repro.telemetry.log import get_logger
from repro.telemetry.metrics import default_registry

_log = get_logger("repro.cluster.router")

_REGISTRY = default_registry()
_ROUTER_REQUESTS = _REGISTRY.counter(
    "repro_router_requests_total",
    "Frames the router forwarded, by node and outcome",
    ("node", "outcome"),
)
_ROUTER_FAILOVERS = _REGISTRY.counter(
    "repro_router_failovers_total",
    "Session failovers executed, by (dead) source node",
    ("node",),
)
_ROUTER_QUOTA_REJECTIONS = _REGISTRY.counter(
    "repro_router_quota_rejections_total",
    "Admissions rejected, by tenant and resource",
    ("tenant", "resource"),
)

#: tenant frames without an explicit id are billed to this shared pool
DEFAULT_TENANT = "default"


@dataclass
class _FleetRuleset:
    """One ruleset the fleet serves: how to place it and re-create it."""

    handle: str
    #: the original (id-less) register frame — replayed to re-register
    #: on recovered or newly targeted nodes
    frame: dict
    placement: list[str]
    #: every (id-less) ``update`` frame applied since registration, in
    #: order.  Re-creating the ruleset on a node is ``frame`` followed
    #: by this whole sequence — replaying the register alone would
    #: resurrect the *pre-update* rules on a node that was dead (or
    #: dropped mid-fan-out) during an update, and scans routed to it
    #: would silently answer from stale rules.
    updates: list[dict] = field(default_factory=list)


@dataclass
class _RoutedSession:
    """Router-side bookkeeping of one proxied session."""

    name: str
    handle: str
    tenant: str
    node: str
    #: the (id-less) open frame, with ``checkpoint: true`` forced — the
    #: failover open replays it (plus ``state=``) on a replica
    open_frame: dict
    #: whether the *client* asked for checkpoint states; if not, the
    #: router strips them from feed responses before relaying
    client_checkpoint: bool = False
    state: list | None = None
    position: int = 0
    num_reports: int = 0
    truncated: bool = False
    failed_over: bool = False


@dataclass(eq=False)
class _ClientConn(Connection):
    """A client connection: its routed sessions and node channels."""

    channels: dict[str, NodeChannel] = field(default_factory=dict)
    rr: itertools.count = field(default_factory=lambda: itertools.count())


class ClusterRouter(FrameServer):
    """Route service-protocol frames across a fleet of matching nodes.

    Args:
        nodes: initial fleet members — ``(host, port)`` pairs or
            ``"host:port"`` strings (more can join at runtime via the
            ``hello`` op).
        replication: nodes per ruleset (placement size); scans spread
            round-robin across the alive replicas, failover needs >= 2.
        quotas: optional :class:`~repro.cluster.quotas.QuotaManager`;
            None admits everything.
        host, port, max_frame_bytes, allow_shutdown: see
            :class:`~repro.service.transport.FrameServer`.
        health_interval_s: period of the background liveness probe
            (dead nodes rejoin automatically once they answer again).
        node_timeout_s: per-request round-trip budget on node channels
            (None = wait forever).  A node that is connected but hung
            exceeds it, raises :class:`NodeError`, and takes the same
            dead-marking/failover path as a crashed one.
    """

    role = "router"
    connection_type = _ClientConn

    def __init__(
        self,
        nodes=(),
        *,
        replication: int = 2,
        quotas: QuotaManager | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        allow_shutdown: bool = True,
        health_interval_s: float = 2.0,
        node_timeout_s: float | None = DEFAULT_NODE_TIMEOUT_S,
    ) -> None:
        if replication < 1:
            raise ConfigError("replication must be >= 1")
        if health_interval_s <= 0:
            raise ConfigError("health_interval_s must be > 0")
        if node_timeout_s is not None and node_timeout_s <= 0:
            raise ConfigError("node_timeout_s must be > 0 (or None)")
        super().__init__(
            {
                "ping": self._op_ping,
                "health": self._op_health,
                "stats": self._op_stats,
                "hello": self._op_hello,
                "register": self._op_register,
                "register_artifact": self._op_register,
                "update": self._op_update,
                "scan": self._op_scan,
                "scan_many": self._op_scan,
                "open": self._op_open,
                "feed": self._op_feed,
                "close": self._op_close,
            },
            host=host,
            port=port,
            max_frame_bytes=max_frame_bytes,
            # ruleset parsing (fingerprint-before-placement) is
            # CPU-bound; two threads keep it off the event loop
            executor_workers=2,
            allow_shutdown=allow_shutdown,
        )
        self.replication = replication
        self.node_timeout_s = node_timeout_s
        self.quotas = quotas
        self.health_interval_s = health_interval_s
        self.pool = NodePool()
        self.ring = HashRing()
        for node in nodes:
            self._add_node(*self._parse_node(node))
        self._rulesets: dict[str, _FleetRuleset] = {}
        self._health_task: asyncio.Task | None = None
        self._failovers = 0

    # -- membership --------------------------------------------------------
    @staticmethod
    def _parse_node(node) -> tuple[str, int]:
        if isinstance(node, str):
            host, _, port = node.rpartition(":")
            if not host or not port.isdigit():
                raise ConfigError(
                    f"node {node!r} is not 'host:port' or (host, port)"
                )
            return host, int(port)
        host, port = node
        return str(host), int(port)

    def _add_node(self, host: str, port: int) -> NodeHandle:
        handle = self.pool.add(
            host,
            port,
            max_frame_bytes=self.max_frame_bytes,
            timeout_s=self.node_timeout_s,
        )
        self.ring.add(handle.name)
        return handle

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> None:
        await super().start()
        self._health_task = asyncio.create_task(self._health_loop())

    async def drain(self) -> None:
        """Stop accepting, finish in-flight frames, close everything."""
        if self._health_task is not None:
            self._health_task.cancel()
            try:
                await self._health_task
            except asyncio.CancelledError:
                pass
            self._health_task = None
        await super().drain()
        for handle in self.pool:
            await handle.probe.close()

    # -- transport hooks ---------------------------------------------------
    async def _release_connection(self, conn: _ClientConn) -> None:
        """Release a dropped client's sessions, quota slots, channels."""
        for record in conn.sessions.values():
            if self.quotas is not None:
                self.quotas.release_session(record.tenant)
        conn.sessions.clear()
        for channel in conn.channels.values():
            await channel.close()
        conn.channels.clear()

    def _error_fields(self, exc: ReproError) -> tuple[str, dict]:
        if isinstance(exc, QuotaExceededError):
            _ROUTER_QUOTA_REJECTIONS.labels(exc.tenant, exc.resource).inc()
            return exc.code, {
                "retry_after_s": exc.retry_after_s,
                "resource": exc.resource,
            }
        if isinstance(exc, NodeError):
            return "unavailable", {}
        return super()._error_fields(exc)

    # -- node forwarding ---------------------------------------------------
    def _channel(self, conn: _ClientConn, node: str) -> NodeChannel:
        channel = conn.channels.get(node)
        if channel is None:
            handle = self.pool.get(node)
            if handle is None:
                raise ProtocolError(
                    f"unknown node {node!r}", code="unavailable"
                )
            channel = handle.new_channel()
            conn.channels[node] = channel
        return channel

    async def _forward(
        self, conn: _ClientConn, node: str, frame: dict
    ) -> dict:
        """Round-trip one frame to a node (the channel stamps its own
        id over the client's); transport failures mark the node dead
        and propagate as :class:`NodeError`."""
        handle = self.pool.get(node)
        channel = self._channel(conn, node)
        try:
            response = await channel.request(frame)
        except NodeError:
            self._node_failed(node)
            _ROUTER_REQUESTS.labels(node, "transport-error").inc()
            raise
        handle.requests += 1
        outcome = (
            "ok"
            if response.get("ok")
            else str(response.get("code", "error"))
        )
        _ROUTER_REQUESTS.labels(node, outcome).inc()
        return response

    def _node_failed(self, node: str) -> None:
        handle = self.pool.get(node)
        if handle is not None and handle.alive:
            handle.failures += 1
            _log.warning("node.dead", node=node)
            self.pool.mark_dead(node)

    def _tenant(self, frame: dict) -> str:
        tenant = frame.get("tenant")
        return tenant if isinstance(tenant, str) and tenant else DEFAULT_TENANT

    def _fleet_ruleset(self, frame: dict) -> _FleetRuleset:
        handle = frame.get("handle")
        if not isinstance(handle, str):
            raise ProtocolError("request has no 'handle'", code="bad-request")
        fleet = self._rulesets.get(handle)
        if fleet is None:
            raise ProtocolError(
                f"unknown ruleset handle {handle!r}; register it through "
                f"the router first",
                code="unknown-handle",
            )
        return fleet

    def _alive(self, names: list[str]) -> list[str]:
        return [
            name
            for name in names
            if (node := self.pool.get(name)) is not None and node.alive
        ]

    def _alive_placement(self, fleet: _FleetRuleset) -> list[str]:
        alive = self._alive(fleet.placement)
        if not alive:
            raise ProtocolError(
                f"no alive replica for ruleset {fleet.handle!r}",
                code="unavailable",
            )
        return alive

    async def _ensure_registered(
        self, conn: _ClientConn, node: str, fleet: _FleetRuleset
    ) -> None:
        """Make sure ``node`` serves ``fleet`` *at its current version*.

        Replays the register frame (store-backed: an artifact load, not
        a compile) followed by every update applied since — the node is
        only marked as serving the handle once the full sequence
        succeeded, so a partially synced node keeps being retried
        instead of answering from stale rules.
        """
        handle = self.pool.get(node)
        if handle is None or fleet.handle in handle.registered:
            return
        if await self._replay(partial(self._forward, conn, node), fleet):
            handle.registered.add(fleet.handle)

    @staticmethod
    async def _replay(send, fleet: _FleetRuleset) -> bool:
        """``send`` the register frame, then every update applied since,
        in order; True when the node took them all."""
        for frame in [fleet.frame, *fleet.updates]:
            if not (await send(frame)).get("ok"):
                return False
        return True

    # -- local ops ---------------------------------------------------------
    def _op_ping(self, conn: _ClientConn, frame: dict) -> dict:
        return {"pong": True, "version": PROTOCOL_VERSION, "router": True}

    def _op_health(self, conn: _ClientConn, frame: dict) -> dict:
        return {
            "status": "draining" if self.draining else "ok",
            "uptime_s": round(time.monotonic() - self._started_monotonic, 3),
            "version": PROTOCOL_VERSION,
            "router": True,
            "replication": self.replication,
            "rulesets": len(self._rulesets),
            "open_sessions": sum(len(c.sessions) for c in self._conns),
            "nodes": {
                node.name: {
                    "alive": node.alive,
                    "requests": node.requests,
                    "failures": node.failures,
                    "health": node.last_health,
                }
                for node in self.pool
            },
        }

    def _op_stats(self, conn: _ClientConn, frame: dict) -> dict:
        payload = {
            "stats_version": 2,
            "router": True,
            "frames": self._frames_processed,
            "failovers": self._failovers,
            "rulesets": {
                fleet.handle: list(fleet.placement)
                for fleet in self._rulesets.values()
            },
            "nodes": {
                node.name: {
                    "alive": node.alive,
                    "requests": node.requests,
                    "failures": node.failures,
                    "registered": sorted(node.registered),
                }
                for node in self.pool
            },
            "connections": {"active": len(self._conns)},
            "active_sessions": sum(len(c.sessions) for c in self._conns),
        }
        if self.quotas is not None:
            payload["quotas"] = self.quotas.snapshot()
        return payload

    async def _op_hello(self, conn: _ClientConn, frame: dict) -> dict:
        """A node announcing itself (runtime fleet growth).

        Accepts ``host`` (str) + ``port`` (int) fields, or the compact
        ``node`` ("host:port") form.
        """
        host = frame.get("host")
        port = frame.get("port")
        node = frame.get("node")
        if host is None and port is None and isinstance(node, str):
            try:
                host, port = self._parse_node(node)
            except ConfigError as exc:
                raise ProtocolError(str(exc), code="bad-request") from exc
        if not isinstance(host, str) or not isinstance(port, int):
            raise ProtocolError(
                "hello needs 'host' (str) and 'port' (int), or "
                "'node' ('host:port')",
                code="bad-request",
            )
        handle = self._add_node(host, port)
        health = await self.pool.health_check(handle)
        if health is None:
            self.pool.mark_dead(handle.name)
            raise ProtocolError(
                handle.refusal
                or f"node {handle.name} did not answer a health probe",
                code="unavailable",
            )
        return {"node": handle.name, "fleet": self.pool.names}

    # -- fleet registration ------------------------------------------------
    def _register_cost(self, frame: dict) -> int:
        rules = frame.get("rules")
        if isinstance(rules, (dict, list)):
            return len(rules)
        return 1

    @staticmethod
    def _placement_key(frame: dict) -> str:
        """Fingerprint the ruleset locally, before any node is chosen."""
        if frame.get("op") == "register_artifact":
            return artifact_from_frame(frame).key
        return automaton_from_frame(frame).fingerprint

    async def _op_register(self, conn: _ClientConn, frame: dict) -> dict:
        """``register`` and ``register_artifact``: place, then register
        on every alive replica of the placement."""
        if self.quotas is not None:
            self.quotas.admit_compile(
                self._tenant(frame), self._register_cost(frame)
            )
        key = await self._offload(self._placement_key, frame)
        placement = self.ring.place(key, self.replication)
        alive = self._alive(placement)
        if not alive:
            raise ProtocolError(
                "no alive node to place the ruleset on", code="unavailable"
            )
        clean = {k: v for k, v in frame.items() if k != "id"}
        # primary first, sequentially: its registration pays the single
        # compile and publishes component artifacts to the shared
        # store; the replicas' registrations then load, not compile
        response = await self._forward(conn, alive[0], clean)
        if not response.get("ok"):
            return response
        handle = str(response.get("handle", key))
        self.pool.get(alive[0]).registered.add(handle)
        fleet = _FleetRuleset(handle=handle, frame=clean, placement=placement)
        self._rulesets[handle] = fleet
        for replica in alive[1:]:
            try:
                rep = await self._forward(conn, replica, clean)
            except NodeError:
                continue  # health loop re-registers it on recovery
            if rep.get("ok"):
                self.pool.get(replica).registered.add(handle)
        response["nodes"] = alive
        return response

    async def _op_update(self, conn: _ClientConn, frame: dict) -> dict:
        """Hot-swap on every replica; the primary's response is the
        client's (update is incremental: replicas reuse the components
        the primary's update published).

        The applied frame is recorded on the fleet ruleset so replicas
        that miss the fan-out — dead during the update, or dropped
        mid-loop — converge to the current version when they are next
        (re-)registered, instead of rejoining with pre-update rules.
        """
        tenant = self._tenant(frame)
        if self.quotas is not None:
            self.quotas.admit_compile(
                tenant, self._register_cost({"rules": frame.get("add")})
            )
        fleet = self._fleet_ruleset(frame)
        alive = self._alive_placement(fleet)
        clean = {k: v for k, v in frame.items() if k != "id"}
        response = await self._forward(conn, alive[0], clean)
        if not response.get("ok"):
            return response
        fleet.updates.append(clean)
        for replica in alive[1:]:
            node = self.pool.get(replica)
            if node is not None and fleet.handle in node.registered:
                try:
                    rep = await self._forward(conn, replica, clean)
                except NodeError:
                    # marked dead; recovery replays register + updates
                    continue
                if not rep.get("ok"):
                    # the delta was refused: force a full replay before
                    # this replica serves the handle again
                    node.registered.discard(fleet.handle)
            else:
                # not serving the handle yet — the full replay brings
                # it straight to the latest version (current update
                # included; forwarding the delta too would double-apply)
                try:
                    await self._ensure_registered(conn, replica, fleet)
                except NodeError:
                    continue
        return response

    # -- routed scans ------------------------------------------------------
    async def _op_scan(self, conn: _ClientConn, frame: dict) -> dict:
        """``scan`` and ``scan_many``: admit the payload bytes, then
        forward (idempotent, so retried across alive replicas)."""
        if self.quotas is not None:
            payloads = [frame.get("data", b"")]
            streams = frame.get("streams")
            if isinstance(streams, dict):
                payloads += streams.values()
            self.quotas.admit_request_bytes(
                self._tenant(frame),
                sum(len(decode_data(data)) for data in payloads),
            )
        fleet = self._fleet_ruleset(frame)
        return (await self._forward_any(conn, fleet, frame))[1]

    async def _forward_any(
        self, conn: _ClientConn, fleet: _FleetRuleset, frame: dict
    ) -> tuple[str, dict]:
        """Forward to the first alive replica that answers, starting
        round-robin; returns ``(node, response)``."""
        candidates = self._alive_placement(fleet)
        start = next(conn.rr)
        last_error: NodeError | None = None
        for offset in range(len(candidates)):
            node = candidates[(start + offset) % len(candidates)]
            try:
                await self._ensure_registered(conn, node, fleet)
                return node, await self._forward(conn, node, frame)
            except NodeError as exc:
                last_error = exc
        raise ProtocolError(
            f"no alive replica answered for ruleset {fleet.handle!r}: "
            f"{last_error}",
            code="unavailable",
        )

    # -- routed sessions ---------------------------------------------------
    async def _op_open(self, conn: _ClientConn, frame: dict) -> dict:
        tenant = self._tenant(frame)
        name = conn.new_session_name(frame)
        fleet = self._fleet_ruleset(frame)
        self._alive_placement(fleet)  # unavailable costs no session slot
        if self.quotas is not None:
            self.quotas.admit_session(tenant)
        # the node always checkpoints router sessions — feed responses
        # carry the engine states the failover path resumes from
        open_frame = {k: v for k, v in frame.items() if k != "id"}
        client_checkpoint = bool(open_frame.get("checkpoint"))
        open_frame["checkpoint"] = True
        opened = False
        try:
            node, response = await self._forward_any(conn, fleet, open_frame)
            opened = bool(response.get("ok"))
        finally:
            if not opened and self.quotas is not None:
                self.quotas.release_session(tenant)
        if not opened:
            return response
        conn.sessions[name] = _RoutedSession(
            name=name,
            handle=fleet.handle,
            tenant=tenant,
            node=node,
            open_frame=open_frame,
            client_checkpoint=client_checkpoint,
            state=open_frame.get("state"),
            position=int(response.get("position", 0) or 0),
        )
        return response

    async def _op_feed(self, conn: _ClientConn, frame: dict) -> dict:
        record = conn.session(frame)
        if self.quotas is not None:
            self.quotas.admit_request_bytes(
                record.tenant, len(decode_data(frame.get("data", b"")))
            )
        try:
            response = await self._forward(conn, record.node, frame)
        except NodeError:
            response = await self._failover_feed(conn, record, frame)
        if response.get("ok"):
            fired = report_count(response.get("reports"))
            # the checkpoint advances only on a received response, so a
            # replayed chunk after failover is exactly-once
            state = response.get("state")
            if state is not None:
                record.state = state
            record.position = int(response.get("position", record.position))
            record.num_reports += fired
            record.truncated = bool(response.get("truncated", False))
            if not record.client_checkpoint:
                response.pop("state", None)
        return response

    async def _failover_feed(
        self, conn: _ClientConn, record: _RoutedSession, frame: dict
    ) -> dict:
        """Resume a session on a replica and replay the failed chunk.

        The dead node never answered this chunk's feed, so the saved
        checkpoint predates it; replaying the chunk onto the restored
        state yields exactly the reports the dead node would have
        produced, at the same absolute stream offsets.
        """
        dead = record.node
        self._failovers += 1
        _ROUTER_FAILOVERS.labels(dead).inc()
        _log.warning(
            "session.failover",
            session=record.name,
            dead_node=dead,
            position=record.position,
        )
        fleet = self._rulesets.get(record.handle)
        if fleet is None:
            raise ProtocolError(
                f"ruleset {record.handle!r} is no longer registered",
                code="unknown-handle",
            )
        for node in self._alive([n for n in fleet.placement if n != dead]):
            try:
                await self._ensure_registered(conn, node, fleet)
                open_frame = dict(record.open_frame)
                if record.state is not None:
                    open_frame["state"] = record.state
                opened = await self._forward(conn, node, open_frame)
                if not opened.get("ok"):
                    _log.warning(
                        "session.failover_open_rejected",
                        session=record.name,
                        node=node,
                        code=opened.get("code"),
                    )
                    continue
                response = await self._forward(conn, node, frame)
            except NodeError:
                continue
            record.node = node
            record.failed_over = True
            return response
        raise ProtocolError(
            f"no replica available to resume session {record.name!r} "
            f"(lost node {dead})",
            code="unavailable",
        )

    async def _op_close(self, conn: _ClientConn, frame: dict) -> dict:
        record = conn.session(frame)
        response: dict | None = None
        node = self.pool.get(record.node)
        if node is not None and node.alive:
            try:
                response = await self._forward(conn, record.node, frame)
            except NodeError:
                response = None
        del conn.sessions[record.name]
        if self.quotas is not None:
            self.quotas.release_session(record.tenant)
        if response is None or not response.get("ok"):
            # the node is gone: answer from router bookkeeping (cycles
            # == bytes consumed — the stream advanced one byte/cycle)
            return {
                "num_reports": record.num_reports,
                "cycles": record.position,
                "truncated": record.truncated,
                "synthesized": True,
            }
        if record.failed_over:
            # the final node only saw the post-failover tail; the
            # router watched the whole stream
            response["num_reports"] = record.num_reports
            response["cycles"] = record.position
        return response

    # -- health loop -------------------------------------------------------
    async def _health_loop(self) -> None:
        # probes get a budget tied to the probe period, not the (much
        # larger) request timeout: one hung node must not stall the
        # whole loop for a minute per iteration
        probe_timeout = max(1.0, 2 * self.health_interval_s)
        if self.node_timeout_s is not None:
            probe_timeout = min(probe_timeout, self.node_timeout_s)
        while True:
            await asyncio.sleep(self.health_interval_s)
            for handle in list(self.pool):
                health = await self.pool.health_check(
                    handle, timeout_s=probe_timeout
                )
                if health is None:
                    if handle.alive:
                        _log.warning(
                            "node.health_failed",
                            node=handle.name,
                            refusal=handle.refusal,
                        )
                        self.pool.mark_dead(handle.name)
                elif not handle.alive:
                    _log.info("node.recovered", node=handle.name)
                    self.pool.mark_alive(handle.name)
                    await self._reregister_node(handle)

    async def _reregister_node(self, handle: NodeHandle) -> None:
        """Replay registrations onto a recovered node (store-backed:
        these are artifact loads, not compiles), then every update the
        node missed while it was dead — rejoining with the pre-update
        ruleset would silently serve stale rules."""
        for fleet in self._rulesets.values():
            if handle.name not in fleet.placement:
                continue
            try:
                synced = await self._replay(handle.probe.request, fleet)
            except NodeError:
                self.pool.mark_dead(handle.name)
                return
            except ProtocolError:
                # it answered, unusably; the next scan routed to it
                # retries the replay (_ensure_registered)
                continue
            if synced:
                handle.registered.add(fleet.handle)


class BackgroundRouter(Background):
    """A :class:`ClusterRouter` on a daemon thread with its own loop —
    the harness tests, benchmarks and :meth:`Ruleset.serve_cluster` use::

        with BackgroundRouter(router) as bg:
            client = MatchingClient(port=bg.port)
    """

    def __init__(
        self, router: ClusterRouter | None = None, **kwargs
    ) -> None:
        super().__init__(
            router if router is not None else ClusterRouter(**kwargs)
        )
        self.router = self.server
