"""Router-side node plumbing: raw frame channels and the fleet pool.

:class:`NodeChannel` is the lower half of a client — the shared
:class:`~repro.service.transport.FrameChannel` that also carries the
:class:`~repro.service.client.AsyncMatchingClient` — without the upper
half: the router is a proxy, and the client classes interpret responses
(re-raise warning entries, translate error frames into exceptions)
where the router must pass both through to its caller verbatim.  A
node channel therefore speaks raw frames: send a dict, get the response
dict back — error frames included — and raise :class:`NodeError` only
for *transport* failures (connect, reset, EOF, timeout), the signal the
failover path keys on.

:class:`NodePool` is the router's fleet membership view: liveness
flags, the health-probe channel per node, and the counters the fleet
stats surface reports.
"""

from __future__ import annotations

import itertools

from repro.errors import ReproError
from repro.service.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
)
from repro.service.transport import FrameChannel

#: default per-request round-trip budget.  Generous, because a cold
#: ``register`` compiles; the point is that it is *finite* — a node
#: that is connected but hung (stuck process, network blackhole) must
#: eventually surface as a :class:`NodeError` so the failover and
#: dead-marking paths engage instead of wedging the caller forever.
DEFAULT_REQUEST_TIMEOUT_S = 60.0


class NodeError(ReproError):
    """Transport-level failure talking to a node (retry / failover)."""


class NodeChannel(FrameChannel):
    """One raw request/response frame connection to a node.

    The channel assigns its own frame ids and strips them from
    responses — the router re-stamps the client's id.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        timeout_s: float | None = DEFAULT_REQUEST_TIMEOUT_S,
    ) -> None:
        super().__init__(
            host, port, max_frame_bytes=max_frame_bytes, timeout_s=timeout_s
        )
        self._ids = itertools.count(1)

    async def request(
        self, frame: dict, *, timeout_s: float | None = None
    ) -> dict:
        """Round-trip one frame; returns the raw response payload.

        The response dict is returned as-is minus its ``id`` — error
        frames (``ok: false``) included.  Transport failures *and*
        round-trips exceeding ``timeout_s`` (the channel's default when
        None) close the channel and raise :class:`NodeError` — a hung
        node must look exactly like a dead one to the failover path.
        A response frame over ``max_frame_bytes`` is not one of them:
        the node answered, so it surfaces as the channel's
        ``frame-too-large`` :class:`ProtocolError` (and only this one
        connection is dropped).
        """
        request_id = next(self._ids)
        node = f"node {self.host}:{self.port}"
        timeout = self.timeout_s if timeout_s is None else timeout_s
        try:
            response = await self.round_trip(
                {**frame, "id": request_id}, timeout_s=timeout
            )
        except OSError as exc:
            if isinstance(exc, TimeoutError) and timeout is not None:
                detail = f"did not answer within {timeout:g}s"
            else:
                detail = f"i/o failed: {exc}"
            raise NodeError(f"{node} {detail}") from exc
        answered = response.pop("id", None)
        # a null id is a connection-level refusal; any other must match
        if answered != request_id and (answered is not None or response.get("ok")):
            await self.close()  # the stream is out of step: resync
            raise ProtocolError(
                f"{node} answered out of order "
                f"(expected id {request_id}, got {answered!r})"
            )
        return response


class NodeHandle:
    """The router's view of one fleet node."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        timeout_s: float | None = DEFAULT_REQUEST_TIMEOUT_S,
    ) -> None:
        self.host = host
        self.port = port
        self.name = f"{host}:{port}"
        self.max_frame_bytes = max_frame_bytes
        self.timeout_s = timeout_s
        self.alive = True
        #: ruleset handles confirmed registered on this node
        self.registered: set[str] = set()
        self.requests = 0
        self.failures = 0
        self.last_health: dict | None = None
        #: why the last health probe refused an answering node (a
        #: protocol version mismatch); None when it was accepted
        self.refusal: str | None = None
        #: dedicated probe channel (never shared with proxied traffic,
        #: so a wedged stream cannot block liveness checks)
        self.probe = self.new_channel()

    def new_channel(self) -> NodeChannel:
        return NodeChannel(
            self.host,
            self.port,
            max_frame_bytes=self.max_frame_bytes,
            timeout_s=self.timeout_s,
        )

    def __repr__(self) -> str:
        state = "alive" if self.alive else "dead"
        return f"NodeHandle({self.name}, {state})"


class NodePool:
    """Fleet membership: named handles plus liveness transitions."""

    def __init__(self) -> None:
        self._nodes: dict[str, NodeHandle] = {}

    def add(self, host: str, port: int, **kwargs) -> NodeHandle:
        """Add (or return the existing) node for ``host:port``."""
        name = f"{host}:{port}"
        handle = self._nodes.get(name)
        if handle is None:
            handle = NodeHandle(host, port, **kwargs)
            self._nodes[name] = handle
        return handle

    def get(self, name: str) -> NodeHandle | None:
        return self._nodes.get(name)

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self):
        return iter(self._nodes.values())

    @property
    def names(self) -> list[str]:
        return sorted(self._nodes)

    def mark_dead(self, name: str) -> None:
        handle = self._nodes.get(name)
        if handle is not None:
            handle.alive = False
            # anything it held must be re-confirmed when it returns
            handle.registered.clear()

    def mark_alive(self, name: str) -> None:
        handle = self._nodes.get(name)
        if handle is not None:
            handle.alive = True

    async def health_check(
        self, handle: NodeHandle, *, timeout_s: float | None = None
    ) -> dict | None:
        """Probe one node; returns its health payload or None (dead).

        A node that answers with another ``version`` than
        :data:`~repro.service.protocol.PROTOCOL_VERSION`, or that does
        not answer in frames at all (a version-3 node's JSON line),
        counts as dead too, and ``handle.refusal`` says why, naming
        both versions.

        ``timeout_s`` overrides the probe channel's default — liveness
        probes can afford a much shorter budget than proxied work, so a
        hung node stops answering health checks quickly instead of
        wedging the health loop for a full request timeout.
        """
        try:
            response = await handle.probe.request(
                {"op": "health"}, timeout_s=timeout_s
            )
        except NodeError:
            return None
        except ProtocolError as exc:
            handle.refusal = f"node {handle.name}: {exc}"
            return None
        if not response.get("ok"):
            return None
        version = response.get("version")
        if version != PROTOCOL_VERSION:
            handle.refusal = (
                f"node {handle.name} speaks protocol version {version!r}; "
                f"this router speaks version {PROTOCOL_VERSION}"
            )
            return None
        handle.refusal = None
        handle.last_health = response
        return response
