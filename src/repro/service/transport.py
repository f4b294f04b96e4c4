"""The one frame transport under the server, the router and the clients.

Everything that moves length-prefixed frames
(:mod:`repro.service.protocol`) over TCP lives here once; the endpoints
built on it only say what their ops do.  :func:`read_frame` is the one
asyncio reader: it checks a frame's prefix — magic and declared size —
before it reads the rest, so ``max_frame_bytes`` bounds memory per
frame.

:class:`FrameServer`
    The listening side.  It owns the lifecycle (``start`` /
    ``serve_forever`` / ``drain`` / ``stop``), the per-connection
    reader and in-order processor, both frame-size limits, the bounded
    in-flight queue, op-table dispatch, the mapping of failures to
    error frames, and the request instruments.
    :class:`~repro.service.server.MatchingServer` and
    :class:`~repro.cluster.router.ClusterRouter` subclass it with an op
    table (``{op name: handler(conn, frame)}``) and three hooks: what a
    connection carries (:attr:`FrameServer.connection_type`), how a
    dropped one is released (:meth:`FrameServer._release_connection`),
    and which extra error-frame fields a typed failure earns
    (:meth:`FrameServer._error_fields`).

:class:`Background` / :func:`run_until_shutdown`
    The two ways to run one: on a daemon thread with its own loop
    (tests, benchmarks, ``handle.serve(background=True)``), or blocking
    the calling thread (``repro serve`` / ``repro route``).

:class:`FrameChannel`
    The connecting side on asyncio streams: one request frame out, one
    response frame back, under a lock.  The cluster's
    :class:`~repro.cluster.nodes.NodeChannel` and the
    :class:`~repro.service.client.AsyncMatchingClient` are both thin
    layers over it.

Concurrency model of a served connection:

* the event loop frames, parses and routes; a handler that does real
  work returns an awaitable (:meth:`FrameServer._offload` hands a
  blocking callable to the endpoint's thread pool) — except a small
  C-loop feed, which the matching server steps inline because the
  step costs less than the hand-off (:mod:`repro.service.batching`);
* frames of one connection execute strictly in order (chunk N+1 of a
  session cannot start before chunk N finishes), while different
  connections proceed in parallel;
* each connection owns a bounded in-flight queue; when a client
  pipelines more frames than ``max_inflight``, its socket is not read
  until work drains — ordinary TCP backpressure, no unbounded buffering;
* :meth:`FrameServer.drain` (or a client ``shutdown`` frame) stops
  accepting new connections, lets every queued frame finish and flushes
  its response, then closes the connections.
"""

from __future__ import annotations

import asyncio
import inspect
import itertools
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.errors import ConfigError, ReproError, SimulationError
from repro.service.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    DEFAULT_MAX_INFLIGHT,
    PREFIX_BYTES,
    ProtocolError,
    check_frame_start,
    decode_frame_body,
    encode_frame,
    error_frame,
    frame_body_bytes,
    ok_frame,
)
from repro.telemetry.log import get_logger
from repro.telemetry.metrics import default_registry, render_prometheus

_log = get_logger("repro.service.transport")

_REGISTRY = default_registry()
_REQUESTS = _REGISTRY.counter(
    "repro_server_requests_total",
    "Protocol frames handled, by op and outcome (ok | error code)",
    ("op", "outcome"),
)
_REQUEST_SECONDS = _REGISTRY.histogram(
    "repro_server_request_seconds",
    "Frame turnaround (decode to response built), by op",
    ("op",),
)
_INFLIGHT = _REGISTRY.gauge(
    "repro_server_inflight_frames",
    "Frames read off sockets but not yet responded to (queue depth)",
)
_CONNECTIONS_ACTIVE = _REGISTRY.gauge(
    "repro_server_connections_active",
    "Currently open client connections",
)
_CONNECTIONS_TOTAL = _REGISTRY.counter(
    "repro_server_connections_total",
    "Client connections accepted over the server's lifetime",
)


async def read_frame(
    reader: asyncio.StreamReader, max_frame_bytes: int
) -> tuple[bytes, bytes] | None:
    """Read one frame off ``reader`` as ``(prefix, body)``; None at EOF
    between frames.

    The first byte is read alone, so a version-3 peer's JSON line is
    refused before this waits for a whole prefix.  Raises
    :class:`ProtocolError` from
    :func:`~repro.service.protocol.frame_body_bytes` (the stream can no
    longer be framed) and :class:`asyncio.IncompleteReadError` when the
    peer hangs up mid-frame.
    """
    try:
        first = await reader.readexactly(1)
    except asyncio.IncompleteReadError:
        return None
    check_frame_start(first)
    prefix = first + await reader.readexactly(PREFIX_BYTES - 1)
    body = await reader.readexactly(frame_body_bytes(prefix, max_frame_bytes))
    return prefix, body


def _refusal_wire(exc: ProtocolError) -> bytes:
    """What a refused request stream is told before its connection
    closes: an over-limit frame gets an error frame; a stream that is
    not frames at all (a version-3 peer's JSON lines) gets one JSON
    error line, the one answer such a peer can read."""
    response = error_frame(None, str(exc), exc.code)
    if exc.code == "frame-too-large":
        return encode_frame(response)
    return json.dumps(response).encode() + b"\n"


@dataclass(eq=False)  # identity-hashed: it lives in the server's set
class Connection:
    """Per-connection state.

    Sessions are scoped to the connection that opened them — two
    clients may both open a session called ``"s"``, and a dropped
    connection releases its own sessions only — so the name table and
    its two lookups live here; what a session record *is* belongs to
    the endpoint.
    """

    conn_id: int
    sessions: dict = field(default_factory=dict)
    #: the task serving this connection (what :meth:`FrameServer.drain`
    #: waits for), the task moving its request frames into its queue,
    #: and whether that one is reading a frame — the one place drain
    #: may interrupt it without losing a frame already read
    task: asyncio.Task | None = None
    read_task: asyncio.Task | None = None
    reading: bool = False

    def new_session_name(self, frame: dict) -> str:
        """The ``session`` an ``open`` frame names, checked unused."""
        name = frame.get("session")
        if not isinstance(name, str) or not name:
            raise ProtocolError(
                "open needs a non-empty 'session' name", code="bad-request"
            )
        if name in self.sessions:
            raise ProtocolError(
                f"session {name!r} is already open on this connection",
                code="bad-request",
            )
        return name

    def session(self, frame: dict):
        """The record of the open session a frame names."""
        name = frame.get("session")
        if not isinstance(name, str):
            raise ProtocolError("request has no 'session'", code="bad-request")
        record = self.sessions.get(name)
        if record is None:
            raise ProtocolError(
                f"unknown session {name!r} on this connection",
                code="unknown-session",
            )
        return record


class FrameServer:
    """Serve an op table over TCP as length-prefixed frames.

    Args:
        ops: the op table — ``{name: handler(conn, frame)}``.  A handler
            returns the response payload (a dict without ``id``), or an
            awaitable of one when the work leaves the event loop.
            ``metrics`` and ``shutdown`` are provided here.
        host, port: bind address (``port=0`` picks a free port; read the
            bound one from :attr:`port` after :meth:`start`).
        max_frame_bytes: reject request frames that declare more bytes
            than this (before reading them) and replace over-long
            responses with an error frame.
        max_inflight: per-connection bound on parsed-but-unprocessed
            frames; the socket is not read past it.
        executor_workers: size of the thread pool behind
            :meth:`_offload`.
        allow_shutdown: honour the ``shutdown`` frame (handy for tests
            and benchmarks; disable for long-lived deployments).
    """

    #: what the endpoint calls itself in log events, error messages and
    #: thread names
    role = "server"
    #: the per-connection state an endpoint's handlers receive
    connection_type = Connection

    def __init__(
        self,
        ops: dict,
        *,
        host: str,
        port: int,
        max_frame_bytes: int,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        executor_workers: int,
        allow_shutdown: bool,
    ) -> None:
        if max_frame_bytes < 1024:
            raise ConfigError("max_frame_bytes must be >= 1024")
        if max_inflight < 1:
            raise ConfigError("max_inflight must be >= 1")
        self._ops = {
            "metrics": self._op_metrics,
            "shutdown": self._op_shutdown,
            **ops,
        }
        self.host = host
        self._requested_port = port
        self.max_frame_bytes = max_frame_bytes
        self.max_inflight = max_inflight
        self.allow_shutdown = allow_shutdown
        self._executor = ThreadPoolExecutor(
            max_workers=executor_workers,
            thread_name_prefix=f"repro-{self.role}",
        )
        self._server: asyncio.base_events.Server | None = None
        self._conn_ids = itertools.count(1)
        self._conns: set[Connection] = set()
        self.draining = False
        self._drain_task: asyncio.Task | None = None  # a shutdown op's
        self._stopped = asyncio.Event()
        self._started_monotonic = time.monotonic()
        self._frames_processed = 0
        self._connections_total = 0
        self._inflight = 0

    # -- lifecycle --------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound TCP port (only valid after :meth:`start`)."""
        if self._server is None:
            raise SimulationError(f"{self.role} is not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    async def start(self) -> None:
        """Bind and start accepting connections."""
        if self._server is not None:
            raise SimulationError(f"{self.role} is already started")
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self._requested_port,
            limit=self.max_frame_bytes,
        )

    async def serve_forever(self) -> None:
        """Run until :meth:`stop` (or a client ``shutdown`` frame)."""
        if self._server is None:
            await self.start()
        await self._stopped.wait()

    async def drain(self) -> None:
        """Graceful shutdown: stop accepting, finish queued work, close.

        Every frame already read from a socket is processed and its
        response flushed before the connection closes; nothing new is
        read or accepted.
        """
        if self._server is None:
            return
        _log.info(f"{self.role}.draining", connections=len(self._conns))
        self.draining = True
        for conn in self._conns:
            if conn.reading:
                conn.read_task.cancel()
        self._server.close()
        await self._server.wait_closed()
        if self._conns:
            await asyncio.wait([conn.task for conn in self._conns])
        self._stopped.set()

    async def stop(self) -> None:
        """Drain, then release the thread pool."""
        await self.drain()
        self._executor.shutdown(wait=True)

    # -- endpoint hooks ---------------------------------------------------
    async def _release_connection(self, conn: Connection) -> None:
        """Free whatever a closed connection still holds."""

    def _error_fields(self, exc: ReproError) -> tuple[str, dict]:
        """The wire ``code`` of a typed failure, plus extra frame fields."""
        return getattr(exc, "code", "bad-request"), {}

    def _offload(self, fn, *args):
        """Run blocking ``fn`` on the thread pool; awaitable result."""
        return asyncio.get_running_loop().run_in_executor(
            self._executor, fn, *args
        )

    # -- connection handling ----------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = self.connection_type(next(self._conn_ids))
        conn.task = asyncio.current_task()
        queue: asyncio.Queue = asyncio.Queue(maxsize=self.max_inflight)
        self._conns.add(conn)
        self._connections_total += 1
        _CONNECTIONS_TOTAL.labels().inc()
        _CONNECTIONS_ACTIVE.labels().inc()
        _log.debug(
            "connection.open",
            conn_id=conn.conn_id,
            peer=str(writer.get_extra_info("peername")),
        )
        conn.read_task = asyncio.create_task(
            self._read_frames(conn, reader, queue)
        )
        try:
            await self._process_frames(conn, queue, writer)
        finally:
            # the reader's sentinel ended the processor, so this is a
            # no-op — unless this task itself is being torn down
            conn.read_task.cancel()
            await asyncio.wait([conn.read_task])
            await self._release_connection(conn)
            _CONNECTIONS_ACTIVE.labels().dec()
            _log.debug("connection.close", conn_id=conn.conn_id)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._conns.discard(conn)

    async def _read_frames(
        self,
        conn: Connection,
        reader: asyncio.StreamReader,
        queue: asyncio.Queue,
    ) -> None:
        """Move one connection's request frames from socket to queue.

        Blocks on the full queue — that is the back-pressure — and ends
        at EOF, a reset, a stream that can no longer be framed, or
        :meth:`drain`, which cancels the wait for a *next* frame
        (``conn.reading``) but never the hand-off of a frame already
        read.  Always finishes with the ``None`` sentinel: the
        processor consumes until it sees one, even after a write
        failure, so that put can never wedge.
        """
        try:
            while not self.draining:
                conn.reading = True
                try:
                    frame = await read_frame(reader, self.max_frame_bytes)
                except ProtocolError as exc:
                    # unframeable or over the limit: refuse, stop reading
                    _log.warning(
                        "connection.refused",
                        conn_id=conn.conn_id,
                        code=exc.code,
                        error=str(exc),
                    )
                    # queued as bytes (a frame is a (prefix, body) pair)
                    await queue.put(_refusal_wire(exc))
                    break
                except (asyncio.IncompleteReadError, OSError) as exc:
                    _log.debug(
                        "connection.reset",
                        conn_id=conn.conn_id,
                        error=str(exc),
                    )
                    break  # the client hung up mid-frame or reset
                finally:
                    conn.reading = False
                if frame is None:
                    break  # EOF
                await queue.put(frame)
                self._inflight += 1
                _INFLIGHT.labels().inc()
        except asyncio.CancelledError:
            pass  # drain() called off the wait for a next frame
        finally:
            await queue.put(None)

    async def _process_frames(
        self,
        conn: Connection,
        queue: asyncio.Queue,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Execute one connection's frames strictly in order.

        Never exits before the reader's ``None`` sentinel: a dead peer
        (write failure) or a refused stream switches to discard mode
        instead of returning, so the reader can always complete its
        (bounded, possibly full) queue handoff and reach its own
        cleanup — a blocked ``queue.put`` with no consumer would hang
        the connection task, and with it :meth:`drain`, forever.
        """
        discarding = False
        while True:
            item = await queue.get()
            if item is None:
                return
            refused = isinstance(item, bytes)
            if not refused:
                self._inflight -= 1
                _INFLIGHT.labels().dec()
            if discarding:
                continue
            if refused:
                self._frames_processed += 1
                payload = item
                discarding = True  # once this refusal is written
            else:
                response = await self._respond(conn, item)
                self._frames_processed += 1
                payload = encode_frame(response)
                if len(payload) > self.max_frame_bytes:
                    payload = encode_frame(
                        error_frame(
                            response.get("id"),
                            f"response exceeds max_frame_bytes "
                            f"({self.max_frame_bytes}); lower max_reports "
                            f"or use smaller chunks",
                            "frame-too-large",
                        )
                    )
            try:
                writer.write(payload)
                await writer.drain()
            except (ConnectionError, OSError) as exc:
                _log.debug(
                    "connection.write_failed",
                    conn_id=conn.conn_id,
                    error=str(exc),
                )
                discarding = True

    async def _respond(
        self, conn: Connection, raw: tuple[bytes, bytes]
    ) -> dict:
        """Turn one raw request frame (prefix, body) into its response
        frame."""
        request_id = None
        op = "unknown"
        start = time.perf_counter()
        try:
            frame = decode_frame_body(*raw)
            request_id = frame.get("id")
            raw_op = frame.get("op")
            if not isinstance(raw_op, str):
                raise ProtocolError("frame has no 'op' field", code="bad-request")
            op = raw_op
            handler = self._ops.get(op)
            if handler is None:
                raise ProtocolError(f"unknown op {op!r}", code="unknown-op")
            payload = handler(conn, frame)
            if inspect.isawaitable(payload):
                payload = await payload
            # a payload may itself be a relayed error frame (the router
            # passes a node's answer through): its ``ok`` wins
            response = ok_frame(request_id, **payload)
            outcome = "ok" if response["ok"] else str(response.get("code", "error"))
        except ReproError as exc:
            outcome, extra = self._error_fields(exc)
            _log.info(
                "request.rejected",
                conn_id=conn.conn_id,
                op=op,
                code=outcome,
                error=str(exc),
            )
            response = {**error_frame(request_id, str(exc), outcome), **extra}
        except Exception as exc:  # noqa: BLE001 — a handler bug must not
            # kill the connection; report it to the client instead
            _log.error(
                "request.internal_error",
                conn_id=conn.conn_id,
                op=op,
                error=f"{type(exc).__name__}: {exc}",
            )
            response = error_frame(
                request_id, f"{type(exc).__name__}: {exc}", "internal"
            )
            outcome = "internal"
        _REQUESTS.labels(op, outcome).inc()
        _REQUEST_SECONDS.labels(op).observe(time.perf_counter() - start)
        return response

    # -- ops every endpoint answers the same way ---------------------------
    def _op_metrics(self, conn: Connection, frame: dict) -> dict:
        """The process-wide metrics registry in the Prometheus text
        exposition format (a light op: snapshotting the registry takes
        one lock, never the service's)."""
        return {
            "content_type": "text/plain; version=0.0.4",
            "metrics": render_prometheus(),
        }

    def _op_shutdown(self, conn: Connection, frame: dict) -> dict:
        if not self.allow_shutdown:
            raise ProtocolError(
                f"remote shutdown is disabled on this {self.role}",
                code="bad-request",
            )
        # runs on the event loop, so the drain task starts only after
        # this frame's response is written
        self._drain_task = asyncio.create_task(self.drain())
        return {"draining": True}


async def _serve(server: FrameServer, started) -> None:
    """start → ``started()`` → serve until shutdown → stop."""
    await server.start()
    started()
    try:
        await server.serve_forever()
    finally:
        await server.stop()


def run_until_shutdown(server: FrameServer) -> None:
    """Blocking convenience wrapper: start and serve until shutdown.

    Installs the JSON-lines log handler when the host application has
    not configured the ``repro`` logger tree itself, so the listening
    address (and every connection/request event) is observable.
    """
    import logging

    from repro.telemetry.log import configure as _configure_logging

    if not logging.getLogger("repro").handlers:
        _configure_logging()

    def listening() -> None:
        host, port = server.address
        _log.info("server.listening", role=server.role, host=host, port=port)

    try:
        asyncio.run(_serve(server, listening))
    except KeyboardInterrupt:
        pass


class Background:
    """A :class:`FrameServer` on a daemon thread with its own loop.

    The in-process deployment shape tests, benchmarks and examples use:
    start it, talk to it over real TCP from any thread, stop it.
    """

    def __init__(self, server: FrameServer) -> None:
        self.server = server
        self.loop: asyncio.AbstractEventLoop | None = None
        self.port: int | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._thread: threading.Thread | None = None

    def _run(self) -> None:
        def started() -> None:
            self.loop = asyncio.get_running_loop()
            self.port = self.server.port
            self._ready.set()

        try:
            asyncio.run(_serve(self.server, started))
        except BaseException as exc:
            if self._ready.is_set():
                raise
            self._startup_error = exc  # surface bind errors to start()
            self._ready.set()

    def start(self):
        role = self.server.role
        if self._thread is not None:
            raise SimulationError(f"background {role} is already started")
        self._thread = threading.Thread(
            target=self._run, name=f"repro-{role}", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=10):
            raise SimulationError(f"background {role} did not start in time")
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def stop(self, timeout: float = 10.0) -> None:
        """Drain and stop; no-op when already stopped (e.g. by a client
        ``shutdown`` frame)."""
        if self._thread is None:
            return
        stopping = self.server.stop()
        future = None
        if self.loop is not None:
            try:
                future = asyncio.run_coroutine_threadsafe(stopping, self.loop)
            except RuntimeError:
                pass  # the loop already closed (e.g. client shutdown)
        # wait for the thread, not the future: a loop that winds down on
        # its own may drop the scheduled stop() without ever running it
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise SimulationError(
                f"background {self.server.role} did not stop in time"
            )
        stopping.close()  # only matters if it never ran
        if future is not None and future.done() and not future.cancelled():
            future.result()  # surface what stop() raised

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


class ChannelClosed(ConnectionError):
    """The peer hung up before answering (EOF).

    A :class:`ConnectionError`, so retry loops treat it as transient
    I/O, yet distinct, so an exhausted retry can tell "closed" from a
    reset.
    """


class FrameChannel:
    """One raw request/response frame connection on asyncio streams.

    Round trips are serialized by a lock — the peer answers a
    connection's frames in order, so interleaved writers would
    misattribute responses.  The channel interprets nothing: the
    response dict comes back as-is, error frames included.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        timeout_s: float | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.max_frame_bytes = max_frame_bytes
        self.timeout_s = timeout_s
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._lock = asyncio.Lock()

    @property
    def connected(self) -> bool:
        return self._writer is not None

    async def connect(self):
        """Open the connection unless it is open (``OSError`` if not)."""
        async with self._lock:
            await self._connect()
        return self

    async def _connect(self) -> None:
        if self._writer is None:
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port, limit=self.max_frame_bytes
            )

    async def close(self) -> None:
        if self._writer is not None:
            writer, self._reader, self._writer = self._writer, None, None
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _exchange(self, wire: dict) -> dict:
        await self._connect()
        self._writer.write(encode_frame(wire))
        await self._writer.drain()
        try:
            frame = await read_frame(self._reader, self.max_frame_bytes)
        except asyncio.IncompleteReadError:
            frame = None  # the peer hung up mid-frame
        if frame is None:
            raise ChannelClosed("connection closed by peer")
        return decode_frame_body(*frame)

    async def round_trip(
        self, wire: dict, *, timeout_s: float | None = None
    ) -> dict:
        """Send one frame (connecting first if need be), return the next.

        ``timeout_s`` (the channel's default when None; None = wait
        forever) bounds connect + write + read together.  Every failure
        closes the channel before it propagates, so the next call
        starts on a fresh connection: ``OSError`` for connect failures,
        resets and timeouts (:class:`TimeoutError` is one),
        :class:`ChannelClosed` for EOF, and :class:`ProtocolError` for
        a response that is not a frame (a version-3 peer's JSON line),
        has a bad header, or declares more than ``max_frame_bytes``
        (``frame-too-large``; its body is never read).
        """
        timeout = self.timeout_s if timeout_s is None else timeout_s
        async with self._lock:
            try:
                async with asyncio.timeout(timeout):
                    return await self._exchange(wire)
            except (OSError, ProtocolError):
                await self.close()
                raise
