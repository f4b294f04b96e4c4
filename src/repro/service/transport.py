"""The one frame transport under the server, the router and the clients.

Everything that moves length-prefixed frames
(:mod:`repro.service.protocol`) over TCP lives here once; the endpoints
built on it only say what their ops do.  Both sides check a frame's
prefix — magic and declared size — before they read or allocate the
rest, so ``max_frame_bytes`` bounds memory per frame.

* :class:`FrameServer` — the listening side (lifecycle, limits, op
  dispatch, error frames, instruments); the matching server and the
  cluster router subclass it with an op table and three hooks.
* :class:`Background` / :func:`run_until_shutdown` — run one on a
  daemon thread with its own loop, or blocking the calling thread.
* :class:`FrameChannel` — the connecting side on asyncio streams
  (:func:`read_frame`), under ``NodeChannel`` and
  ``AsyncMatchingClient``.

Concurrency model of a served connection — one buffered protocol
(:class:`_FrameProtocol`), no reader task and no queue:

* the socket callback frames what it reads: a frame that arrived whole
  is sliced out of a small staging buffer, the rest of a longer body is
  read straight into the frame's own buffer;
* the same callback answers the frame when its handler returns a dict
  (the light ops, and a small C-loop feed stepped inline —
  :mod:`repro.service.batching`); a thread-pool future
  (:meth:`FrameServer._offload`) is answered in its done-callback, a
  coroutine (the router's ops, a parked feed) on the connection's one
  long-lived task, in the step where it ends;
* frames of one connection execute strictly in order — the next starts
  once the previous response is written — while different connections
  proceed in parallel;
* at most ``max_inflight`` parsed frames wait per connection; at the
  bound, or while the peer leaves its responses unread, the socket is
  not read — ordinary TCP backpressure;
* :meth:`FrameServer.drain` (or a client ``shutdown`` frame) stops
  accepting and reading, answers every frame already parsed, then
  closes the connections.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

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

#: what one socket read between frames may bring in: a frame that
#: arrived whole is sliced out of it, and only the first bytes of a
#: longer body pass through it (the rest is read straight into the
#: frame's own buffer)
_STAGING_BYTES = 8192


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


@dataclass(eq=False)  # identity-hashed: it keys the server's table
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
        #: every open connection, mapped to the protocol serving it
        self._conns: dict[Connection, _FrameProtocol] = {}
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
        self._server = await asyncio.get_running_loop().create_server(
            partial(_FrameProtocol, self), self.host, self._requested_port
        )

    async def serve_forever(self) -> None:
        """Run until :meth:`stop` (or a client ``shutdown`` frame)."""
        if self._server is None:
            await self.start()
        await self._stopped.wait()

    async def drain(self) -> None:
        """Graceful shutdown: stop accepting, finish queued work, close.

        Every frame already parsed off a socket is processed and its
        response written before the connection closes; nothing new is
        read or accepted.
        """
        if self._server is None:
            return
        _log.info(f"{self.role}.draining", connections=len(self._conns))
        self.draining = True
        for protocol in list(self._conns.values()):
            protocol.stop_reading()
        self._server.close()
        await self._server.wait_closed()
        if self._conns:
            await asyncio.wait([p.task for p in self._conns.values()])
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
        # this frame's response is written before the callback that
        # answers it returns, so before the drain task's first step
        self._drain_task = asyncio.create_task(self.drain())
        return {"draining": True}


class _FrameProtocol(asyncio.BufferedProtocol):
    """One served connection, framed and answered in its socket
    callbacks (see the module docstring); :attr:`task` runs its
    coroutine handlers and releases it once it closes."""

    def __init__(self, server: FrameServer) -> None:
        self.server = server
        self.frames: deque = deque()  # parsed, not started, oldest first
        self._staging = bytearray(_STAGING_BYTES)
        self._start = self._end = 0  # staged bytes not framed yet
        self._body: tuple[bytes, bytearray] | None = None  # read straight in
        self._got = 0  # bytes of ``_body`` read so far
        self._busy = False  # a started frame is not answered yet
        self._id = self._op = self._began = None  # its id, op, start time
        self._job = None  # a coroutine handler's, for the task
        self._wake: asyncio.Future | None = None  # the idle task's
        self._writable = True  # the peer is reading its responses
        self._eof = False  # the peer sent everything it will send
        self._stopped = False  # frame nothing more (drain, refusal, reset)
        self._refusal: bytes | None = None  # written after the rest
        self._closing = False

    # -- asyncio callbacks ------------------------------------------------
    def connection_made(self, transport) -> None:
        server = self.server
        self.transport = transport
        self.conn = conn = server.connection_type(next(server._conn_ids))
        server._conns[conn] = self
        server._connections_total += 1
        _CONNECTIONS_TOTAL.labels().inc()
        _CONNECTIONS_ACTIVE.labels().inc()
        _log.debug(
            "connection.open",
            conn_id=conn.conn_id,
            peer=str(transport.get_extra_info("peername")),
        )
        loop = asyncio.get_running_loop()
        self._lost = loop.create_future()
        self.task = loop.create_task(self._serve())
        if server.draining:
            self.stop_reading()

    def get_buffer(self, sizehint: int) -> memoryview:
        if self._body is not None:
            return memoryview(self._body[1])[self._got :]
        if self._start:  # less than a prefix is left: to the front
            kept = self._end - self._start
            self._staging[:kept] = self._staging[self._start : self._end]
            self._start, self._end = 0, kept
        return memoryview(self._staging)[self._end :]

    def buffer_updated(self, nbytes: int) -> None:
        if self._body is None:
            self._end += nbytes
        else:
            self._got += nbytes
            if self._got < len(self._body[1]):
                return
            self._parsed(*self._body)
            self._body = None
        self._advance()

    def eof_received(self) -> bool:
        self._eof = True
        self._advance()
        return True  # stay open: parsed frames are still answered

    def connection_lost(self, exc) -> None:
        if exc is not None:
            _log.debug(
                "connection.reset", conn_id=self.conn.conn_id, error=str(exc)
            )
        self._lost.set_result(None)
        self._inflight(-len(self.frames))  # nothing more is answered
        self.frames.clear()
        self.stop_reading()

    def pause_writing(self) -> None:
        self._writable = False

    def resume_writing(self) -> None:
        self._writable = True
        self._advance()

    def stop_reading(self) -> None:
        """Frame nothing more; answer what is parsed, then close."""
        self._stopped = True
        self._body = None  # a partly read frame was never parsed
        self._advance()

    # -- framing ----------------------------------------------------------
    def _inflight(self, frames: int) -> None:
        self.server._inflight += frames
        _INFLIGHT.labels().inc(frames)

    def _parsed(self, prefix: bytes, body: bytearray) -> None:
        self.frames.append((prefix, body))
        self._inflight(1)

    def _frame(self) -> None:
        """Frame the staged bytes, up to the in-flight bound.  A frame
        not staged whole gets its own body buffer (its size checked
        first), and the rest of it is read straight in."""
        staging, server = self._staging, self.server
        while not self._stopped and len(self.frames) < server.max_inflight:
            start, end = self._start, self._end
            try:
                if end - start < PREFIX_BYTES:
                    if end > start:  # one byte refuses a version-3 line
                        check_frame_start(staging[start : start + 1])
                    return
                prefix = bytes(staging[start : start + PREFIX_BYTES])
                size = frame_body_bytes(prefix, server.max_frame_bytes)
            except ProtocolError as exc:
                _log.warning(
                    "connection.refused",
                    conn_id=self.conn.conn_id,
                    code=exc.code,
                    error=str(exc),
                )
                self._refusal = _refusal_wire(exc)
                self._stopped = True
                return
            start += PREFIX_BYTES
            if start + size <= end:
                self._start = start + size
                self._parsed(prefix, staging[start : self._start])
                continue
            self._body = (prefix, bytearray(size))
            self._got = end - start
            self._body[1][: self._got] = memoryview(staging)[start:end]
            self._start = self._end = 0
            return

    # -- answering --------------------------------------------------------
    def _advance(self) -> None:
        """Start parsed frames in order while each is answered at once,
        then read on, pause at the bound, or close."""
        server = self.server
        while True:
            self._frame()
            if self._busy or not self.frames or not self._writable:
                break
            self._inflight(-1)
            self._busy = True
            outcome = self._dispatch(self.frames.popleft())
            if isinstance(outcome, asyncio.Future):
                outcome.add_done_callback(self._settled)
            elif outcome is not None:
                self._job = outcome
                self._wake_task()
        if self._stopped or len(self.frames) >= server.max_inflight:
            self.transport.pause_reading()
        else:
            self.transport.resume_reading()  # a no-op after EOF
        if (self._stopped or self._eof) and not (
            self._busy or self.frames or self._closing
        ):
            # all answered, nothing more will be: refuse, then release
            if self._refusal is not None:
                server._frames_processed += 1
                self.transport.write(self._refusal)
            self._closing = True
            self._wake_task()

    def _dispatch(self, raw: tuple[bytes, bytearray]):
        """Decode one raw frame (prefix, body) and run its handler;
        answer it now when that returned a dict (or failed), else return
        the awaitable its payload comes from."""
        self._id, self._op, self._began = None, "unknown", time.perf_counter()
        try:
            frame = decode_frame_body(*raw)
            self._id = frame.get("id")
            op = frame.get("op")
            if not isinstance(op, str):
                raise ProtocolError("frame has no 'op' field", code="bad-request")
            self._op = op
            handler = self.server._ops.get(op)
            if handler is None:
                raise ProtocolError(f"unknown op {op!r}", code="unknown-op")
            payload = handler(self.conn, frame)
            if not isinstance(payload, dict):
                return payload
            self._reply(payload)
        except Exception as exc:  # noqa: BLE001 — see _reply
            self._reply(exc=exc)
        return None

    def _reply(self, payload: dict | None = None, exc=None) -> None:
        """Write the response to the frame being answered — ``payload``,
        or the error frame for the failure ``exc`` (a handler bug is an
        ``internal`` error frame, never a dead connection) — and let
        the next frame start.  Raises before it writes anything."""
        server = self.server
        if exc is None:
            # a payload may itself be a relayed error frame (the router
            # passes a node's answer through): its ``ok`` wins
            response = ok_frame(self._id, **payload)
            outcome = "ok" if response["ok"] else str(response.get("code", "error"))
        elif isinstance(exc, ReproError):
            outcome, extra = server._error_fields(exc)
            _log.info(
                "request.rejected",
                conn_id=self.conn.conn_id,
                op=self._op,
                code=outcome,
                error=str(exc),
            )
            response = {**error_frame(self._id, str(exc), outcome), **extra}
        else:
            _log.error(
                "request.internal_error",
                conn_id=self.conn.conn_id,
                op=self._op,
                error=f"{type(exc).__name__}: {exc}",
            )
            response = error_frame(
                self._id, f"{type(exc).__name__}: {exc}", "internal"
            )
            outcome = "internal"
        _REQUESTS.labels(self._op, outcome).inc()
        _REQUEST_SECONDS.labels(self._op).observe(
            time.perf_counter() - self._began
        )
        wire = encode_frame(response)
        if len(wire) > server.max_frame_bytes:
            wire = encode_frame(
                error_frame(
                    self._id,
                    f"response exceeds max_frame_bytes ({server.max_frame_bytes}); "
                    f"lower max_reports or use smaller chunks",
                    "frame-too-large",
                )
            )
        server._frames_processed += 1
        self.transport.write(wire)
        self._busy = False

    def _settled(self, future: asyncio.Future) -> None:
        try:
            self._reply(future.result())
        except (Exception, asyncio.CancelledError) as exc:
            self._reply(exc=exc)
        self._advance()

    def _wake_task(self) -> None:
        if self._wake is not None and not self._wake.done():
            self._wake.set_result(None)

    async def _serve(self) -> None:
        """The connection's one task: run each coroutine handler and
        answer its frame in the step where it ends; release the
        connection once it closes."""
        server, conn = self.server, self.conn
        try:
            while not self._closing:
                if self._job is None:
                    self._wake = asyncio.get_running_loop().create_future()
                    await self._wake
                    continue
                job, self._job = self._job, None
                try:
                    self._reply(await job)
                except Exception as exc:  # noqa: BLE001 — see _reply
                    self._reply(exc=exc)
                self._advance()
        finally:
            await server._release_connection(conn)
            _CONNECTIONS_ACTIVE.labels().dec()
            _log.debug("connection.close", conn_id=conn.conn_id)
            self.transport.close()
            await self._lost
            del server._conns[conn]


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
        forever) bounds connect + write + read together.  Whatever ends
        an exchange early closes the channel before it propagates — a
        cancellation too, which would otherwise leave this frame's
        answer on the wire for the next call to read — so the next call
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
            except BaseException:
                await self.close()
                raise
