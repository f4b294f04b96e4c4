"""Clients for the network matching service (sync and asyncio).

:class:`MatchingClient` is a plain blocking-socket client — the right
tool for scripts, tests and thread-per-connection load generators.
:class:`AsyncMatchingClient` speaks the same protocol over asyncio
streams for callers that already live on an event loop.  Both expose
the service surface one-to-one: ``register`` a ruleset (regex rules, an
MNRL document, or an :class:`~repro.automata.nfa.Automaton`, shipped as
MNRL), one-shot ``scan`` / ``scan_many``, named resumable sessions, and
``stats``.

Reports come back columnar, as the server sent them: a scan result's
``reports`` and what ``session.feed`` returns are
:class:`~repro.sim.reports.ReportBatch` views over the decoded arrays,
so a :class:`~repro.sim.reports.Report` is built only when an item is
read.

Engine-level report-cap semantics carry across the wire: a response
whose ``warnings`` list is non-empty re-raises each entry as a
:class:`~repro.sim.engine.ReportTruncationWarning`, and an error frame
with code ``truncated`` (the strict policy) raises
:class:`~repro.errors.SimulationError` — exactly what the in-process
engine would have done.  Other error frames raise :class:`RemoteError`
carrying the server's error code.

Quick use::

    from repro.service.client import MatchingClient

    with MatchingClient(port=port) as client:
        handle = client.register({"r1": "(a|b)e*cd+"})
        result = client.scan(handle, payload)
        session = client.open_session(handle, "tenant-a")
        session.feed(chunk1); session.feed(chunk2)
        session.close()
"""

from __future__ import annotations

import asyncio
import itertools
import random
import socket
import time
import warnings
from dataclasses import dataclass, field
from operator import itemgetter

from repro.automata.mnrl import dumps_mnrl
from repro.automata.nfa import Automaton
from repro.errors import ConfigError, ReproError, SimulationError
from repro.service.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    IDEMPOTENT_OPS,
    PREFIX_BYTES,
    ProtocolError,
    decode_frame_body,
    decode_reports,
    encode_data,
    encode_frame,
    frame_body_bytes,
)
from repro.service.transport import ChannelClosed, FrameChannel
from repro.sim.backends import ReportTruncationWarning
from repro.sim.reports import ReportBatch


class RemoteError(ReproError):
    """The server answered a request with an error frame."""

    def __init__(self, message: str, code: str = "internal") -> None:
        self.code = code
        super().__init__(message)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff + jitter for transient I/O.

    Applies to connect failures and to broken-connection errors on
    requests whose op is idempotent
    (:data:`~repro.service.protocol.IDEMPOTENT_OPS`).  Non-idempotent
    frames (``feed``, ``update``, ``open``, ``close``) are *never*
    retried once the request may have reached the server — a replayed
    ``feed`` would double-scan a chunk, a replayed ``update`` would
    re-apply a ruleset delta.  Server error frames are answers, not
    failures, and are never retried either.

    Off by default: pass ``retry=RetryPolicy()`` to a client to opt in.
    """

    attempts: int = 3
    backoff_s: float = 0.05
    max_backoff_s: float = 2.0
    #: +/- fraction of the computed backoff added as uniform jitter
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ConfigError("RetryPolicy.attempts must be >= 1")
        if self.backoff_s < 0 or self.max_backoff_s < 0:
            raise ConfigError("RetryPolicy backoffs must be >= 0")
        if not 0 <= self.jitter <= 1:
            raise ConfigError("RetryPolicy.jitter must be in [0, 1]")

    def delay(self, attempt: int) -> float:
        """Sleep before retry number ``attempt`` (0-based)."""
        base = min(self.backoff_s * (2**attempt), self.max_backoff_s)
        if self.jitter <= 0:
            return base
        return base * (1.0 + random.uniform(-self.jitter, self.jitter))


@dataclass
class RemoteScanResult:
    """One remote scan's outcome (the wire view of ``ServiceResult``)."""

    reports: ReportBatch
    num_reports: int
    truncated: bool
    bytes_scanned: int
    elapsed_s: float
    backends: list[str]
    cached: bool
    warnings: list[str] = field(default_factory=list)
    #: digest of the ScanConfig the request carried, echoed by the
    #: server (None when the request used loose fields only)
    config_digest: str | None = None
    #: modeled CAMA hardware cost (``HardwareLedger.to_dict()`` form);
    #: present only when the scan was ledgered (``hardware_ledger``)
    ledger: dict | None = None
    #: server-side trace id for joining with server spans/log lines;
    #: present only when the scan was traced
    trace_id: str | None = None

    @property
    def throughput_mbps(self) -> float:
        if self.elapsed_s <= 0.0:
            return 0.0
        return self.bytes_scanned / self.elapsed_s / 1e6


# -- frame builders / response handling shared by both clients ------------


def _register_frame(ruleset, kind: str | None, name: str | None) -> dict:
    if isinstance(ruleset, Automaton):
        return {
            "op": "register",
            "kind": "mnrl",
            "text": dumps_mnrl(ruleset),
            "name": name or ruleset.name,
        }
    if kind == "mnrl" or (kind is None and isinstance(ruleset, str)):
        return {
            "op": "register",
            "kind": "mnrl",
            "text": ruleset,
            "name": name or "remote",
        }
    if kind in (None, "regex"):
        return {
            "op": "register",
            "kind": "regex",
            "rules": ruleset,
            "name": name or "remote",
        }
    raise ProtocolError(f"unknown ruleset kind {kind!r}", code="bad-request")


def _artifact_frame(artifact) -> dict:
    """Build the upload frame for a precompiled ruleset artifact.

    Accepts a :class:`~repro.compile.artifact.CompiledArtifact`, its
    bytes (:meth:`~repro.compile.artifact.CompiledArtifact.to_bytes`),
    or a filesystem path to a saved one.
    """
    from pathlib import Path

    from repro.compile.artifact import CompiledArtifact

    if isinstance(artifact, CompiledArtifact):
        data = artifact.to_bytes()
    elif isinstance(artifact, (bytes, bytearray)):
        data = bytes(artifact)
    elif isinstance(artifact, (str, Path)):
        data = Path(artifact).read_bytes()
    else:
        raise ProtocolError(
            f"cannot upload a {type(artifact).__name__} as an artifact",
            code="bad-request",
        )
    return {"op": "register_artifact", "data": encode_data(data)}


def _update_frame(
    handle: str, *, add: dict | list | None, remove: list | None
) -> dict:
    if add is None and remove is None:
        raise ProtocolError(
            "update needs add= and/or remove=", code="bad-request"
        )
    frame = {"op": "update", "handle": handle}
    if add is not None:
        frame["add"] = add
    if remove is not None:
        frame["remove"] = list(remove)
    return frame


def _scan_frame(op: str, handle: str, *, config=None, **options) -> dict:
    frame = {"op": op, "handle": handle}
    if config is not None:
        from repro.api.config import ScanConfig

        if not isinstance(config, ScanConfig):
            raise ConfigError(
                f"config must be a ScanConfig, got {type(config).__name__}"
            )
        # the dict form is the wire form; the server echoes its digest
        # back as config_digest, so round-tripping is verifiable
        frame["config"] = config.to_dict()
    for key, value in options.items():
        if value is not None:
            frame[key] = value
    return frame


def _checked(response: dict, request_id) -> dict:
    """Validate one response frame; surface warnings and errors."""
    answered = response.get("id")
    if answered != request_id and (answered is not None or response.get("ok")):
        raise ProtocolError(
            f"out-of-order response: expected id {request_id!r}, "
            f"got {answered!r}"
        )
    if not response.get("ok", False):
        # connection-level rejections (e.g. an oversized request line)
        # carry id null; any other id matched above
        message = response.get("error", "unknown server error")
        code = response.get("code", "internal")
        if code == "truncated":
            # the strict report-cap policy: match the engine's exception
            raise SimulationError(message)
        raise RemoteError(message, code)
    for message in response.get("warnings", ()):
        warnings.warn(message, ReportTruncationWarning, stacklevel=3)
    return response


def _scan_result(payload: dict) -> RemoteScanResult:
    return RemoteScanResult(
        reports=decode_reports(payload["reports"]),
        num_reports=payload["num_reports"],
        truncated=payload["truncated"],
        bytes_scanned=payload["bytes"],
        elapsed_s=payload["elapsed_s"],
        backends=payload["backends"],
        cached=payload["cached"],
        warnings=list(payload.get("warnings", ())),
        config_digest=payload.get("config_digest"),
        ledger=payload.get("ledger"),
        trace_id=payload.get("trace_id"),
    )


def _scan_many_results(payload: dict) -> dict[str, RemoteScanResult]:
    results = {}
    for name, result in payload["results"].items():
        # per-stream truncation warnings
        for message in result.get("warnings", ()):
            warnings.warn(message, ReportTruncationWarning, stacklevel=4)
        results[name] = _scan_result(result)
    return results


def _whole(payload: dict) -> dict:
    return payload


class RemoteSession:
    """A named resumable stream on a client connection.

    On an :class:`AsyncMatchingClient` the two methods return
    awaitables (``await session.feed(chunk)``).
    """

    def __init__(self, client: "_ServiceSurface", name: str) -> None:
        self._client = client
        self.name = name
        self.position = 0
        self.truncated = False
        self.closed = False
        #: running :class:`~repro.telemetry.ledger.HardwareLedger` dict
        #: over everything fed so far; None unless the session was
        #: opened with ``hardware_ledger``
        self.ledger: dict | None = None

    def _absorb(self, payload: dict) -> ReportBatch:
        self.position = payload["position"]
        self.truncated = payload["truncated"]
        if "ledger" in payload:
            self.ledger = payload["ledger"]
        return decode_reports(payload["reports"])

    def _closed(self, payload: dict) -> dict:
        self.closed = True
        if "ledger" in payload:
            self.ledger = payload["ledger"]
        return payload

    def feed(self, chunk: bytes) -> ReportBatch:
        """Send one chunk; return only the reports it produced."""
        return self._client._call(
            {"op": "feed", "session": self.name, "data": encode_data(chunk)},
            self._absorb,
        )

    def close(self) -> dict:
        """Finish the stream; returns the accumulated summary."""
        return self._client._call(
            {"op": "close", "session": self.name}, self._closed
        )


#: the async client's sessions are the same class: ``_call`` decides
#: whether a method hands back a value or an awaitable
AsyncRemoteSession = RemoteSession


class _ServiceSurface:
    """The service's op surface, written once for both clients.

    Every method builds a request frame and names the function that
    decodes the response payload; :meth:`_call` does the round trip.
    The sync client's ``_call`` returns the decoded value, the async
    client's an awaitable of it — so each public method below is
    blocking on :class:`MatchingClient` and awaitable on
    :class:`AsyncMatchingClient`, from one definition.
    """

    retry: RetryPolicy | None
    tenant: str | None

    def _call(self, frame: dict, decode):
        raise NotImplementedError

    def _wire(self, frame: dict) -> dict:
        """Stamp one outgoing frame with the next id (and the tenant)."""
        wire = {"id": next(self._ids), **frame}
        if self.tenant is not None:
            wire.setdefault("tenant", self.tenant)
        return wire

    def _retry_delay(
        self, exc: OSError, op, attempt: int, sent: bool
    ) -> float:
        """Back-off before repeating a failed attempt — or, when it
        must not be repeated, ``exc`` again (EOF as ``closed``)."""
        policy = self.retry
        # a frame that may have reached the server is only safe to
        # replay when its op is idempotent
        if (
            policy is None
            or attempt + 1 >= policy.attempts
            or (sent and op not in IDEMPOTENT_OPS)
        ):
            if isinstance(exc, ChannelClosed):
                raise RemoteError(str(exc), code="closed") from None
            raise exc
        return policy.delay(attempt)

    def ping(self) -> dict:
        return self._call({"op": "ping"}, _whole)

    def health(self) -> dict:
        """The server's liveness/inventory frame: ``status``,
        ``uptime_s``, ``ruleset_versions``, ``open_sessions``,
        ``inflight``, ``connections``."""
        return self._call({"op": "health"}, _whole)

    def register(
        self, ruleset, *, kind: str | None = None, name: str | None = None
    ) -> str:
        """Register a ruleset; returns its handle (the fingerprint)."""
        return self._call(
            _register_frame(ruleset, kind, name), itemgetter("handle")
        )

    def register_artifact(self, artifact) -> str:
        """Upload a precompiled artifact; returns its handle.

        The server adopts the artifact's prebuilt engine instead of
        compiling, so registering a large ruleset costs an upload, not
        a compile.  ``artifact`` may be a ``CompiledArtifact``, its
        bytes, or the path of a saved one.
        """
        return self._call(_artifact_frame(artifact), itemgetter("handle"))

    def update(
        self,
        handle: str,
        *,
        add: dict | list | None = None,
        remove: list | None = None,
    ) -> dict:
        """Hot-swap a registered ruleset: add patterns and/or remove
        report codes, producing a new version under the same handle.

        Sessions already open finish on the version they opened with;
        scans and sessions after this call see the new one.  Returns
        the update payload — ``version``, ``fingerprint``, ``states``,
        ``reused_components``, ``compiled_components``.
        """
        return self._call(_update_frame(handle, add=add, remove=remove), _whole)

    def scan(
        self,
        handle: str,
        data: bytes,
        *,
        config=None,
        chunk_size: int | None = None,
        max_reports: int | None = None,
        on_truncation: str | None = None,
        hardware_ledger: bool | None = None,
        ledger_design: str | None = None,
        trace: bool | None = None,
    ) -> RemoteScanResult:
        return self._call(
            _scan_frame(
                "scan",
                handle,
                config=config,
                data=encode_data(data),
                chunk_size=chunk_size,
                max_reports=max_reports,
                on_truncation=on_truncation,
                hardware_ledger=hardware_ledger,
                ledger_design=ledger_design,
                trace=trace,
            ),
            _scan_result,
        )

    def scan_many(
        self,
        handle: str,
        streams: dict[str, bytes],
        *,
        config=None,
        chunk_size: int | None = None,
        max_reports: int | None = None,
        on_truncation: str | None = None,
        hardware_ledger: bool | None = None,
        ledger_design: str | None = None,
        trace: bool | None = None,
    ) -> dict[str, RemoteScanResult]:
        return self._call(
            _scan_frame(
                "scan_many",
                handle,
                config=config,
                streams={
                    name: encode_data(data) for name, data in streams.items()
                },
                chunk_size=chunk_size,
                max_reports=max_reports,
                on_truncation=on_truncation,
                hardware_ledger=hardware_ledger,
                ledger_design=ledger_design,
                trace=trace,
            ),
            _scan_many_results,
        )

    def open_session(
        self,
        handle: str,
        name: str,
        *,
        config=None,
        max_reports: int | None = None,
        on_truncation: str | None = None,
        hardware_ledger: bool | None = None,
        ledger_design: str | None = None,
    ) -> RemoteSession:
        return self._call(
            _scan_frame(
                "open",
                handle,
                config=config,
                session=name,
                max_reports=max_reports,
                on_truncation=on_truncation,
                hardware_ledger=hardware_ledger,
                ledger_design=ledger_design,
            ),
            lambda _payload: RemoteSession(self, name),
        )

    def stats(self) -> dict:
        return self._call({"op": "stats"}, _whole)

    def metrics(self) -> str:
        """The server's metrics in Prometheus text exposition format."""
        return self._call({"op": "metrics"}, itemgetter("metrics"))

    def shutdown(self) -> dict:
        """Ask the server to drain and stop (when it allows it)."""
        return self._call({"op": "shutdown"}, _whole)


class MatchingClient(_ServiceSurface):
    """Blocking-socket client for :class:`~repro.service.server.MatchingServer`.

    One client holds one connection; requests on it execute in order
    (which is what gives sessions their chunk ordering).  Use one client
    per thread for concurrent load.

    ``retry`` opts into bounded reconnect-and-retry on transient I/O
    (see :class:`RetryPolicy`); ``tenant`` stamps every frame with a
    tenant id (how a cluster router attributes quota).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        timeout: float | None = 30.0,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        retry: RetryPolicy | None = None,
        tenant: str | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.max_frame_bytes = max_frame_bytes
        self.retry = retry
        self.tenant = tenant
        self._ids = itertools.count(1)
        self._sock: socket.socket | None = None
        self._file = None

    # -- connection management -------------------------------------------
    def connect(self) -> "MatchingClient":
        if self._sock is None:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
            # frames are small request/response pairs; without NODELAY,
            # Nagle + delayed ACK adds ~40 ms to every round trip
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._file = self._sock.makefile("rb")
        return self

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._file.close()
                self._sock.close()
            finally:
                self._sock = None
                self._file = None

    def __enter__(self) -> "MatchingClient":
        return self.connect()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- request plumbing -------------------------------------------------
    def _call(self, frame: dict, decode):
        return decode(self._request(frame))

    def _request(self, frame: dict) -> dict:
        attempt = 0
        while True:
            sent = False
            try:
                self.connect()
                wire = self._wire(frame)
                sent = True  # from here the server may have seen it
                self._sock.sendall(encode_frame(wire))
                return _checked(self._read_frame(), wire["id"])
            except ProtocolError:
                # an answer that cannot be read whole or is not this
                # request's: drop the connection rather than desync it
                self.close()
                raise
            except OSError as exc:
                self.close()
                time.sleep(
                    self._retry_delay(exc, frame.get("op"), attempt, sent)
                )
                attempt += 1

    def _read_frame(self) -> dict:
        """Read one response frame, checking its prefix before the body
        (:func:`~repro.service.protocol.frame_body_bytes`)."""
        prefix = self._file.read(PREFIX_BYTES)
        if len(prefix) < PREFIX_BYTES and prefix[:1] != b"{":
            raise ChannelClosed("connection closed by server")
        size = frame_body_bytes(prefix, self.max_frame_bytes)
        body = self._file.read(size)
        if len(body) < size:
            raise ChannelClosed("connection closed by server mid-frame")
        return decode_frame_body(prefix, body)


class AsyncMatchingClient(_ServiceSurface):
    """Asyncio client: the same surface, awaitable.

    Requests on one client are serialized by its
    :class:`~repro.service.transport.FrameChannel`'s lock — the server
    answers a connection's frames in order, so interleaving writers
    would misattribute responses.  Open several clients for true
    concurrency.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        retry: RetryPolicy | None = None,
        tenant: str | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.max_frame_bytes = max_frame_bytes
        self.retry = retry
        self.tenant = tenant
        self._ids = itertools.count(1)
        self._channel = FrameChannel(
            host, port, max_frame_bytes=max_frame_bytes
        )

    async def connect(self) -> "AsyncMatchingClient":
        await self._channel.connect()
        return self

    async def close(self) -> None:
        await self._channel.close()

    async def __aenter__(self) -> "AsyncMatchingClient":
        return await self.connect()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    async def _call(self, frame: dict, decode):
        return decode(await self._request(frame))

    async def _request(self, frame: dict) -> dict:
        attempt = 0
        while True:
            sent = False
            try:
                await self._channel.connect()
                wire = self._wire(frame)
                sent = True  # from here the server may have seen it
                response = await self._channel.round_trip(wire)
                return _checked(response, wire["id"])
            except ProtocolError:
                await self._channel.close()  # out of step: resync
                raise
            except OSError as exc:  # the channel closed itself
                await asyncio.sleep(
                    self._retry_delay(exc, frame.get("op"), attempt, sent)
                )
                attempt += 1
