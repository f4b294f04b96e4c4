"""The shared transport (:mod:`repro.service.transport`), outside in.

The suites:

* **wire conformance** — every framing, limit, back-pressure and drain
  behaviour of the frame server, run against both endpoints built on
  it: a ``MatchingServer`` and a ``ClusterRouter`` fronting one node.
  Each case asserts one literal error ``code``, so the two endpoints
  cannot drift apart without a case failing on one of them;
* **client parity** — one table walks every public op of the sync
  client and checks the async client sends byte-identical request
  frames and decodes equal results;
* **frame channel** — the raw channel's limit / EOF / id mapping that
  ``NodeChannel`` and ``AsyncMatchingClient`` both stand on;
* **served connection** — the server's per-connection protocol driven
  callback by callback on a fake transport: any segmentation of a frame
  stream gets the same answers, within the in-flight bound, and a light
  frame or inline feed is answered in the callback that delivered it;
* **frame codec** — hypothesis round trips of bytes-like leaves at any
  depth, and every truncation or damaged prefix / reference either
  failing as :class:`ProtocolError` or decoding exactly, with no read
  past ``max_frame_bytes``.
"""

import asyncio
import contextlib
import dataclasses
import inspect
import json
import socket
import struct
import threading
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.api import ScanConfig
from repro.automata import compile_regex_set
from repro.cluster import BackgroundRouter, ClusterRouter, NodeChannel, NodeError
from repro.compile import CompiledArtifact, compile_ruleset
from repro.errors import ConfigError, SimulationError
from repro.service import (
    AsyncMatchingClient,
    BackgroundServer,
    MatchingClient,
    MatchingServer,
    ProtocolError,
    RemoteError,
)
from repro.service.client import RemoteSession
from repro.service.protocol import (
    DEFAULT_MAX_INFLIGHT,
    FRAME_MAGIC,
    FRAME_PREFIX,
    PREFIX_BYTES,
    decode_frame,
    decode_frame_body,
    encode_data,
    encode_frame,
    frame_body_bytes,
)
from repro.service.transport import (
    ChannelClosed,
    FrameChannel,
    _FrameProtocol,
    read_frame,
)
from repro.sim.backends.native import native_available
from repro.sim.reports import ReportBatch
from wire import RawConn, raw_frame, read_raw_frame

RULES = {"r1": "(a|b)e*cd+", "r2": "abc", "r3": "x+y"}
STREAM = b"aecdabcxxyaecddabcyx" * 40


# ---------------------------------------------------------------------------
# wire conformance: [server, router -> 1 node]
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def serve(kind, **transport):
    """A started endpoint of ``kind``; ``transport`` holds the options
    both constructors share (``max_frame_bytes``, ``allow_shutdown``)."""
    config = ScanConfig(num_shards=1)
    if kind == "server":
        with BackgroundServer(config=config, **transport) as bg:
            yield bg
        return
    with BackgroundServer(config=config) as node:
        router = ClusterRouter(
            [("127.0.0.1", node.port)],
            replication=1,
            health_interval_s=0.5,
            **transport,
        )
        with BackgroundRouter(router) as bg:
            yield bg


@pytest.fixture(params=["server", "router"])
def kind(request):
    return request.param


@pytest.fixture(scope="module", params=["server", "router"])
def endpoint(request):
    with serve(request.param) as bg:
        yield bg


class TestWireConformance:
    def test_malformed_json_keeps_connection(self, endpoint):
        with RawConn(endpoint.port) as conn:
            conn.sock.sendall(raw_frame(b"not json at all"))
            response = conn.read()
            assert response["ok"] is False
            assert response["code"] == "bad-frame"
            assert response["id"] is None
            # the frame's bounds were known: the connection survives
            conn.send({"id": 1, "op": "ping"})
            response = conn.read()
            assert response["ok"] is True and response["pong"] is True

    def test_non_object_frame_rejected(self, endpoint):
        with RawConn(endpoint.port) as conn:
            conn.sock.sendall(raw_frame(b"[1,2,3]"))
            response = conn.read()
            assert response["ok"] is False
            assert response["code"] == "bad-frame"

    def test_references_disagreeing_with_the_prefix_are_bad_frame(
        self, endpoint
    ):
        header = b'{"id":2,"op":"ping","d":{"$bytes":2}}'
        with RawConn(endpoint.port) as conn:
            for frame in [
                raw_frame(header, b"ab", count=2),  # count disagrees
                raw_frame(header, b"abc", count=1),  # a byte left over
                raw_frame(header.replace(b"2}", b"9}"), b"ab", count=1),
            ]:
                conn.sock.sendall(frame)
                assert conn.read()["code"] == "bad-frame"
            # a user dict shaped like a reference is never rewritten
            conn.send({"id": 3, "op": "ping", "x": {"$bytes": 0}, "d": b"ab"})
            assert conn.read()["code"] == "bad-frame"
            conn.sock.sendall(raw_frame(header, b"ab", count=1))
            assert conn.read()["pong"] is True

    def test_missing_op_echoes_the_id(self, endpoint):
        with RawConn(endpoint.port) as conn:
            conn.send({"id": 7, "handle": "x"})
            response = conn.read()
            assert response["code"] == "bad-request"
            assert response["id"] == 7

    def test_unknown_op_and_missing_fields(self, endpoint):
        with MatchingClient(port=endpoint.port) as client:
            with pytest.raises(RemoteError) as excinfo:
                client._request({"op": "teleport"})
            assert excinfo.value.code == "unknown-op"
            with pytest.raises(RemoteError) as excinfo:
                client._request({"op": "scan"})
            assert excinfo.value.code == "bad-request"

    def test_oversized_request_is_rejected_then_closed(self, kind):
        with serve(kind, max_frame_bytes=2048) as bg:
            with RawConn(bg.port) as conn:
                # only the prefix is sent: the refusal must come from
                # the declared size, before any body is read
                conn.sock.sendall(FRAME_PREFIX.pack(0xCA, 0, 5000, 0, 10))
                response = conn.read()
                assert response["ok"] is False
                assert response["code"] == "frame-too-large"
                assert response["id"] is None  # the frame was never read
                assert conn.at_eof()  # connection closed

    @pytest.mark.parametrize(
        "line", [b'{"id": 1, "op": "ping"}\n', b"{}\n"], ids=["ping", "short"]
    )
    def test_a_version_3_line_is_refused_then_closed(self, endpoint, line):
        with RawConn(endpoint.port) as conn:
            conn.sock.sendall(line)
            response = conn.read_line()  # the one answer a v3 peer reads
            assert response["ok"] is False
            assert response["code"] == "bad-frame"
            assert "version 3" in response["error"]
            assert "version 4" in response["error"]
            assert conn.at_eof()

    def test_an_unframeable_stream_is_refused_then_closed(self, endpoint):
        with RawConn(endpoint.port) as conn:
            conn.sock.sendall(b"GET / HTTP/1.1\r\n\r\n")
            response = conn.read_line()
            assert response["code"] == "bad-frame"
            assert conn.at_eof()

    def test_oversized_response_is_replaced_with_error(self, kind):
        # tiny frame budget: a scan whose report list exceeds it must
        # produce an error frame, not a torn response.  1000 input
        # bytes fit the request budget; the 1000-report response does
        # not (its request id is preserved in the error frame).
        with serve(kind, max_frame_bytes=2048) as bg:
            with MatchingClient(port=bg.port) as client:
                handle = client.register({"r": "a"})
                with pytest.raises(RemoteError) as excinfo:
                    client.scan(handle, b"a" * 1000)
                assert excinfo.value.code == "frame-too-large"
                # the connection is still usable afterwards
                assert client.ping()["pong"] is True
                assert client.scan(handle, b"a" * 10).num_reports == 10

    def test_inflight_frames_are_bounded_and_none_is_lost(self, kind):
        """A client that pipelines past ``max_inflight`` is not read
        past it (TCP back-pressure), and every frame is still answered,
        in order, once the client reads."""
        frames = 3 * DEFAULT_MAX_INFLIGHT
        with serve(kind) as bg:
            with MatchingClient(port=bg.port) as setup:
                handle = setup.register(RULES)
            data = encode_data(STREAM * 4)  # slow enough to queue up
            with RawConn(bg.port) as conn:
                conn.sock.sendall(
                    b"".join(
                        encode_frame(
                            {"id": i, "op": "scan", "handle": handle, "data": data}
                        )
                        for i in range(frames)
                    )
                )
                depth = []
                deadline = time.monotonic() + 0.3
                while time.monotonic() < deadline:
                    depth.append(bg.server._inflight)
                    time.sleep(0.005)
                assert max(depth) == DEFAULT_MAX_INFLIGHT
                answered = [conn.read() for _ in range(frames)]
            assert [r["id"] for r in answered] == list(range(frames))
            assert all(r["ok"] for r in answered)

    def test_pipelined_disconnect_does_not_wedge_stop(self, kind):
        """Regression: a client that pipelines slow scans past
        max_inflight and resets without reading responses must not
        deadlock the connection task (and with it, drain/stop): the
        response write fails, and with the reader blocked on the full
        queue a processor that simply exits would strand it forever."""
        with serve(kind) as bg:
            with MatchingClient(port=bg.port) as setup:
                handle = setup.register(RULES)
            for _ in range(2):
                sock = socket.create_connection(("127.0.0.1", bg.port), 5)
                # slow frames (real scans) so the queue fills while the
                # processor is busy; never read a byte of response
                scan = encode_frame(
                    {
                        "op": "scan",
                        "handle": handle,
                        "data": encode_data(STREAM * 4),
                    }
                )
                sock.sendall(scan * 4 * DEFAULT_MAX_INFLIGHT)
                # let the reader fill the bounded queue and block on it
                # while the processor is still mid-scan, then reset
                time.sleep(0.4)
                # abrupt close (RST where the platform produces one)
                sock.setsockopt(
                    socket.SOL_SOCKET,
                    socket.SO_LINGER,
                    struct.pack("ii", 1, 0),
                )
                sock.close()
            # the endpoint must still answer, and stop() must not hang
            # (Background.__exit__ raises if the thread does not stop)
            with MatchingClient(port=bg.port) as client:
                assert client.ping()["pong"] is True

    def test_dropped_connection_releases_its_sessions(self, endpoint):
        with MatchingClient(port=endpoint.port) as client:
            handle = client.register(RULES)
            client.open_session(handle, "orphan")
            assert client.stats()["active_sessions"] >= 1
        # the context exit closed the socket; the endpoint must reap
        with MatchingClient(port=endpoint.port) as client:
            deadline = time.monotonic() + 5.0
            while client.stats()["active_sessions"] and time.monotonic() < deadline:
                time.sleep(0.01)
            assert client.stats()["active_sessions"] == 0

    def test_shutdown_finishes_inflight_work_then_closes(self, kind):
        with serve(kind) as bg:
            with MatchingClient(port=bg.port) as client:
                client.register(RULES)
                assert client.shutdown()["draining"] is True
                # queued-before-drain frames still get responses; once
                # drained the connection closes — EOF ("closed"), or a
                # reset when a ping was already in flight towards it
                with pytest.raises((RemoteError, ConnectionError)) as excinfo:
                    for _ in range(100):
                        client.ping()
                if isinstance(excinfo.value, RemoteError):
                    assert excinfo.value.code == "closed"
            # new connections are refused after the drain completes
            for _ in range(100):
                try:
                    socket.create_connection(("127.0.0.1", bg.port), 0.2).close()
                except OSError:
                    break
            else:
                pytest.fail("endpoint kept accepting after drain")

    def test_drain_answers_every_frame_already_read(self, kind):
        """Frames pipelined behind a ``shutdown`` on the same connection
        were read before the drain began: each gets its response."""
        with serve(kind) as bg:
            with RawConn(bg.port) as conn:
                conn.sock.sendall(
                    encode_frame({"id": 0, "op": "shutdown"})
                    + b"".join(
                        encode_frame({"id": i, "op": "ping"}) for i in (1, 2, 3)
                    )
                )
                first = conn.read()
                assert first["id"] == 0 and first["draining"] is True
                rest = [conn.read() for _ in range(3)]
                assert conn.at_eof()
            assert [r["id"] for r in rest] == [1, 2, 3]
            assert all(r["pong"] for r in rest)

    def test_shutdown_can_be_disabled(self, kind):
        with serve(kind, allow_shutdown=False) as bg:
            with MatchingClient(port=bg.port) as client:
                with pytest.raises(RemoteError) as excinfo:
                    client.shutdown()
                assert excinfo.value.code == "bad-request"
                assert client.ping()["pong"] is True

    def test_second_start_raises(self, kind):
        with serve(kind) as bg:
            future = asyncio.run_coroutine_threadsafe(bg.server.start(), bg.loop)
            with pytest.raises(SimulationError, match="already started"):
                future.result(5)
            with pytest.raises(SimulationError, match="already started"):
                bg.start()

    @pytest.mark.parametrize("endpoint_class", [MatchingServer, ClusterRouter])
    def test_frame_limit_below_1024_is_rejected(self, endpoint_class):
        with pytest.raises(ConfigError, match="max_frame_bytes"):
            endpoint_class(max_frame_bytes=10)


# ---------------------------------------------------------------------------
# sync / async client parity
# ---------------------------------------------------------------------------

#: response fields that legitimately differ between two runs
VOLATILE = {"uptime_s", "elapsed_s", "throughput_mbps", "hit_rate"}


def stable(value):
    """``value`` with wall-clock fields dropped, recursively; a report
    batch compares as its ``(cycle, state_id, code)`` rows."""
    if isinstance(value, ReportBatch):
        return [(r.cycle, r.state_id, r.code) for r in value]
    if dataclasses.is_dataclass(value):
        value = {
            f.name: getattr(value, f.name) for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {k: stable(v) for k, v in value.items() if k not in VOLATILE}
    if isinstance(value, list):
        return [stable(v) for v in value]
    return value


def artifact_bytes():
    automaton = compile_regex_set(RULES, name="parity")
    return CompiledArtifact.from_compiled(
        compile_ruleset(automaton, backend="auto")
    ).to_bytes()


#: one row per public op, in a runnable order: ``(op, args, kwargs)``;
#: the string ``"<handle>"`` stands for the handle ``register`` returned
PARITY_OPS = [
    ("ping", (), {}),
    ("health", (), {}),
    ("register", (RULES,), {"name": "parity"}),
    ("register_artifact", (artifact_bytes(),), {}),
    ("scan", ("<handle>", STREAM), {"max_reports": 5, "chunk_size": 64}),
    (
        "scan_many",
        ("<handle>", {"a": STREAM[:100], "b": b""}),
        {"config": ScanConfig(chunk_size=32), "hardware_ledger": True},
    ),
    ("update", ("<handle>",), {"add": {"r9": "zz+q"}}),
    ("open_session", ("<handle>", "s"), {"max_reports": 500}),
    ("stats", (), {}),
    ("metrics", (), {}),
    ("shutdown", (), {}),
]
SESSION_OPS = [("feed", (STREAM[:64],)), ("feed", (STREAM[64:200],)), ("close", ())]


def public_ops(cls, *, lifecycle=()):
    return {
        name
        for name, member in inspect.getmembers(cls, callable)
        if not name.startswith("_") and name not in lifecycle
    }


CONNECTION = ("connect", "close")


class Recorder:
    """Capture the exact bytes a client puts on the wire."""

    def __init__(self, client):
        self.frames = []
        stamp = client._wire

        def recording(frame):
            wire = stamp(frame)
            self.frames.append(encode_frame(wire))
            return wire

        client._wire = recording


async def maybe_await(value):
    return await value if inspect.isawaitable(value) else value


async def drive(client, results):
    """Run the op table (then the session ops) against one client."""
    handle = None
    session = None
    for op, args, kwargs in PARITY_OPS:
        args = tuple(handle if a == "<handle>" else a for a in args)
        result = await maybe_await(getattr(client, op)(*args, **kwargs))
        if op == "register":
            handle = result
        if op == "open_session":
            session = result
            for method, session_args in SESSION_OPS:
                fed = await maybe_await(getattr(session, method)(*session_args))
                results.append((f"session.{method}", stable(fed)))
            result = (session.position, session.truncated, session.closed)
        results.append((op, stable(result)))


class TestClientParity:
    def test_the_table_covers_every_public_op(self):
        assert public_ops(MatchingClient, lifecycle=CONNECTION) == {
            op for op, _, _ in PARITY_OPS
        }
        assert public_ops(RemoteSession) == {op for op, _ in SESSION_OPS}

    def test_async_client_has_the_same_surface(self):
        assert public_ops(AsyncMatchingClient) == public_ops(MatchingClient)
        for name in public_ops(MatchingClient, lifecycle=CONNECTION):
            assert inspect.signature(
                getattr(AsyncMatchingClient, name)
            ) == inspect.signature(getattr(MatchingClient, name)), name

    def test_same_frames_out_equal_results_back(self):
        # one fresh, identical server per client, so the same op
        # sequence meets the same server state (ids, versions, counters)
        outcomes = {}
        for flavour in ("sync", "async"):
            with BackgroundServer(config=ScanConfig(num_shards=2)) as bg:
                results = []
                if flavour == "sync":
                    client = MatchingClient(port=bg.port)
                    recorder = Recorder(client)
                    with client:
                        asyncio.run(drive(client, results))
                else:

                    async def main():
                        async with AsyncMatchingClient(port=bg.port) as client:
                            rec = Recorder(client)
                            await drive(client, results)
                            return rec

                    recorder = asyncio.run(main())
                outcomes[flavour] = (recorder.frames, results)
        sync_frames, sync_results = outcomes["sync"]
        async_frames, async_results = outcomes["async"]
        assert sync_frames == async_frames  # byte-identical requests
        assert len(sync_frames) == len(PARITY_OPS) + len(SESSION_OPS)
        for (op, sync_value), (_, async_value) in zip(
            sync_results, async_results, strict=True
        ):
            if op == "metrics":
                # the registry is process-wide: it kept counting
                assert "repro_server_requests_total" in async_value
                continue
            assert sync_value == async_value, op


# ---------------------------------------------------------------------------
# the raw frame channel
# ---------------------------------------------------------------------------


class ScriptedPeer:
    """A one-connection TCP peer that answers each request frame with
    the next scripted reply (bytes written verbatim; None = hang up)."""

    def __init__(self, *replies):
        self._replies = list(replies)
        self._sock = socket.socket()
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(4)
        self.port = self._sock.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while self._replies:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            with conn, conn.makefile("rb") as file:
                while self._replies and read_raw_frame(file):
                    reply = self._replies.pop(0)
                    if reply is None:
                        break
                    conn.sendall(reply)

    def close(self):
        self._sock.close()
        self._thread.join(5)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def ok(request_id, **payload):
    return encode_frame({"id": request_id, "ok": True, **payload})


class TestFrameChannel:
    def test_round_trip_returns_the_raw_frame(self):
        with ScriptedPeer(encode_frame({"id": None, "ok": False, "code": "x"})) as peer:

            async def main():
                channel = FrameChannel("127.0.0.1", peer.port)
                response = await channel.round_trip({"op": "ping"})
                await channel.close()
                return response

            # error frames are answers: returned, not raised
            assert asyncio.run(main()) == {"id": None, "ok": False, "code": "x"}

    def test_overlong_response_is_frame_too_large_and_closes(self):
        with ScriptedPeer(ok(1, blob="x" * 5000), ok(1)) as peer:

            async def main():
                channel = FrameChannel(
                    "127.0.0.1", peer.port, max_frame_bytes=2048
                )
                with pytest.raises(ProtocolError) as excinfo:
                    await channel.round_trip({"id": 1, "op": "ping"})
                assert excinfo.value.code == "frame-too-large"
                assert not channel.connected  # mid-frame: unframeable
                # the next round trip starts on a fresh connection
                again = await channel.round_trip({"id": 1, "op": "ping"})
                await channel.close()
                return again

            assert asyncio.run(main())["ok"] is True

    def test_eof_is_channel_closed(self):
        with ScriptedPeer(None) as peer:

            async def main():
                channel = FrameChannel("127.0.0.1", peer.port)
                with pytest.raises(ChannelClosed):
                    await channel.round_trip({"op": "ping"})
                assert not channel.connected

            asyncio.run(main())

    def test_node_channel_maps_only_transport_failures_to_node_error(self):
        with ScriptedPeer(ok(1, blob="x" * 5000), None) as peer:

            async def main():
                channel = NodeChannel(
                    "127.0.0.1", peer.port, max_frame_bytes=2048
                )
                # an over-long answer is an answer ...
                with pytest.raises(ProtocolError) as excinfo:
                    await channel.request({"op": "scan"})
                assert excinfo.value.code == "frame-too-large"
                # ... a hang-up is a dead node
                with pytest.raises(NodeError, match="i/o failed"):
                    await channel.request({"op": "scan"})

            asyncio.run(main())

    def test_connect_failure_is_node_error(self):
        with socket.socket() as placeholder:
            placeholder.bind(("127.0.0.1", 0))
            port = placeholder.getsockname()[1]  # bound, not listening

            async def main():
                with pytest.raises(NodeError, match="i/o failed"):
                    await NodeChannel("127.0.0.1", port).request({"op": "ping"})

            asyncio.run(main())

    def test_every_client_checks_the_response_id(self):
        # the peer answers with somebody else's id — in an ok frame,
        # then in an error frame: a desynchronised stream must be an
        # error that drops the connection, never a misattributed result
        wrong = encode_frame({"id": 99, "ok": False, "error": "e", "code": "x"})
        with ScriptedPeer(*[ok(99), wrong] * 3) as peer:
            with MatchingClient(port=peer.port) as client:
                for _ in range(2):
                    with pytest.raises(ProtocolError, match="out-of-order"):
                        client.ping()
                    assert client._sock is None

            async def main():
                async with AsyncMatchingClient(port=peer.port) as client:
                    for _ in range(2):
                        with pytest.raises(ProtocolError, match="out-of-order"):
                            await client.ping()
                        assert not client._channel.connected
                channel = NodeChannel("127.0.0.1", peer.port)
                for _ in range(2):
                    with pytest.raises(ProtocolError, match="out of order"):
                        await channel.request({"op": "ping"})
                    assert not channel.connected

            asyncio.run(main())

    def test_a_cancelled_request_does_not_desync_the_channel(self):
        # regression: a request cancelled mid-exchange left its answer
        # on the wire, so every later request read its predecessor's
        dense = "native" if native_available() else "bitparallel"
        config = ScanConfig(num_shards=1, backend=dense)  # a quick scan
        with BackgroundServer(config=config) as bg:

            async def main():
                async with AsyncMatchingClient(port=bg.port) as client:
                    handle = await client.register(RULES)
                    with pytest.raises(TimeoutError):
                        await asyncio.wait_for(
                            client.scan(handle, bytes(4 << 20)), 0.001
                        )
                    assert not client._channel.connected
                    for _ in range(3):
                        assert (await client.ping())["pong"] is True

            asyncio.run(main())


# ---------------------------------------------------------------------------
# one served connection, callback by callback
# ---------------------------------------------------------------------------


class FakeTransport(asyncio.Transport):
    """Collects what a served connection's protocol writes; reading is
    paused and resumed by the protocol, and delivery honours it."""

    def __init__(self):
        super().__init__()
        self.written = bytearray()
        self.paused = self.closed = False

    def write(self, data):
        self.written += data

    def pause_reading(self):
        self.paused = True

    def resume_reading(self):
        self.paused = False

    def close(self):
        if not self.closed:
            self.closed = True
            loop = asyncio.get_running_loop()
            loop.call_soon(self.protocol.connection_lost, None)


def connect(server):
    """A protocol for one new connection to ``server`` (never started:
    nothing listens), on a fake transport."""
    transport = FakeTransport()
    transport.protocol = protocol = _FrameProtocol(server)
    protocol.connection_made(transport)
    return transport, protocol


def deliver(protocol, transport, data, depth=None) -> memoryview:
    """Hand ``data`` over as a socket would — each callback one
    ``recv_into`` of at most the buffer offered — until it is all in or
    reading pauses; returns what is left.  ``depth`` collects the
    in-flight count after every callback."""
    view = memoryview(data)
    while view and not transport.paused:
        buffer = protocol.get_buffer(-1)
        n = min(len(buffer), len(view))
        buffer[:n], view = view[:n], view[n:]
        protocol.buffer_updated(n)
        if depth is not None:
            depth.append(protocol.server._inflight)
    return view


def responses(wire: bytes) -> list:
    """The frames (and a refusal's JSON line) a connection wrote, with
    wall-clock fields dropped."""
    out, view = [], memoryview(wire)
    while view:
        if view[0] != FRAME_MAGIC:
            out.append(json.loads(bytes(view)))
            break
        size = PREFIX_BYTES + frame_body_bytes(bytes(view[:PREFIX_BYTES]), 1 << 30)
        out.append(stable(plain(decode_frame(view[:size]))))
        view = view[size:]
    return out


@pytest.fixture(scope="module")
def served():
    """A matching server that is never started, its ruleset registered:
    its protocol is driven by hand."""
    dense = "native" if native_available() else "bitparallel"
    server = MatchingServer(
        config=ScanConfig(num_shards=1, backend=dense),
        max_frame_bytes=8192,
        max_inflight=2,
        executor_workers=2,
    )
    automaton = compile_regex_set(RULES)
    server.service.register_ruleset(automaton)
    server.handle = automaton.fingerprint
    yield server
    server._executor.shutdown()
    server.service.close()


async def answered(transport, count: int) -> list:
    """Wait until the connection has written ``count`` responses."""
    for _ in range(5000):
        got = responses(transport.written)
        if len(got) >= count:
            return got
        await asyncio.sleep(0.001)
    raise AssertionError(f"{count} responses expected, got {got}")


_FRAMES = st.lists(
    st.one_of(
        st.just({"op": "ping"}),
        st.binary(max_size=600).map(lambda d: {"op": "feed", "data": d}),
        st.binary(max_size=3000).map(lambda d: {"op": "scan", "data": d}),
    ),
    max_size=8,
)
#: what may follow the valid frames: nothing, a prefix declaring more
#: than the server's 8192-byte limit, or bytes that are not a frame
_TAILS = st.sampled_from(
    [b"", FRAME_PREFIX.pack(FRAME_MAGIC, 0, 9000, 0, 10), b"{", b"\x00"]
)


class TestServedConnection:
    @settings(max_examples=60, deadline=None)
    @given(_FRAMES, _TAILS, st.data())
    def test_any_segmentation_gets_the_same_answers(
        self, served, frames, tail, data
    ):
        frames = [{"op": "open", "session": "s"}, *frames]
        stream = tail.join(
            [
                b"".join(
                    encode_frame(
                        {"id": i, "session": "s", "handle": served.handle, **f}
                    )
                    for i, f in enumerate(frames)
                ),
                b"",
            ]
        )
        cuts = sorted(
            set(data.draw(st.lists(st.integers(1, len(stream) - 1), max_size=12)))
        )
        pieces = [stream[a:b] for a, b in zip([0, *cuts], [*cuts, len(stream)])]

        async def serve(pieces):
            transport, protocol = connect(served)
            depth = []
            for piece in pieces:
                while piece := deliver(protocol, transport, piece, depth):
                    if transport.closed:
                        break
                    await asyncio.sleep(0.001)  # paused: let work drain
            protocol.eof_received()
            await protocol.task
            assert max(depth, default=0) <= served.max_inflight
            return responses(transport.written)

        whole = asyncio.run(serve([stream]))
        assert asyncio.run(serve(pieces)) == whole
        assert [r.get("id") for r in whole[: len(frames)]] == list(
            range(len(frames))
        )
        assert all(r["ok"] for r in whole[: len(frames)])
        if tail:
            assert len(whole) == len(frames) + 1
            assert whole[-1]["code"] in ("bad-frame", "frame-too-large")
        assert served._inflight == 0

    def test_unread_responses_hold_back_the_next_frame(self, served):
        async def main():
            transport, protocol = connect(served)
            protocol.pause_writing()  # the peer stopped reading
            pings = b"".join(encode_frame({"id": i, "op": "ping"}) for i in range(3))
            deliver(protocol, transport, pings)
            # nothing starts; two frames parsed (the bound), one staged
            assert transport.written == b"" and transport.paused
            assert served._inflight == served.max_inflight
            protocol.resume_writing()
            assert [r["id"] for r in responses(transport.written)] == [0, 1, 2]
            assert served._inflight == 0 and not transport.paused
            protocol.eof_received()
            await protocol.task

        asyncio.run(main())

    @pytest.mark.skipif(not native_available(), reason="needs the C loop")
    def test_light_frames_and_inline_feeds_answer_in_the_delivering_callback(
        self, served
    ):
        offloaded = []
        offload = served._offload

        def recording(fn, *args):
            offloaded.append(offload(fn, *args))
            return offloaded[-1]

        async def main():
            transport, protocol = connect(served)
            served._offload = recording
            try:
                deliver(protocol, transport, encode_frame({"id": 1, "op": "ping"}))
                # written before the callback that read it returned
                assert responses(transport.written)[0]["pong"] is True
                assert served._inflight == 0
                opening = {"id": 2, "op": "open", "handle": served.handle}
                deliver(protocol, transport, encode_frame({**opening, "session": "s"}))
                await answered(transport, 2)
                feed = {"id": 3, "op": "feed", "session": "s", "data": STREAM[:512]}
                deliver(protocol, transport, encode_frame(feed))
                assert responses(transport.written)[2]["position"] == 512
                assert served._inflight == 0
                scan = {"id": 4, "op": "scan", "handle": served.handle, "data": STREAM}
                deliver(protocol, transport, encode_frame(scan))
                # a scan leaves the loop: answered once its future is done
                assert len(responses(transport.written)) == 3
                assert not offloaded[-1].done()
                await offloaded[-1]
                assert (await answered(transport, 4))[3]["id"] == 4
            finally:
                served._offload = offload
            protocol.eof_received()
            await protocol.task

        asyncio.run(main())


# ---------------------------------------------------------------------------
# the frame codec
# ---------------------------------------------------------------------------


def plain(value):
    """``value`` with every bytes-like leaf as ``bytes``."""
    if isinstance(value, (bytes, bytearray, memoryview)):
        return bytes(value)
    if isinstance(value, dict):
        return {k: plain(v) for k, v in value.items()}
    if isinstance(value, list):
        return [plain(v) for v in value]
    return value


def looks_like_a_reference(value) -> bool:
    """Whether ``value`` holds a dict the decoder reads as a reference."""
    if isinstance(value, dict):
        if len(value) == 1 and type(value.get("$bytes")) is int:
            return True
        return any(looks_like_a_reference(v) for v in value.values())
    if isinstance(value, list):
        return any(looks_like_a_reference(v) for v in value)
    return False


#: keys, including ones shaped like the reference key or a reference
_KEYS = st.one_of(
    st.text(max_size=6),
    st.sampled_from(["$bytes", '{"$bytes":0}', "data", "streams"]),
)
_BLOBS = st.one_of(
    st.binary(max_size=40),
    st.binary(max_size=40).map(bytearray),
    st.binary(max_size=40).map(memoryview),
)
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**64), 2**64),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=8),
    _BLOBS,
)
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(_KEYS, inner, max_size=4)
    ),
    max_leaves=12,
)
FRAMES = st.dictionaries(_KEYS, _VALUES, max_size=6)


@settings(max_examples=300, deadline=None)
@given(FRAMES)
def test_frames_round_trip(frame):
    wire = encode_frame(frame)
    try:
        decoded = decode_frame(wire)
    except ProtocolError as exc:
        # only a user dict shaped like a reference may fail, and then
        # as bad-frame, never silently rewritten
        assert looks_like_a_reference(frame), exc
        assert exc.code == "bad-frame"
    else:
        assert plain(decoded) == plain(frame)


@pytest.mark.parametrize("count", [0, 1, 32])
def test_scan_many_frames_round_trip(count):
    names = ["$bytes", '{"$bytes":3}', "", "s"] + [f"s{i}" for i in range(28)]
    streams = {
        name: bytes([i]) * (i % 5) for i, name in enumerate(names[:count])
    }
    frame = {"id": 1, "op": "scan_many", "handle": "h", "streams": streams}
    decoded = decode_frame(encode_frame(frame))
    assert plain(decoded) == frame
    assert all(type(v) is memoryview for v in decoded["streams"].values())


def test_every_truncation_is_a_protocol_error():
    frame = {"id": 1, "op": "feed", "data": b"abc", "x": [b"", {"y": b"z"}]}
    wire = encode_frame(frame)
    for cut in range(len(wire)):
        with pytest.raises(ProtocolError):
            decode_frame(wire[:cut])


class _SizedReader(asyncio.StreamReader):
    """Records the largest read a frame reader asked for."""

    largest = 0

    async def readexactly(self, n):
        self.largest = max(self.largest, n)
        return await super().readexactly(n)


def read_back(wire: bytes, limit: int):
    """``wire`` through the stream reader with ``limit``: ``(decoded
    frame or the exception, largest read)``."""

    async def main():
        reader = _SizedReader()
        reader.feed_data(wire)
        reader.feed_eof()
        try:
            parts = await read_frame(reader, limit)
            outcome = None if parts is None else decode_frame_body(*parts)
        except (ProtocolError, asyncio.IncompleteReadError) as exc:
            outcome = exc
        return outcome, reader.largest

    return asyncio.run(main())


def _damaged(wire: bytes, draw) -> bytes:
    """``wire`` with one of: a cut, a changed prefix byte, a rewritten
    prefix field, or a rewritten reference length (the header-length
    field kept consistent, so the frame stays framed)."""
    magic, count, header, body, newline = FRAME_PREFIX.unpack_from(wire)
    fields = [magic, count, header, body, newline]
    kind = draw(st.sampled_from(["cut", "byte", "field", "reference"]))
    if kind == "cut":
        return wire[: draw(st.integers(0, len(wire) - 1))]
    if kind == "byte":
        at = draw(st.integers(0, PREFIX_BYTES - 1))
        return wire[:at] + bytes([draw(st.integers(0, 255))]) + wire[at + 1 :]
    if kind == "field":
        field = draw(st.sampled_from([1, 2, 3]))
        fields[field] = draw(
            st.one_of(st.integers(0, 64), st.integers(0, 2**32 - 1))
        )
        return FRAME_PREFIX.pack(*fields) + wire[PREFIX_BYTES:]
    text = wire[PREFIX_BYTES : PREFIX_BYTES + header]
    refs = [i for i in range(len(text)) if text.startswith(b'{"$bytes":', i)]
    if not refs:
        return wire
    at = draw(st.sampled_from(refs)) + len(b'{"$bytes":')
    end = text.index(b"}", at)
    size = str(draw(st.integers(-5, 2**40))).encode()
    text = text[:at] + size + text[end:]
    fields[2] = len(text)
    return (
        FRAME_PREFIX.pack(*fields) + text + wire[PREFIX_BYTES + header :]
    )


@settings(max_examples=400, deadline=None)
@given(FRAMES, st.data())
def test_damaged_frames_fail_cleanly_or_decode_exactly(frame, data):
    # a valid frame: one holding a reference-shaped dict already fails
    assume(not looks_like_a_reference(frame))
    wire = encode_frame(frame)
    limit = len(wire) + 8
    outcome, largest = read_back(_damaged(wire, data.draw), limit)
    assert largest <= limit  # nothing read past the declared bound
    if isinstance(outcome, dict):
        assert plain(outcome) == plain(frame)
    elif isinstance(outcome, ProtocolError):
        assert outcome.code in ("bad-frame", "frame-too-large")
