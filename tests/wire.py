"""Protocol frames over a plain socket, for tests that speak the wire by
hand: frames the typed clients never send (checkpoint moves, malformed
headers, pipelined bursts), a stub peer, a relaying proxy.

Reading goes through the protocol's own prefix parser
(:func:`~repro.service.protocol.frame_body_bytes`), so a helper here
can never frame a stream differently from the server and clients.
"""

import itertools
import json
import socket

from repro.service.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    FRAME_MAGIC,
    FRAME_PREFIX,
    PREFIX_BYTES,
    decode_frame,
    encode_frame,
    frame_body_bytes,
)


def read_raw_frame(file, max_frame_bytes=DEFAULT_MAX_FRAME_BYTES) -> bytes:
    """One whole frame (prefix included) off a socket file; b"" at EOF."""
    prefix = file.read(PREFIX_BYTES)
    if not prefix:
        return b""
    return prefix + file.read(frame_body_bytes(prefix, max_frame_bytes))


def raw_frame(header: bytes, attachments: bytes = b"", count: int = 0) -> bytes:
    """A well-framed frame around arbitrary ``header`` bytes (and
    ``count`` references' worth of ``attachments``) — how a test sends
    a header that is not what :func:`encode_frame` would write."""
    prefix = FRAME_PREFIX.pack(
        FRAME_MAGIC, count, len(header), len(attachments), ord("\n")
    )
    return prefix + header + attachments


class RawConn:
    """A bare connection: send frames or raw bytes, read frames back."""

    def __init__(self, port, host="127.0.0.1", timeout=10):
        self.sock = socket.create_connection((host, port), timeout)
        self.file = self.sock.makefile("rb")
        self._ids = itertools.count(1)

    def send(self, frame: dict) -> None:
        self.sock.sendall(encode_frame(frame))

    def read(self) -> dict:
        raw = read_raw_frame(self.file)
        assert raw, "the peer closed the connection"
        return decode_frame(raw)

    def read_raw(self) -> bytes:
        return read_raw_frame(self.file)

    def read_line(self) -> dict:
        """A JSON error line — how a server refuses a non-frame stream."""
        return json.loads(self.file.readline())

    def at_eof(self) -> bool:
        return self.file.read(1) == b""

    def request(self, frame: dict) -> dict:
        """Send ``frame`` under the next id; return the decoded response."""
        self.send({"id": next(self._ids), **frame})
        return self.read()

    def close(self):
        self.file.close()
        self.sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
