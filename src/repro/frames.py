"""The frame layout: one container for the wire and for compiled artifacts.

A frame is three parts::

    prefix    14 bytes: magic 0xCA, attachment count, header bytes,
              attachment bytes (three little-endian uint32), then "\\n"
    header    one UTF-8 JSON object
    body      the attachments, raw, back to back

Any bytes-like value (``bytes``, ``bytearray``, ``memoryview``) in a
frame dict, at any depth, travels as an *attachment*: the header holds
``{"$bytes": <length>}`` in its place, and the attachments follow the
header in the order the header names them.  Decoding hands attachments
back as ``memoryview`` slices of the frame (no copy).  A header dict
that merely looks like a reference (its only key ``$bytes``, an int
value) makes the reference count disagree with the prefix, so such a
frame fails rather than being rewritten.

A frame of typed arrays (:func:`array_frame_parts`,
:func:`decode_array_frame`) describes each numpy array in its header by
dtype and shape and carries its data as an attachment.

Two layers build on this module: :mod:`repro.service.protocol` (the
wire: a size cap, version-3 detection and error codes) and
:mod:`repro.compile.artifact` (a compiled ruleset is one frame of
typed arrays, on disk and in a ``register_artifact`` upload alike).
Both map :class:`FrameError` to their own error.
"""

from __future__ import annotations

import json
import struct
import threading
import zlib

import numpy as np

from repro.errors import ReproError


class FrameError(ReproError):
    """Bytes that are not one well-formed frame."""


#: first byte of every frame; never ``{`` (a JSON line) nor ``P`` (a zip)
FRAME_MAGIC = 0xCA
#: magic, attachment count, header bytes, attachment bytes, ``\n``
FRAME_PREFIX = struct.Struct("<BIIIB")
PREFIX_BYTES = FRAME_PREFIX.size
_NEWLINE = 0x0A
#: the one key of the header dict that stands for an attachment
_REF = "$bytes"
BYTES_LIKE = (bytes, bytearray, memoryview)


class _Decoder:
    """One thread's JSON scanner, built once (building one per frame, as
    ``json.loads(object_hook=)`` does, costs a few microseconds a
    frame): it hands each decoded object to :meth:`_resolve`, which
    swaps a reference for the next slice of the frame being decoded."""

    __slots__ = ("scan", "body", "left", "offset")

    def __init__(self) -> None:
        self.scan = json.JSONDecoder(object_hook=self._resolve).scan_once
        self.body = None
        self.left = self.offset = 0

    def decode(self, header: str, count: int, body: memoryview):
        """``header`` parsed, each reference swapped for the next slice
        of ``body``, the references checked against the prefix."""
        self.left, self.body, self.offset = count, body, 0
        try:
            frame = _parse(self.scan, header)
        finally:
            self.body = None  # the frame's buffer is not kept
        if self.left or self.offset != len(body):
            raise FrameError(
                f"frame header references {count - self.left} attachments "
                f"({self.offset} bytes); the prefix declares {count} "
                f"({len(body)} bytes)"
            )
        return frame

    def _resolve(self, obj: dict):
        if len(obj) != 1 or type(obj.get(_REF)) is not int:
            return obj
        start = self.offset
        end = start + obj[_REF]
        if not self.left or end < start or end > len(self.body):
            raise FrameError(
                "frame header references more attachment bytes than the "
                "prefix declares"
            )
        self.left -= 1
        self.offset = end
        return self.body[start:end]


_threads = threading.local()


def _decoder() -> _Decoder:
    try:
        return _threads.decoder
    except AttributeError:
        _threads.decoder = decoder = _Decoder()
        return decoder


def _parse(scan, header: str):
    """One JSON value spanning all of ``header``."""
    try:
        value, end = scan(header, 0)
    except StopIteration as stop:
        raise FrameError(
            f"frame header is not valid JSON (at char {stop.value})"
        ) from None
    if end != len(header):
        raise FrameError(
            f"frame header is not valid JSON (extra data at char {end})"
        )
    return value


def _hoist(value):
    # the C encoder calls this only for values JSON cannot spell
    if not isinstance(value, BYTES_LIKE):
        raise TypeError(f"{type(value).__name__} is not JSON serializable")
    view = memoryview(value)
    _threads.attachments.append(view)
    return {_REF: view.nbytes}


#: one encoder for every frame: ``json.dumps(default=)`` builds a
#: ``JSONEncoder`` per call, about a tenth of a quiet 512 B feed's
#: whole codec; :func:`_hoist` collects into the calling thread's list
_ENCODER = json.JSONEncoder(separators=(",", ":"), default=_hoist)


def frame_parts(frame: dict, *, align: int = 1) -> list:
    """One frame's buffers in order: prefix, JSON header, then every
    bytes-like value of ``frame`` (at any depth) as a raw attachment.

    With ``align`` > 1 the header is padded with blanks before its
    closing brace so the first attachment starts at a multiple of
    ``align`` bytes into the frame.
    """
    _threads.attachments = attachments = []
    try:
        header = _ENCODER.encode(frame).encode()
    finally:
        _threads.attachments = None  # the frame's buffers are not kept
    pad = -(PREFIX_BYTES + len(header)) % align
    if pad:
        header = b"".join([header[:-1], b" " * pad, b"}"])
    prefix = FRAME_PREFIX.pack(
        FRAME_MAGIC,
        len(attachments),
        len(header),
        sum([view.nbytes for view in attachments]),
        _NEWLINE,
    )
    return [prefix, header, *attachments]


def encode_frame(frame: dict) -> bytes:
    """Serialize one frame (see :func:`frame_parts`)."""
    return b"".join(frame_parts(frame))


def unpack_prefix(prefix) -> tuple[int, int, int]:
    """``(attachment count, header bytes, attachment bytes)`` of a
    frame prefix; raises :class:`FrameError` when ``prefix`` is not
    one."""
    if (
        len(prefix) != PREFIX_BYTES
        or prefix[0] != FRAME_MAGIC
        or prefix[-1] != _NEWLINE
    ):
        raise FrameError(f"not a frame prefix: {bytes(prefix[:PREFIX_BYTES])!r}")
    _, count, header_bytes, attachment_bytes, _ = FRAME_PREFIX.unpack(prefix)
    return count, header_bytes, attachment_bytes


def decode_frame_body(prefix: bytes, body) -> dict:
    """Parse one frame from its ``prefix`` and the ``body`` bytes that
    followed it.

    Attachments come back as ``memoryview`` slices of ``body``.
    Raises :class:`FrameError` for a body whose size disagrees with
    the prefix, a header that is not a JSON object, or references that
    disagree with the prefix.
    """
    _, count, header_bytes, attachment_bytes, _ = FRAME_PREFIX.unpack(prefix)
    if len(body) != header_bytes + attachment_bytes:
        raise FrameError(
            f"frame body holds {len(body)} bytes; the prefix declares "
            f"{header_bytes + attachment_bytes}"
        )
    view = memoryview(body)
    try:
        header = str(view[:header_bytes], "utf-8")
        frame = _decoder().decode(header, count, view[header_bytes:])
    except (ValueError, UnicodeDecodeError) as exc:
        raise FrameError(f"frame header is not valid JSON: {exc}") from exc
    if not isinstance(frame, dict):
        raise FrameError(
            f"frame must be a JSON object, got {type(frame).__name__}"
        )
    return frame


def decode_frame(data) -> dict:
    """Parse one whole frame (prefix included), checked against its own
    size: the prefix must declare exactly the bytes that follow it."""
    view = memoryview(data)
    prefix = bytes(view[:PREFIX_BYTES])
    unpack_prefix(prefix)
    return decode_frame_body(prefix, view[PREFIX_BYTES:])


# -- frames of typed arrays ------------------------------------------------

#: the dtypes an array attachment may have (little-endian, as written)
ARRAY_DTYPES = {name: np.dtype(name) for name in ("<u8", "<i8", "|u1", "|b1")}


def array_frame_parts(header: dict, arrays: dict) -> list:
    """The buffers of a frame carrying ``header`` plus named arrays.

    The frame's header is ``header`` with an ``arrays`` object that
    maps each name to ``[dtype, shape, attachment]``.  Arrays with
    8-byte items come first and the header is padded, so every 8-byte
    array lands 8-byte aligned in the frame.  The last attachment, under
    ``crc32``, is the CRC-32 of every byte before it: a changed bit
    fails the load instead of changing a table.
    """
    described = {}
    for name, array in sorted(
        arrays.items(), key=lambda item: -item[1].dtype.itemsize
    ):
        array = np.ascontiguousarray(array, array.dtype.newbyteorder("<"))
        described[name] = [
            array.dtype.str,
            list(array.shape),
            array.reshape(-1).view(np.uint8).data,
        ]
    frame = {**header, "arrays": described, "crc32": bytes(4)}
    parts = frame_parts(frame, align=8)
    crc = 0
    for part in parts[:-1]:
        crc = zlib.crc32(part, crc)
    parts[-1] = crc.to_bytes(4, "little")
    return parts


def decode_array_frame(buffer: np.ndarray) -> tuple[dict, dict]:
    """``(header, arrays)`` of a frame :func:`array_frame_parts` wrote.

    ``buffer`` is the whole frame as a uint8 array; the arrays are
    read-only views of it, each aligned for its dtype (one that would
    not be is copied).  Raises :class:`FrameError` for a frame whose
    checksum fails or that is malformed, a dtype outside
    :data:`ARRAY_DTYPES`, a shape that disagrees with its attachment's
    length, a bool array holding a byte other than 0 or 1, or an
    attachment that is not an array's data.
    """
    if zlib.crc32(buffer[:-4]) != int.from_bytes(bytes(buffer[-4:]), "little"):
        raise FrameError("frame checksum does not match its bytes")
    header = decode_frame(memoryview(buffer).toreadonly())
    described = header.pop("arrays", None)
    crc = header.pop("crc32", None)
    count, _, _ = unpack_prefix(bytes(buffer[:PREFIX_BYTES]))
    if (
        type(described) is not dict
        or type(crc) is not memoryview
        or len(described) + 1 != count
    ):
        raise FrameError("frame attachments are not its described arrays")
    arrays = {}
    for name, entry in described.items():
        try:
            dtype, shape, data = entry
            dtype = ARRAY_DTYPES[dtype]
            if type(shape) is not list or min(shape, default=0) < 0:
                raise ValueError  # reshape would read -1 as "the rest"
            array = np.frombuffer(data, dtype).reshape(shape)
        except (KeyError, TypeError, ValueError):
            raise FrameError(
                f"array {name!r} has no readable dtype and shape"
            ) from None
        if dtype.kind == "b" and bytes(data).translate(None, b"\0\1"):
            raise FrameError(f"array {name!r} is not boolean")
        if not array.flags.aligned:
            array = array.copy()
            array.flags.writeable = False
        arrays[name] = array
    return header, arrays
