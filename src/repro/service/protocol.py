"""Wire protocol of the network matching service.

The server, the router and both clients speak *length-prefixed frames*
(protocol version 4): the layout of :mod:`repro.frames` — a 14-byte
prefix, a JSON header, then raw attachments, every bytes-like value of
a frame dict travelling as an attachment and decoding back as a
``memoryview`` slice of the received frame (no copy).  This module adds
the wire's rules on top.  The reader knows a frame's full size from the
prefix before it reads any of the rest, so ``max_frame_bytes`` bounds
memory before a body is read.  A malformed frame fails as
``bad-frame``.  The magic byte is not ``{``: a version-3 peer's
newline-delimited JSON is recognized on its first byte and refused, and
the prefix ends in ``\n`` so a version-3 reader answers it at once.

Requests carry an ``id`` (echoed verbatim in the response so a
pipelining client can match them up) and an ``op``; responses carry
``ok`` plus either the op's payload or ``error``/``code``.  A
response's reports are one columnar object, the shape of CAMA's output
buffer (a state id and a cycle per entry, drained in bulk)::

    {"n": 3, "cycle0": 17, "cycles": <attachment: <u4 deltas>,
     "states": <attachment: <u4 state ids>, "codes": [[4, "r1"], [9, null]]}

``cycles`` holds each report's cycle minus ``cycle0`` as a running
delta (the first is 0), ``states`` the state ids, both little-endian
``uint32``; ``codes`` maps each distinct state that fired to its report
code.  A response with no reports carries :data:`EMPTY_WIRE_REPORTS`
(no attachments).  :func:`encode_reports` writes it from a
:class:`~repro.sim.reports.ReportBatch`'s arrays and
:func:`decode_reports` reads it back into one.

Frame reference (also in the README):

========== ============================================= ==============
op         request fields                                response fields
========== ============================================= ==============
ping       --                                            ``pong``, ``version``
health     --                                            ``status``, ``uptime_s``,
                                                         ``version``, ``rulesets``,
                                                         ``ruleset_versions``,
                                                         ``open_sessions``,
                                                         ``inflight``, ``connections``
register   ``kind`` ("regex"|"mnrl"), ``rules``|``text`` ``handle``, ``states``, ``cached``
register-  ``data`` (attachment: a compiled artifact's    ``handle``, ``states``, ``cached``,
artifact   frame, see :mod:`repro.compile.artifact`)     ``backend``
scan       ``handle``, ``data`` (attachment),            ``reports`` (columnar),
           ``chunk_size?``,                              ``num_reports``,
           ``max_reports?``, ``on_truncation?``,         ``truncated``, ``bytes``,
           ``hardware_ledger?``, ``ledger_design?``,     ``elapsed_s``, ``backends``,
           ``trace?``                                    ``cached``, ``warnings``,
                                                         ``ledger?``, ``trace_id?``
scan_many  ``handle``, ``streams`` ({name:               ``results`` ({name: scan payload})
           attachment}), ...
open       ``handle``, ``session``, ``max_reports?``,    ``session``, ``version?``
           ``on_truncation?``, ``checkpoint?``,
           ``state?`` (handoff resume)
update     ``handle``, ``add?`` ({code: pattern} or      ``handle``, ``version``,
           [pattern]), ``remove?`` ([code])              ``fingerprint``, ``states``,
                                                         ``reused_components``,
                                                         ``compiled_components``
feed       ``session``, ``data`` (attachment)            ``reports`` (columnar),
                                                         ``position``,
                                                         ``truncated``, ``warnings``,
                                                         ``ledger?``, ``state?``
close      ``session``                                   ``num_reports``, ``cycles``,
                                                         ``truncated``, ``ledger?``
stats      --                                            ``stats_version``, ``cache``,
                                                         ``active_sessions``,
                                                         ``connections``, ``frames``,
                                                         ``backends``, ``telemetry``,
                                                         ``ledger``
metrics    --                                            ``metrics`` (Prometheus text),
                                                         ``content_type``
shutdown   --                                            ``draining``
========== ============================================= ==============

Error codes: ``bad-frame`` (a header that is not a JSON object, or
references that disagree with the prefix; an unframeable byte stream
closes the connection), ``bad-request`` (missing or invalid fields),
``bad-artifact`` (corrupt, truncated or version-incompatible compiled
artifact), ``unknown-op``, ``unknown-handle``, ``unknown-session``,
``frame-too-large`` (connection closes when a request declares it),
``truncated`` (strict report-cap policy), ``over-quota`` (tenant
admission control rejected the request — see
:mod:`repro.cluster.quotas`; the error frame carries ``retry_after_s``
when the quota is a rate), ``unavailable`` (no live node can serve the
request; cluster router only), ``internal``.

Versions.  Peers of different versions refuse each other:

* 4 replaced the newline-delimited JSON line with the frame above;
  stream data and report arrays went from base64 text to raw
  attachments.  A version-4 server answers a first byte ``{`` with one
  JSON error line naming both versions, then closes; a version-4
  client or router that reads ``{`` raises :class:`ProtocolError`
  naming both.
* 3 changed the ``reports`` field from a list of ``[cycle, state_id,
  code]`` triples to the columnar object above; a decoder handed a
  triple list raises :class:`ProtocolError`, and a cluster router
  treats a node whose ``health`` advertises another version as
  unavailable.
* 2 added ``register_artifact`` (version-1 servers answer it with
  ``unknown-op``), then, without a version bump, the additions below.

Additions of version 2, all still current:

* ``health`` — a light liveness/inventory probe (uptime, ruleset
  versions, open sessions, queued frames).  The cluster router polls it
  per node (see :mod:`repro.cluster`) and answers its own ``health``
  with a fleet view (``nodes`` map).
* session handoff — ``open`` accepts ``checkpoint`` (every ``feed``
  response then carries ``state``, the serialized per-shard
  :class:`~repro.sim.backends.base.EngineState` list, as JSON) and
  ``state`` (a previously checkpointed snapshot to resume from,
  position included).  This is the failover mechanism: the router
  checkpoints after every acknowledged chunk and replays the last
  snapshot onto a replica when a node dies mid-stream, so the stream
  resumes byte-identically.
* ``tenant`` — any request frame may carry a tenant id (a string).
  Nodes ignore it; the cluster router uses it for per-tenant admission
  control (token-bucket byte rates, session caps, compile budgets) and
  answers over-quota requests with code ``over-quota``.
* ``hello`` — router only: ``{"op": "hello", "host": "10.0.0.5",
  "port": 7100}`` (or the compact ``"node": "host:port"`` form) adds a
  node to the fleet at runtime (new placements see it).
* ``update`` hot-swaps a registered ruleset to a new *version* through
  the incremental compile path: the handle keeps naming the lineage
  (new scans and sessions bind the latest version), while sessions
  already open finish their streams on the version they opened
  against.  ``register`` and ``open`` responses carry ``version``.
* scan-shaped requests (``scan``, ``scan_many``, ``open``) may carry a
  ``config`` object — a :meth:`repro.api.ScanConfig.to_dict` payload —
  instead of (or alongside; loose fields win) the loose ``chunk_size``
  / ``max_reports`` / ``on_truncation`` fields.  The server validates
  it through :class:`~repro.api.config.ScanConfig` itself (the single
  validation surface) and echoes ``config_digest`` so the client can
  assert the config survived the wire byte-identically.  Only the
  per-scan fields apply remotely; sharding/worker/caching fields are
  server deployment policy.

A ``handle`` is the fingerprint of the rules first registered under it
and names a *lineage* in the server's one ruleset table
(:class:`~repro.service.service.MatchingService`): every request that
carries one is a table lookup — nothing is re-hashed or recompiled.
The table keeps the server's ``cache_capacity`` most recently used
lineages and never drops one with an open session; a handle it dropped
answers ``unknown-handle`` until it is registered again.
"""

from __future__ import annotations

import numpy as np

from repro import frames
from repro.api.config import ScanConfig
from repro.errors import ConfigError, ReproError
from repro.frames import (
    BYTES_LIKE,
    FRAME_MAGIC,
    FRAME_PREFIX,
    PREFIX_BYTES,
    FrameError,
    encode_frame,
    unpack_prefix,
)
from repro.sim.reports import EMPTY_REPORTS, ReportBatch

#: protocol version advertised by ``ping`` and ``health`` (see the
#: module docstring: 3 made ``reports`` columnar, 4 made frames
#: length-prefixed with raw attachments)
PROTOCOL_VERSION = 4

#: the :class:`~repro.api.config.ScanConfig` fields a request frame may
#: override per scan/session; the rest (sharding, workers, caching) are
#: server deployment policy and are ignored when a client sends them.
#: ``hardware_ledger``/``ledger_design``/``trace`` were added with the
#: stats-frame v2 work — a client may request the modeled-cost ledger
#: (and a ``trace_id``) per scan even when the server's deployment
#: config does not ledger by default
SCAN_FRAME_FIELDS = (
    "chunk_size",
    "max_reports",
    "on_truncation",
    "hardware_ledger",
    "ledger_design",
    "trace",
)

#: ops a client may safely re-send after a transient failure mid-flight
#: (the retry policy's send-retry whitelist): pure reads, plus
#: registration ops that are idempotent by content addressing.  ``open``
#: is *not* listed — a duplicate open answers "already open" — and
#: ``update``/``feed``/``close`` mutate state, so a retry could apply an
#: edit or a chunk twice.  Connect-phase failures (nothing sent yet) are
#: retryable for every op.
IDEMPOTENT_OPS = frozenset(
    {
        "ping",
        "health",
        "stats",
        "metrics",
        "register",
        "register_artifact",
        "scan",
        "scan_many",
    }
)

#: default cap on one frame's encoded size (request and response)
DEFAULT_MAX_FRAME_BYTES = 8 * 1024 * 1024

#: default bound on queued-but-unprocessed frames per connection; the
#: server stops reading the socket past it (TCP backpressure)
DEFAULT_MAX_INFLIGHT = 8


class ProtocolError(ReproError):
    """A frame violated the wire protocol."""

    def __init__(self, message: str, code: str = "bad-frame") -> None:
        self.code = code
        super().__init__(message)


_MAGIC_BYTE = bytes([FRAME_MAGIC])


def check_frame_start(head: bytes) -> None:
    """Refuse a byte stream whose first byte does not start a frame: a
    ``{`` is a version-3 peer's JSON line, refused by name."""
    if head[:1] == b"{":
        raise ProtocolError(
            f"the peer speaks protocol version 3 (newline-delimited "
            f"JSON); this end speaks protocol version {PROTOCOL_VERSION} "
            f"(length-prefixed frames)"
        )
    if head[:1] != _MAGIC_BYTE:
        raise ProtocolError(
            f"not a protocol version {PROTOCOL_VERSION} frame: it starts "
            f"with {bytes(head[:1])!r}"
        )


def frame_body_bytes(prefix: bytes, max_frame_bytes: int) -> int:
    """How many bytes follow ``prefix`` in its frame.

    Checks the magic (:func:`check_frame_start`) and the declared size
    against ``max_frame_bytes`` before the caller reads or allocates
    any of the body.  Raises :class:`ProtocolError`: ``bad-frame`` when
    the stream cannot be framed, ``frame-too-large`` when the frame is
    over the limit.
    """
    check_frame_start(prefix)
    try:
        _, header_bytes, attachment_bytes = unpack_prefix(prefix)
    except FrameError:
        raise ProtocolError(
            f"not a protocol version {PROTOCOL_VERSION} frame prefix: "
            f"{bytes(prefix[:PREFIX_BYTES])!r}"
        ) from None
    body = header_bytes + attachment_bytes
    if PREFIX_BYTES + body > max_frame_bytes:
        raise ProtocolError(
            f"frame of {PREFIX_BYTES + body} bytes exceeds max_frame_bytes "
            f"({max_frame_bytes})",
            code="frame-too-large",
        )
    return body


def decode_frame_body(prefix: bytes, body) -> dict:
    """Parse one frame from its checked ``prefix`` (see
    :func:`frame_body_bytes`) and the ``body`` bytes that followed it.

    Attachments come back as ``memoryview`` slices of ``body``.
    Raises :class:`ProtocolError` (code ``bad-frame``) for a header
    that is not a JSON object or references that disagree with the
    prefix — the frame's bounds are known, so the caller decides
    whether the connection survives.
    """
    try:
        return frames.decode_frame_body(prefix, body)
    except FrameError as exc:
        raise ProtocolError(str(exc)) from None


def decode_frame(frame) -> dict:
    """Parse one whole frame (prefix included) into a frame dict."""
    prefix = bytes(frame[:PREFIX_BYTES])
    frame_body_bytes(prefix, DEFAULT_MAX_FRAME_BYTES)
    return decode_frame_body(prefix, memoryview(frame)[PREFIX_BYTES:])


def encode_data(data) -> memoryview:
    """Binary stream data -> its attachment form (a byte view the frame
    carries raw)."""
    return memoryview(data).cast("B")


def decode_data(value):
    """A frame's ``data`` attachment -> the stream bytes (the same
    bytes-like object; nothing is copied)."""
    if not isinstance(value, BYTES_LIKE):
        raise ProtocolError(
            f"data must be a bytes attachment, got {type(value).__name__}",
            code="bad-request",
        )
    return value


#: the ``reports`` value of every response that recorded nothing: one
#: shared constant (never mutate it), so a quiet response costs no
#: numpy call on either end and carries no attachment
EMPTY_WIRE_REPORTS = {"n": 0, "cycle0": 0, "codes": []}

_U4 = np.dtype("<u4")
_U4_MAX = 0xFFFFFFFF
_I8_MAX = 2**63 - 1
#: state ids below this are checked against ``codes`` by table lookup
_TABLE_IDS = 1 << 20


def encode_reports(reports: ReportBatch) -> dict:
    """A batch -> its columnar ``reports`` wire object.

    ``n`` reports; ``cycle0`` the first cycle; ``cycles`` and ``states``
    ``<u4`` arrays as memoryviews, which the frame carries as raw
    attachments (cycles as running deltas from ``cycle0``, so session
    offsets past 2**32 travel as one JSON int); ``codes`` the
    ``[state_id, code]`` pairs of the distinct states that fired, in
    state-id order.  ``reports.codes`` must be indexable by state id
    (the ruleset's per-state table).  Cycles must be non-decreasing,
    as every kernel and merge emits them.
    """
    if not len(reports):
        return EMPTY_WIRE_REPORTS
    cycles, states = reports.cycles, reports.state_ids
    cycle0 = int(cycles[0])
    steps = cycles[1:] - cycles[:-1]
    if steps.min(initial=0) < 0 or int(cycles[-1]) - cycle0 > _U4_MAX:
        raise ValueError(
            "report cycles must be non-decreasing and span < 2**32"
        )
    deltas = np.empty(len(cycles), dtype=_U4)
    deltas[0] = 0
    deltas[1:] = steps
    fired = np.flatnonzero(np.bincount(states)).tolist()
    codes = reports.codes
    return {
        "n": len(states),
        "cycle0": cycle0,
        "cycles": deltas.data,
        "states": states.astype(_U4).data,
        "codes": [[state, codes[state]] for state in fired],
    }


def decode_reports(value) -> ReportBatch:
    """A ``reports`` wire object -> :class:`ReportBatch` (arrays, no
    :class:`Report` objects; ``codes`` becomes a ``{state_id: code}``
    map).

    Anything malformed — wrong types, arrays that are not attachments,
    array lengths that disagree with ``n``, a negative ``cycle0``, a state id missing from
    ``codes``, or a protocol-version-2 triple list — raises
    :class:`ProtocolError` (code ``bad-frame``).
    """
    if value == EMPTY_WIRE_REPORTS:
        return EMPTY_REPORTS
    n = report_count(value)
    cycle0 = _wire_int(value, "cycle0")
    deltas = _u4_array(value, "cycles", n)
    states = _u4_array(value, "states", n)
    codes = _code_map(value.get("codes"))
    if not n:
        return EMPTY_REPORTS
    if deltas[0]:
        raise ProtocolError("reports: cycles must start at cycle0")
    cycles = deltas.cumsum(dtype=np.int64)
    if cycle0 + int(cycles[-1]) > _I8_MAX:
        raise ProtocolError("reports: cycles overflow int64")
    if not _all_coded(states, codes):
        raise ProtocolError("reports: a state id is missing from codes")
    cycles += cycle0
    return ReportBatch(cycles, states.astype(np.int64), codes)


def _all_coded(states: np.ndarray, codes: dict) -> bool:
    """Whether every fired state has a ``codes`` entry: one lookup in a
    bool table up to the largest id, or ``np.isin`` past
    :data:`_TABLE_IDS` (a hostile id must not size an allocation)."""
    top = int(states.max())
    if top >= _TABLE_IDS:
        return bool(np.isin(states, list(codes)).all())
    known = np.zeros(top + 1, dtype=np.bool_)
    known[[state for state in codes if state <= top]] = True
    return bool(known.take(states).all())


def report_count(value) -> int:
    """The validated ``n`` of a ``reports`` wire object — what a proxy
    counts without decoding the arrays."""
    if isinstance(value, list):
        raise ProtocolError(
            "reports arrived as protocol version 2 [cycle, state_id, code] "
            f"triples; this peer speaks protocol version {PROTOCOL_VERSION}"
        )
    if not isinstance(value, dict):
        raise ProtocolError(
            f"reports must be a JSON object, got {type(value).__name__}"
        )
    return _wire_int(value, "n")


def _wire_int(value: dict, key: str) -> int:
    number = value.get(key)
    if type(number) is not int or not 0 <= number <= _I8_MAX:
        raise ProtocolError(
            f"reports: {key!r} must be an int in [0, 2**63), got {number!r}"
        )
    return number


def _u4_array(value: dict, key: str, n: int) -> np.ndarray:
    raw = value.get(key)
    if not isinstance(raw, BYTES_LIKE):
        raise ProtocolError(f"reports: {key!r} must be a bytes attachment")
    size = memoryview(raw).nbytes
    if size != 4 * n:
        raise ProtocolError(
            f"reports: {key!r} holds {size} bytes, expected {4 * n} "
            f"(n={n} <u4 values)"
        )
    return np.frombuffer(raw, dtype=_U4)


def _code_map(pairs) -> dict:
    if not isinstance(pairs, list):
        raise ProtocolError("reports: 'codes' must be a list of pairs")
    codes: dict = {}
    for pair in pairs:
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or type(pair[0]) is not int
            or not 0 <= pair[0] <= _U4_MAX
            or not (pair[1] is None or isinstance(pair[1], str))
        ):
            raise ProtocolError(
                f"reports: a codes entry must be [state_id, code], "
                f"got {pair!r}"
            )
        codes[pair[0]] = pair[1]
    if len(codes) != len(pairs):
        raise ProtocolError("reports: a state id appears twice in codes")
    return codes


def automaton_from_frame(frame: dict):
    """Build the automaton a ``register`` frame describes."""
    from repro.automata.glushkov import compile_regex_set
    from repro.automata.mnrl import loads_mnrl

    kind = frame.get("kind", "regex")
    name = str(frame.get("name", "remote"))
    if kind == "regex":
        rules = frame.get("rules")
        if not isinstance(rules, (dict, list)) or not rules:
            raise ProtocolError(
                "register kind 'regex' needs a non-empty 'rules' "
                "dict or list",
                code="bad-request",
            )
        return compile_regex_set(rules, name=name)
    if kind == "mnrl":
        text = frame.get("text")
        if not isinstance(text, str):
            raise ProtocolError(
                "register kind 'mnrl' needs a 'text' document",
                code="bad-request",
            )
        return loads_mnrl(text, name=name)
    raise ProtocolError(
        f"unknown ruleset kind {kind!r} (expected 'regex' or 'mnrl')",
        code="bad-request",
    )


def artifact_from_frame(frame: dict):
    """Load the compiled artifact a ``register_artifact`` frame carries."""
    from repro.compile.artifact import CompiledArtifact
    from repro.errors import ArtifactError

    data = decode_data(frame.get("data", b""))
    if not data:
        raise ProtocolError(
            "register_artifact needs 'data' (the compiled artifact bytes)",
            code="bad-request",
        )
    try:
        return CompiledArtifact.from_bytes(data)
    except ArtifactError as exc:
        raise ProtocolError(str(exc), code="bad-artifact") from exc


def scan_config_from_frame(
    frame: dict, base: ScanConfig
) -> tuple[ScanConfig, bool, str | None]:
    """Resolve one scan/open request's effective :class:`ScanConfig`.

    ``base`` carries the server's deployment defaults (with the wire's
    ``on_truncation`` default already applied by the caller).  A frame
    may override the per-scan fields (:data:`SCAN_FRAME_FIELDS`) two
    ways — the legacy loose ``chunk_size``/``max_reports``/
    ``on_truncation`` fields, or a ``config`` object in
    ``ScanConfig.to_dict()`` form; loose fields win when both appear.
    Either way the values land in a :class:`ScanConfig`, so the config
    dataclass is the *single* validation surface for the wire too:
    anything it rejects comes back as a ``bad-request``
    :class:`ProtocolError`.

    A serialized config carries *every* field (``to_dict`` is total),
    so a field counts as a request-level override only when its value
    differs from the :class:`ScanConfig` default — otherwise a client
    sending ``ScanConfig(chunk_size=1024)`` would silently replace the
    server's deployment ``max_reports``/``on_truncation`` with the
    client-side defaults and mute the server's truncation messaging.
    A client that really wants a default-valued cap states it with the
    loose ``max_reports`` field.

    Returns ``(config, explicit_cap, config_digest)``:
    ``explicit_cap`` is True when the request set its own
    ``max_reports`` (intentional caps stay silent, mirroring
    :meth:`Engine.run`), and ``config_digest`` is the digest of the
    parsed ``config`` object (None without one) — the server echoes it
    so clients can assert the config survived the wire unchanged.
    """
    overrides: dict = {}
    digest = None
    sent = frame.get("config")
    if sent is not None:
        if not isinstance(sent, dict):
            raise ProtocolError(
                "config must be a JSON object (ScanConfig.to_dict() form)",
                code="bad-request",
            )
        try:
            parsed = ScanConfig.from_dict(sent)
        except (ConfigError, TypeError) as exc:
            raise ProtocolError(
                f"invalid config: {exc}", code="bad-request"
            ) from exc
        digest = parsed.digest()
        defaults = ScanConfig()
        for name in SCAN_FRAME_FIELDS:
            value = getattr(parsed, name)
            if name in sent and value != getattr(defaults, name):
                overrides[name] = value
    for name in SCAN_FRAME_FIELDS:
        if frame.get(name) is not None:
            overrides[name] = frame[name]
    explicit_cap = "max_reports" in overrides
    try:
        return base.merged(**overrides), explicit_cap, digest
    except ConfigError as exc:
        raise ProtocolError(str(exc), code="bad-request") from exc


def ruleset_update_from_frame(frame: dict) -> tuple:
    """Validate an ``update`` frame's edit fields -> ``(add, remove)``.

    ``add`` is a ``{code: pattern}`` mapping or a list of patterns;
    ``remove`` is a list of report codes.  At least one must be
    present.  Pattern/code values must be strings — the compile layer
    re-validates the regexes themselves.
    """
    add = frame.get("add")
    remove = frame.get("remove")
    if add is None and remove is None:
        raise ProtocolError(
            "update needs 'add' and/or 'remove'", code="bad-request"
        )
    if add is not None:
        if isinstance(add, dict):
            ok = all(
                isinstance(k, str) and isinstance(v, str)
                for k, v in add.items()
            )
        elif isinstance(add, list):
            ok = all(isinstance(p, str) for p in add)
        else:
            ok = False
        if not ok or not add:
            raise ProtocolError(
                "'add' must be a non-empty {code: pattern} object or "
                "a non-empty list of pattern strings",
                code="bad-request",
            )
    if remove is not None:
        if (
            not isinstance(remove, list)
            or not remove
            or not all(isinstance(c, str) for c in remove)
        ):
            raise ProtocolError(
                "'remove' must be a non-empty list of report-code strings",
                code="bad-request",
            )
    return add, remove


def error_frame(request_id, message: str, code: str) -> dict:
    """Build the error response for one failed request."""
    return {"id": request_id, "ok": False, "error": message, "code": code}


def ok_frame(request_id, **payload) -> dict:
    """Build the success response for one request."""
    return {"id": request_id, "ok": True, **payload}
