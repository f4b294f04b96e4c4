"""Resumable named streams: the multi-tenant session API.

A :class:`Session` binds one input stream to one compiled (possibly
sharded) ruleset and carries the stream's active-state snapshot between
:meth:`~Session.feed` calls, so many concurrent streams — different
users, different connections — can interleave arbitrarily against the
same cached engines without interfering.  START_OF_DATA semantics and
report cycles are per-*session*: each session starts its own stream at
position 0 regardless of how its chunks interleave with other
sessions'.
"""

from __future__ import annotations

from repro.api.config import ScanConfig
from repro.errors import SimulationError
from repro.service.sharding import Dispatcher, StreamTotals, iter_chunks
from repro.sim.backends.base import handle_truncation
from repro.sim.engine import SimulationResult
from repro.sim.reports import EMPTY_REPORTS, ReportBatch
from repro.sim.trace import TraceStats
from repro.telemetry.metrics import default_registry

_REGISTRY = default_registry()
_SESSION_FEEDS = _REGISTRY.counter(
    "repro_session_feeds_total",
    "Chunks fed into streaming sessions",
)
_SESSION_FEED_BYTES = _REGISTRY.counter(
    "repro_session_feed_bytes_total",
    "Input bytes consumed by streaming-session feeds",
)

#: the longest chunk :meth:`Session.steps_inline` calls cheap: the C
#: loop runs Snort at ~21 ns/B, so 4 KiB is ~90 us of kernel work —
#: less than the ~120 us a hand-off to a worker thread and back costs
INLINE_FEED_BYTES = 4096


class Session:
    """One resumable stream scanned against one dispatcher's shards.

    Created by :meth:`repro.service.service.MatchingService.open_session`;
    feed chunks as they arrive and read the accumulated result at any
    point.  Sessions are cheap: per shard they hold only the active
    state indices and the stream position.

    The session consumes two fields of its
    :class:`~repro.api.config.ScanConfig`: ``max_reports`` bounds the
    reports *recorded* over the whole stream (reports keep being
    counted past it), and ``on_truncation`` decides what the first
    chunk that loses a report to the cap does — mark the session
    ``truncated`` and raise a :class:`ReportTruncationWarning`
    (``"warn"``, the default), a :class:`~repro.errors.SimulationError`
    (``"error"``), or nothing (``"ignore"``).

    Sessions are context managers: leaving the ``with`` block closes
    the stream (the accumulated result stays readable via
    :attr:`reports` / :attr:`stats`).  A service's session releases
    its ruleset version exactly once, however it comes to close.
    """

    def __init__(
        self,
        name: str,
        dispatcher: Dispatcher,
        config: ScanConfig | None = None,
        *,
        ledger_probe=None,
    ) -> None:
        self.config = config if config is not None else ScanConfig()
        self.name = name
        self.dispatcher = dispatcher
        self.closed = False
        #: the ruleset version this stream opened against (set by
        #: MatchingService when the ruleset is version-tracked); the
        #: session keeps these engines through any later hot-swap
        self.ruleset_version: int | None = None
        #: called with the session the first time it closes (the owning
        #: MatchingService's release; None for a standalone session)
        self.on_close = None
        # builds every shard engine: no feed of this session compiles
        self._states = dispatcher.initial_states()
        self._totals = StreamTotals(dispatcher.num_states)
        # resumable reference accounting (:class:`~repro.telemetry.
        # ledger.LedgerProbe`): fed the same chunks as the shards, so a
        # running hardware ledger is available at any chunk boundary
        self._ledger_probe = ledger_probe
        # the feed counters' children, looked up once (as Engine does)
        self._feed_counters = (
            _SESSION_FEEDS.labels(),
            _SESSION_FEED_BYTES.labels(),
        )
        # every shard is the C loop and nothing re-runs a chunk in
        # Python (the probe runs the sparse kernel): see steps_inline
        self._c_only = ledger_probe is None and all(
            name == "native" for name in dispatcher.backend_names
        )

    @property
    def max_reports(self) -> int:
        return self.config.max_reports

    @property
    def on_truncation(self) -> str:
        return self.config.on_truncation

    @property
    def position(self) -> int:
        """Bytes of this stream consumed so far."""
        return self._states[0].position if self._states else 0

    @property
    def reports(self) -> ReportBatch:
        """All reports recorded so far (absolute stream offsets)."""
        return ReportBatch.concat(self._totals.batches)

    @property
    def stats(self) -> TraceStats:
        return self._totals.stats

    @property
    def truncated(self) -> bool:
        """True once the kept-reports cap has dropped a report."""
        return self._totals.truncated

    @property
    def report_budget(self) -> int:
        """Reports this stream may still record before hitting its cap."""
        return self._totals.budget(self.max_reports)

    @property
    def shard_states(self):
        """The live per-shard engine states (advanced in place by feeds)."""
        return self._states

    def steps_inline(self, chunk: bytes) -> bool:
        """Whether feeding ``chunk`` is cheap enough to run on the
        caller's thread rather than a worker's: every shard engine is
        the C loop, the session has no ledger probe, and the chunk is
        at most :data:`INLINE_FEED_BYTES`.  The engines were built when
        the session opened, so such a feed never compiles."""
        return self._c_only and len(chunk) <= INLINE_FEED_BYTES

    def feed(self, chunk: bytes) -> ReportBatch:
        """Consume one chunk; return only the reports it recorded (a
        one-row :func:`feed_session_batch`)."""
        [(reports, exc)] = feed_session_batch(self.dispatcher, [(self, chunk)])
        if exc is not None:
            raise exc
        return reports

    def absorb(self, chunk: bytes, result: SimulationResult) -> ReportBatch:
        """Record one already-dispatched chunk's result into the session:
        the bookkeeping half of :func:`feed_session_batch`.

        Raises the closed-session error :meth:`feed` does: a closed
        stream's accounting never advances (and
        :func:`feed_session_batch` never steps its shard states).
        """
        if self.closed:
            raise SimulationError(f"session {self.name!r} is closed")
        feeds, fed_bytes = self._feed_counters
        feeds.inc()
        fed_bytes.inc(len(chunk))
        if self._ledger_probe is not None:
            self._ledger_probe.feed(chunk)
        first_loss = result.truncated and not self.truncated
        self._totals.add(result)
        if first_loss:
            handle_truncation(
                self.on_truncation,
                f"session {self.name!r} hit its kept-reports cap "
                f"({self.max_reports}); further reports are counted "
                f"but not recorded",
                stacklevel=3,
            )
        return result.batch

    def feed_all(self, data: bytes, chunk_size: int) -> ReportBatch:
        """Feed ``data`` in ``chunk_size`` pieces; return its new reports."""
        return ReportBatch.concat(
            [self.feed(chunk) for chunk in iter_chunks(data, chunk_size)]
        )

    def ledger(self):
        """The running :class:`~repro.telemetry.ledger.HardwareLedger`
        over everything fed so far, or None when the session was opened
        without ``ScanConfig(hardware_ledger=True)``."""
        if self._ledger_probe is None:
            return None
        return self._ledger_probe.ledger()

    def snapshot(self):
        """Copies of the per-shard engine states (a resumable checkpoint)."""
        return [state.copy() for state in self._states]

    def restore(self, states) -> None:
        """Adopt a checkpointed snapshot: the failover handoff.

        ``states`` is a per-shard list of
        :class:`~repro.sim.backends.base.EngineState` objects or their
        ``to_dict()`` wire form (what a checkpointing server ``feed``
        returns).  Only a *fresh* session may restore — the stream then
        resumes from the snapshot's position, so reports produced by
        subsequent feeds carry the same absolute offsets the original
        stream would have.  Shard count must match (same ruleset, same
        sharding) and every shard must sit at the same position.  A
        snapshot is untrusted input: each shard state is packed against
        its shard's width, which refuses ids outside ``[0, n)``, out of
        order or repeated, and a position that is not a non-negative
        integer (:meth:`~repro.sim.backends.base.EngineState.checked`).
        """
        from repro.sim.backends.base import EngineState

        if self.closed:
            raise SimulationError(f"session {self.name!r} is closed")
        if self.position != 0 or self._totals.recorded:
            raise SimulationError(
                f"session {self.name!r} has already consumed data; "
                f"only a fresh session can restore a snapshot"
            )
        decoded = [
            state if isinstance(state, EngineState) else EngineState.from_dict(state)
            for state in states
        ]
        if len(decoded) != len(self._states):
            raise SimulationError(
                f"snapshot has {len(decoded)} shard states; this session "
                f"runs {len(self._states)} shards (ruleset or sharding "
                f"mismatch)"
            )
        decoded = [
            state.checked(len(engine.automaton))
            for state, engine in zip(decoded, self.dispatcher.engines)
        ]
        positions = {state.position for state in decoded}
        if len(positions) > 1:
            raise SimulationError(
                f"snapshot shard positions disagree: {sorted(positions)}"
            )
        self._states = decoded

    def close(self) -> SimulationResult:
        """Finish the stream and return the accumulated result
        (idempotent: a closed session just returns it again)."""
        if not self.closed:
            self.closed = True
            if self.on_close is not None:
                self.on_close(self)
        return self._totals.result()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def feed_session_batch(dispatcher, entries):
    """Feed one chunk into each of several sessions in one batched
    step: the one feed path (:meth:`Session.feed` is its one-row call).

    ``entries`` is a list of ``(session, chunk)`` pairs whose sessions
    all run on ``dispatcher``; each live row's result goes through
    :meth:`Session.absorb`.  Returns one ``(reports, exc)`` outcome per
    entry: the chunk's new reports, and the exception a feed of it
    raises (a closed session, ``on_truncation="error"``) or None.
    Closed sessions are filtered out *before* the dispatch, so their
    shard states never advance.
    """
    outcomes: list = [None] * len(entries)
    live, chunks, states, budgets = [], [], [], []
    for i, (session, chunk) in enumerate(entries):
        if session.closed:
            error = SimulationError(f"session {session.name!r} is closed")
            outcomes[i] = (EMPTY_REPORTS, error)
        else:
            live.append(i)
            chunks.append(chunk)
            states.append(session.shard_states)
            budgets.append(session.report_budget)
    if live:
        results = dispatcher.run_chunk_batch(
            chunks, states, max_reports=budgets
        )
        for i, result in zip(live, results):
            session, chunk = entries[i]
            try:
                outcomes[i] = (session.absorb(chunk, result), None)
            except Exception as exc:  # e.g. on_truncation="error"
                outcomes[i] = (EMPTY_REPORTS, exc)
    return outcomes
