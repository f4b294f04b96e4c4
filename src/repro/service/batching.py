"""Cross-stream batch scheduling: coalesced kernel steps for sessions.

The kernel layer amortizes per-symbol work across streams — one
:meth:`~repro.sim.engine.Engine.step_batch` call advances a whole
matrix of stream rows (mirroring how one CAMA search key evaluates
every stored state row at once).  This module supplies the service-side
glue that *finds* those batches:

- :func:`~repro.service.session.feed_session_batch` — the synchronous
  core, and the one feed path (a solo
  :meth:`~repro.service.session.Session.feed` is its one-row call):
  take N (session, chunk) pairs that share a dispatcher, run one
  :meth:`~repro.service.sharding.Dispatcher.run_chunk_batch`, and
  absorb each per-stream result into its session.
- :class:`BatchScheduler` — the asyncio half, and the network server's
  one feed path, work-conserving: a feed whose dispatcher has no batch
  in flight runs at once (``immediate``): inline on the event loop
  when the step is cheap (:meth:`BatchScheduler.step_inline`, which
  asks :meth:`~repro.service.session.Session.steps_inline`), else as a
  one-row executor job (:meth:`BatchScheduler.submit`); feeds arriving
  behind a running batch accumulate and flush as one batched executor
  job the moment it completes (``backlog``), sooner when the group
  fills (``rows_full``) or the server drains (``drain``).  Nothing
  ever waits on a timer.

Batching never reorders a single stream (the server admits at most one
in-flight chunk per session) and never changes results — every flush
path is byte-identical to sequential per-session feeds.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from functools import partial

from repro.service.session import feed_session_batch
from repro.sim.reports import ReportBatch
from repro.telemetry.metrics import default_registry

_REGISTRY = default_registry()
_BATCH_ROWS = _REGISTRY.histogram(
    "repro_batch_rows",
    "Session feeds advanced per batch-scheduler flush (occupancy)",
    buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0),
)
_BATCH_FLUSHES = _REGISTRY.counter(
    "repro_batch_flushes_total",
    "Batched-feed flushes by trigger "
    "(rows_full / immediate / drain / backlog)",
    ("reason",),
)
_BATCH_WAIT = _REGISTRY.histogram(
    "repro_batch_wait_seconds",
    "Time one feed spent parked in the batch scheduler, submit to flush",
    buckets=(1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 1.0),
)

# "max_delay" is always 0 now; benchmarks/e2e (topology, layers) index it
FLUSH_REASONS = ("rows_full", "max_delay", "immediate", "drain", "backlog")


@dataclass
class _Lane:
    """One dispatcher's batches in flight and the group parked behind
    them (holding the dispatcher keeps the ``id`` that keys it unique)."""

    dispatcher: object
    running: int = 0
    entries: list = field(default_factory=list)
    futures: list = field(default_factory=list)
    submitted: list = field(default_factory=list)  # perf_counter per entry


class BatchScheduler:
    """Coalesces concurrent session feeds into batched kernel steps.

    Owned by the asyncio server; must be used from its event loop.
    Work-conserving — batch while busy: :meth:`step_inline` steps a
    cheap feed on the loop itself when its dispatcher has no batch in
    flight; ``submit`` runs any other feed at once on ``executor`` when
    the dispatcher is idle and parks it behind a running batch; the
    parked group runs as one :func:`feed_session_batch` job on
    ``executor`` the moment a batch of that dispatcher completes, or as
    soon as it holds ``max_rows`` feeds (``max_rows=1``: never
    coalesce).  Batch size follows load: an idle server adds no wait, a
    busy one coalesces exactly the feeds that would have queued anyway.

    A completing batch is the only thing that releases a parked group,
    so it does so unconditionally — before its outcome is looked at,
    whether it succeeded, raised or was cancelled.  After :meth:`close`
    the scheduler keeps working but stops parking: feeds that race in
    behind a drain (frames the server had already read) flush at once.
    """

    def __init__(self, executor, *, max_rows: int) -> None:
        self._executor = executor
        self._max_rows = max(1, int(max_rows))
        self._lanes: dict[int, _Lane] = {}
        self.closed = False
        self.batches = 0
        self.rows = 0
        self.flush_reasons = {reason: 0 for reason in FLUSH_REASONS}

    def step_inline(self, dispatcher, session, chunk) -> ReportBatch | None:
        """Step one feed on the calling thread when its dispatcher has
        no batch in flight and the session
        :meth:`~repro.service.session.Session.steps_inline` it (the
        hand-off to a worker and back would cost more than the step);
        None when the feed must go through :meth:`submit`."""
        # a lane lives exactly while a batch of its dispatcher runs
        if id(dispatcher) in self._lanes or not session.steps_inline(chunk):
            return None
        self._count("immediate", [0.0])
        [(reports, exc)] = feed_session_batch(dispatcher, [(session, chunk)])
        if exc is not None:
            raise exc
        return reports

    async def submit(self, dispatcher, session, chunk) -> ReportBatch:
        """Queue one feed for ``executor``; resolves with the chunk's
        new reports."""
        lane = self._lanes.get(id(dispatcher))
        future = asyncio.get_running_loop().create_future()
        if lane is None:
            lane = self._lanes[id(dispatcher)] = _Lane(dispatcher)
        lane.entries.append((session, chunk))
        lane.futures.append(future)
        lane.submitted.append(time.perf_counter())
        if len(lane.entries) >= self._max_rows:
            self._flush(lane, "rows_full")
        elif not lane.running or self.closed:
            self._flush(lane, "immediate")
        return await future

    def close(self) -> None:
        """Flush every parked group and stop parking (server drain).

        Feeds submitted afterwards still execute (the server finishes
        every frame it already read), but each flushes at once, busy
        dispatcher or not.
        """
        self.closed = True
        for lane in self._lanes.values():
            self._flush(lane, "drain")

    def stats(self) -> dict:
        """Plain-dict counters for the server's ``stats`` frame."""
        if self._max_rows == 1:
            return {"enabled": False}
        return {
            "enabled": True,
            "batches": self.batches,
            "rows": self.rows,
            "avg_rows": round(self.rows / self.batches, 3)
            if self.batches
            else 0.0,
            "flush_reasons": dict(self.flush_reasons),
        }

    def _flush(self, lane: _Lane, reason: str) -> None:
        entries, futures = lane.entries, lane.futures
        if not entries:
            return
        now = time.perf_counter()
        self._count(reason, [now - since for since in lane.submitted])
        lane.entries, lane.futures, lane.submitted = [], [], []
        lane.running += 1
        job = asyncio.get_running_loop().run_in_executor(
            self._executor, feed_session_batch, lane.dispatcher, entries
        )
        job.add_done_callback(partial(self._completed, lane, futures))

    def _count(self, reason: str, waits: list) -> None:
        """Account one flush of ``len(waits)`` rows, each parked for
        its ``waits`` entry in seconds."""
        self.batches += 1
        self.rows += len(waits)
        self.flush_reasons[reason] += 1
        wait = _BATCH_WAIT.labels()
        for seconds in waits:
            wait.observe(seconds)
        _BATCH_ROWS.labels().observe(len(waits))
        _BATCH_FLUSHES.labels(reason).inc()

    def _completed(self, lane: _Lane, futures: list, done) -> None:
        # free the lane first: nothing else ever releases its backlog
        lane.running -= 1
        if lane.entries:
            self._flush(lane, "backlog")
        elif not lane.running:
            del self._lanes[id(lane.dispatcher)]
        exc = (
            asyncio.CancelledError() if done.cancelled() else done.exception()
        )
        outcomes = done.result() if exc is None else [([], exc)] * len(futures)
        for future, (reports, entry_exc) in zip(futures, outcomes):
            if future.done():
                continue
            if entry_exc is not None:
                future.set_exception(entry_exc)
            else:
                future.set_result(reports)
