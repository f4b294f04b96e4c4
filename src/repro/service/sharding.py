"""Sharded dispatch: split a ruleset, fan a stream across the pieces.

Transitions of a homogeneous NFA never cross weakly-connected
components (:func:`repro.automata.analysis.connected_components`), so a
large ruleset splits into independent *shards* — groups of whole
components balanced by state count — that can scan the same input
stream in isolation and disagree about nothing.  The
:class:`Dispatcher` owns that split: it builds one sub-automaton (and
one :class:`Engine`) per shard, feeds each chunk of the stream to every
shard serially or across a ``multiprocessing`` pool, and merges the
per-shard reports and statistics back into the global automaton's view,
reproducing a monolithic :meth:`Engine.run`'s report stream
byte-for-byte.

Components with no reporting state can never contribute a report and
are dropped at shard-construction time; :attr:`Dispatcher.num_dropped_
states` records how many states that removed.  When such components
exist, merged *statistics* (``num_states``, enabled/active sums) cover
only the retained shards and so undercount a monolithic run's —
reports are unaffected.
"""

from __future__ import annotations

import contextvars
import multiprocessing
import threading
from collections.abc import Iterator
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

import numpy as np

from repro.api.config import DEFAULT_CHUNK_SIZE, ScanConfig
from repro.automata.analysis import balanced_shards, connected_components
from repro.automata.nfa import Automaton
from repro.compile.artifact import CompiledArtifact
from repro.compile.fingerprint import ruleset_fingerprint
from repro.compile.pipeline import compile_ruleset
from repro.compile.store import ArtifactStore
from repro.errors import ConfigError, ReproError, SimulationError
from repro.service.ruleset import CacheStats, artifact_options, open_store
from repro.sim.backends import (
    DEFAULT_MAX_KEPT_REPORTS,
    BatchEngineState,
    ExecutionBackend,
)
from repro.sim.engine import Engine, EngineState, SimulationResult
from repro.sim.reports import EMPTY_REPORTS, ReportBatch
from repro.sim.trace import TraceStats
from repro.telemetry.metrics import default_registry
from repro.telemetry.tracing import current_trace

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "Dispatcher",
    "Shard",
    "iter_chunks",
    "make_shards",
]

_REGISTRY = default_registry()
_DISPATCH_SCANS = _REGISTRY.counter(
    "repro_dispatcher_scans_total",
    "One-shot Dispatcher.scan_many calls, by execution mode (serial | pool)",
    ("mode",),
)
_SHARD_RUNS = _REGISTRY.counter(
    "repro_dispatcher_shard_runs_total",
    "Per-shard work dispatched, by execution mode: one batched step "
    "(serial) or one whole-scan task (pool) per shard",
    ("mode",),
)
_BATCH_CHUNK_RUNS = _REGISTRY.counter(
    "repro_dispatcher_batch_runs_total",
    "Row-batch steps (Dispatcher.run_chunk_batch) fanned across every shard",
)


@dataclass(frozen=True)
class Shard:
    """One independent slice of a ruleset.

    ``automaton`` is the induced sub-automaton with dense local ids;
    ``global_ids[local]`` maps back to the parent automaton's state id.
    """

    index: int
    automaton: Automaton
    global_ids: list[int]


def iter_chunks(data: bytes, chunk_size: int) -> Iterator[bytes]:
    """Split ``data`` into consecutive chunks of ``chunk_size`` bytes."""
    if chunk_size < 1:
        raise ConfigError("chunk size must be >= 1")
    for start in range(0, len(data), chunk_size):
        yield data[start : start + chunk_size]


def make_shards(automaton: Automaton, num_shards: int) -> list[Shard]:
    """Split ``automaton`` into at most ``num_shards`` independent shards.

    Whole connected components are packed largest-first into balanced
    groups; reporterless components are dropped (they cannot affect the
    report stream).
    """
    automaton.validate()
    reporting = {s.ste_id for s in automaton.reporting_states()}
    components = [
        c for c in connected_components(automaton) if reporting.intersection(c)
    ]
    shards = []
    for index, group in enumerate(balanced_shards(components, num_shards)):
        sub = automaton.subautomaton(
            group, name=f"{automaton.name}.shard{index}"
        )
        shards.append(Shard(index=index, automaton=sub, global_ids=group))
    return shards


def _build_engine(
    automaton: Automaton,
    backend: str | ExecutionBackend,
    store: ArtifactStore | None,
    stats: CacheStats,
) -> Engine:
    """One shard's :class:`Engine`, read through ``store`` when given.

    The store is keyed by fingerprint plus the service's compile
    options (:func:`~repro.service.ruleset.artifact_options`): a stored
    artifact loads instead of compiling, a missing or unusable one
    compiles and is written back.  ``stats`` counts the outcome as a
    disk hit or miss.  A backend *instance* has no stable key and
    bypasses the store.
    """
    options = artifact_options(backend)
    if store is None or options is None:
        return Engine(automaton, backend=backend)
    artifact = store.get(ruleset_fingerprint(automaton, options))
    if artifact is not None:
        try:
            engine = artifact.engine()
        except ReproError:
            # loadable but unusable (e.g. table skew validate() cannot
            # see): a cache miss, never a stuck ruleset
            pass
        else:
            stats.count("disk_hits")
            return engine
    stats.count("disk_misses")
    compiled = compile_ruleset(automaton, options)
    store.put(CompiledArtifact.from_compiled(compiled))
    return compiled.engine()


class StreamTotals:
    """One stream's running result: the batches of the chunks that
    recorded reports, the activity statistics, and whether the
    kept-reports cap dropped any report."""

    __slots__ = ("batches", "recorded", "stats", "truncated")

    def __init__(self, num_states: int) -> None:
        self.batches: list[ReportBatch] = []
        self.recorded = 0
        self.stats = TraceStats(num_states=num_states)
        self.truncated = False

    def budget(self, cap: int) -> int:
        """Reports the stream may still record under ``cap``."""
        return max(0, cap - self.recorded)

    def add(self, result: SimulationResult) -> None:
        """Fold the next chunk's result in."""
        if len(result.batch):
            self.batches.append(result.batch)
            self.recorded += len(result.batch)
        self.stats.accumulate(result.stats)
        self.truncated |= result.truncated

    def result(self) -> SimulationResult:
        return SimulationResult(
            ReportBatch.concat(self.batches), self.stats, self.truncated
        )


#: once set, the running request is abandoned (its connection is gone):
#: :func:`lockstep_scan` stops between chunks instead of scanning on
_ABANDONED: contextvars.ContextVar[threading.Event | None] = (
    contextvars.ContextVar("repro_abandoned", default=None)
)


@contextmanager
def abandoned_when(event: threading.Event) -> Iterator[None]:
    """Scans run inside this block stop at their next chunk once
    ``event`` is set, raising :class:`SimulationError`."""
    token = _ABANDONED.set(event)
    try:
        yield
    finally:
        _ABANDONED.reset(token)


def lockstep_scan(
    step,
    fresh,
    num_states: int,
    streams: "list[bytes]",
    *,
    chunk_size: int,
    max_reports: int,
    rows: int,
) -> list[SimulationResult]:
    """Scan complete ``streams``, ``rows`` at a time in lock-step.

    Each group of streams steps as fresh matrices, ``fresh(k)`` — one
    :class:`~repro.sim.backends.BatchEngineState` of ``k`` rows per
    shard — one ``chunk_size`` chunk per stream per ``step(chunks,
    matrices, max_reports=budgets)`` call (:meth:`Dispatcher`'s shard
    step, or one shard's :meth:`Engine.step_batch` in a pool worker).
    A stream that fits in one chunk passes its step result through (a
    group of such streams is one step); a longer one accumulates in a
    :class:`StreamTotals`, with budgets shrunk by what it has
    recorded, so the per-step trim is the end-of-stream trim of one
    monolithic run.  Streams leave as they run dry, and their rows
    with them.  Under :func:`abandoned_when` it stops between chunks
    once that event is set.
    """
    abandoned = _ABANDONED.get()
    out: list[SimulationResult] = []
    for first in range(0, len(streams), rows):
        group = streams[first : first + rows]
        if 0 < min(map(len, group)) and max(map(len, group)) <= chunk_size:
            if abandoned is not None and abandoned.is_set():
                raise SimulationError("scan abandoned: its request is gone")
            out += step(group, fresh(len(group)), max_reports=max_reports)
            continue
        totals = [StreamTotals(num_states) for _ in group]
        whole: list[SimulationResult | None] = [None] * len(group)
        live = [row for row, data in enumerate(group) if len(data)]
        matrices = fresh(len(live)) if live else []
        offset = 0
        while live:
            if abandoned is not None and abandoned.is_set():
                raise SimulationError("scan abandoned: its request is gone")
            results = step(
                [group[row][offset : offset + chunk_size] for row in live],
                matrices,
                max_reports=[totals[row].budget(max_reports) for row in live],
            )
            offset += chunk_size
            for row, result in zip(live, results):
                if len(group[row]) <= chunk_size:
                    whole[row] = result  # the stream was one chunk
                else:
                    totals[row].add(result)
            going = [len(group[row]) > offset for row in live]
            if not all(going):
                live = [row for row, on in zip(live, going) if on]
                if live:
                    matrices = [matrix.take(going) for matrix in matrices]
        out += [
            total.result() if result is None else result
            for total, result in zip(totals, whole)
        ]
    return out


# -- worker-process plumbing (top-level for picklability) -----------------
_WORKER_ENGINES: list[Engine] = []


def _init_worker(engines: list[Engine]) -> None:
    # Engines arrive pre-compiled from the parent: shared copy-on-write
    # pages under fork, pickled once per worker under spawn.
    global _WORKER_ENGINES
    _WORKER_ENGINES = engines


def _scan_shard(task: tuple) -> list[SimulationResult]:
    """One shard's :func:`lockstep_scan` over every stream of a scan."""
    index, streams, chunk_size, max_reports, rows = task
    engine = _WORKER_ENGINES[index]

    def step(chunks, matrices, *, max_reports):
        return engine.step_batch(chunks, matrices[0], max_reports=max_reports)

    return lockstep_scan(
        step,
        lambda num_rows: [engine.kernel.initial_batch(num_rows)],
        len(engine.automaton),
        streams,
        chunk_size=chunk_size,
        max_reports=max_reports,
        rows=rows,
    )


class Dispatcher:
    """Runs one ruleset, split into shards, over input streams.

    One step: every shard engine advances every stream row at once.
    Sessions take it with their own states, :meth:`run_chunk_batch`
    (:meth:`run_chunk` is its one-row call); the one one-shot loop,
    :meth:`scan_many` (:meth:`scan` is its one-stream call), takes it
    with fresh matrices and steps streams through it in lock-step.

    Args:
        automaton: the full ruleset.
        config: the :class:`~repro.api.config.ScanConfig` driving this
            dispatcher.  The consumed fields:

            ``num_shards``
                upper bound on independent shards (the component
                structure may yield fewer).
            ``workers``
                processes for the one-shot :meth:`scan_many` (and so
                :meth:`scan`); 1 means in-process serial execution.
                Parallelism is across *shards* — one pool task per
                shard runs the lock-step loop over every stream — so
                workers beyond ``len(shards)`` are never used.
                Streaming sessions always run serially — chunk N+1 of
                a stream cannot start before chunk N finishes.
            ``batch_max_rows``
                streams one :meth:`scan_many` step advances together.
            ``backend``
                execution backend for the shard engines.  ``"auto"``
                resolves *per shard*: each shard's sub-automaton is
                sized and density-estimated independently, so one
                ruleset can mix the sparse kernel and the packed
                family (native when the compiled loop loads).
            ``mp_start_method``
                multiprocessing start method for the worker pool (None
                = platform default).  The compiled shard engines reach
                the workers once, at pool start: as copy-on-write pages
                under ``fork``, pickled under ``spawn`` /
                ``forkserver`` (the native kernel re-binds its compiled
                loop on arrival).
            ``artifact_store``
                optional :class:`~repro.compile.store.ArtifactStore`
                (or directory) the shard engines are read through:
                stored artifacts load instead of compiling.
        prebuilt: ready ``(shards, engines)`` — the incremental
            compiler's composition, or an adopted artifact's engine —
            instead of the split-and-compile above.
    """

    def __init__(
        self,
        automaton: Automaton,
        config: ScanConfig | None = None,
        *,
        prebuilt: "tuple[list[Shard], list[Engine]] | None" = None,
    ) -> None:
        self.config = config if config is not None else ScanConfig()
        self.automaton = automaton
        #: where the shard builds count their disk hits and misses (a
        #: MatchingService points this at its own stats)
        self.cache_stats = CacheStats()
        self._engines: list[Engine] | None = None
        if prebuilt is not None:
            # the expensive work (tables, kernels) already happened, so
            # nothing is derived here and .engines never compiles
            shards, engines = prebuilt
            if len(shards) != len(engines):
                raise SimulationError(
                    "prebuilt shards and engines must pair up"
                )
            self.shards = list(shards)
            self._engines = list(engines)
        else:
            self.shards = make_shards(automaton, self.config.num_shards)
        self.workers = min(self.config.workers, len(self.shards))
        # the step's metric children, looked up once (as Engine does)
        self._step_counters = (
            _BATCH_CHUNK_RUNS.labels(),
            _SHARD_RUNS.labels("serial"),
        )
        self._pool: multiprocessing.pool.Pool | None = None
        # engine compilation and pool creation are check-then-create;
        # concurrent scans (e.g. server executor threads) must not race
        # them or a duplicate pool's processes would leak unterminated.
        # Reentrant: pool creation reads .engines under the same lock.
        self._compile_lock = threading.RLock()
        self.num_dropped_states = len(automaton) - sum(
            len(s.global_ids) for s in self.shards
        )
        # shard -> global state ids and the global code table, for the
        # report merge; no ids when one shard is the whole ruleset in
        # its own order (its reports pass through)
        ids = [np.asarray(s.global_ids, dtype=np.int64) for s in self.shards]
        whole = len(ids) == 1 and np.array_equal(ids[0], range(len(automaton)))
        self._id_maps = None if whole else ids
        self._codes = [s.report_code for s in automaton.states]

    @property
    def backend(self) -> str | ExecutionBackend:
        """The configured execution-backend policy."""
        return self.config.backend

    @property
    def mp_start_method(self) -> str | None:
        return self.config.mp_start_method

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def num_states(self) -> int:
        """States the shards run: the ruleset minus dropped components."""
        return len(self.automaton) - self.num_dropped_states

    @property
    def engines(self) -> list[Engine]:
        """Per-shard engines, built on first use (through the
        configured artifact store, when there is one)."""
        if self._engines is None:
            with self._compile_lock:
                if self._engines is None:
                    store = open_store(self.config.artifact_store)
                    self._engines = [
                        _build_engine(
                            s.automaton, self.backend, store, self.cache_stats
                        )
                        for s in self.shards
                    ]
        return self._engines

    @property
    def backend_names(self) -> list[str]:
        """Resolved kernel name per shard (``auto`` decides per shard)."""
        return [engine.backend_name for engine in self.engines]

    # -- streaming ------------------------------------------------------
    def initial_states(self) -> list[EngineState]:
        """Fresh per-shard stream states (one session's snapshot)."""
        return [engine.initial_state() for engine in self.engines]

    def run_chunk(
        self,
        data: bytes,
        states: list[EngineState],
        *,
        max_reports: int = DEFAULT_MAX_KEPT_REPORTS,
    ) -> SimulationResult:
        """Feed one chunk to every shard, advancing ``states`` in place:
        a one-row :meth:`run_chunk_batch`.

        Returns the merged global-view result for this chunk only.
        """
        return self.run_chunk_batch(
            [data], [states], max_reports=[max_reports]
        )[0]

    def run_chunk_batch(
        self,
        chunks: list[bytes],
        states_per_stream: "list[list[EngineState]]",
        *,
        max_reports=DEFAULT_MAX_KEPT_REPORTS,
    ) -> list[SimulationResult]:
        """Feed one chunk per stream to every shard.

        ``states_per_stream[r]`` is stream ``r``'s per-shard snapshot
        list (advanced in place) and ``chunks[r]`` its next chunk.
        Each shard engine advances *all* streams in one
        :meth:`Engine.step_batch` call, so per-stream Python overhead
        is paid once per shard instead of once per (stream, shard).
        ``max_reports`` is one shared cap or a per-stream budget
        sequence; returns one merged global-view result per stream,
        byte-identical to one monolithic engine per stream.
        """
        num_shards = len(self.shards)
        if len(states_per_stream) != len(chunks):
            raise SimulationError(
                f"got {len(states_per_stream)} state snapshots for "
                f"{len(chunks)} chunks"
            )
        for states in states_per_stream:
            if len(states) != num_shards:
                raise SimulationError(
                    "state snapshot does not match shard count"
                )
        return self._step(
            chunks,
            [
                [states[shard] for states in states_per_stream]
                for shard in range(num_shards)
            ],
            max_reports=max_reports,
        )

    def initial_batches(self, num_rows: int) -> "list[BatchEngineState]":
        """One fresh ``num_rows``-row matrix per shard: a group of
        one-shot streams, stepped by :meth:`scan_many`."""
        return [
            engine.kernel.initial_batch(num_rows) for engine in self.engines
        ]

    def _step(
        self, chunks, per_shard, *, max_reports
    ) -> list[SimulationResult]:
        """The one step: every shard engine advances every stream row
        in one :meth:`Engine.step_batch` call — ``per_shard[shard]`` is
        a shard's rows, a matrix or a list of session states — and
        the shards' results merge per stream."""
        steps, shard_runs = self._step_counters
        steps.inc()
        shard_runs.inc(len(self.shards))
        if self._id_maps is None:
            # one shard that is the whole ruleset: its rows are the
            # global view, already capped by the kernel
            return self.engines[0].step_batch(
                chunks, per_shard[0], max_reports=max_reports
            )
        stepped = [
            engine.step_batch(chunks, rows, max_reports=max_reports)
            for engine, rows in zip(self.engines, per_shard)
        ]
        caps = (
            [max_reports] * len(chunks)
            if isinstance(max_reports, int)
            else max_reports
        )
        return [
            self._merge_capped(results, cap)
            for cap, *results in zip(caps, *stepped)
        ]

    # -- one-shot scans -------------------------------------------------
    def scan(
        self,
        data: bytes,
        *,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        max_reports: int = DEFAULT_MAX_KEPT_REPORTS,
    ) -> SimulationResult:
        """Scan one complete stream: a one-stream :meth:`scan_many`."""
        return self.scan_many(
            [data], chunk_size=chunk_size, max_reports=max_reports
        )[0]

    def scan_many(
        self,
        streams: "list[bytes]",
        *,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        max_reports: int = DEFAULT_MAX_KEPT_REPORTS,
    ) -> list[SimulationResult]:
        """Scan complete streams, each from its own fresh state.

        :func:`lockstep_scan` steps groups of ``config.batch_max_rows``
        streams, each group as one fresh matrix per shard
        (:meth:`initial_batches`), through the step
        :meth:`run_chunk_batch` takes for sessions: one
        :meth:`Engine.step_batch` per shard and chunk, no per-stream
        state objects.  With a worker pool, each worker runs that loop
        on its own shard's engine over every stream, and the per-shard
        results merge per stream at the end.  Either way each result is
        byte-identical to a monolithic :meth:`Engine.run` of its stream
        capped at ``max_reports``.
        """
        if chunk_size < 1:
            raise ConfigError("chunk size must be >= 1")
        mode = "pool" if self.workers > 1 else "serial"
        _DISPATCH_SCANS.labels(mode).inc()
        trace = current_trace()
        # worker-process kernel spans cannot cross the pickle boundary,
        # so under a pool this one span records the whole fan-out
        span = nullcontext() if trace is None else trace.span(
            "dispatcher.scan",
            mode=mode,
            shards=len(self.shards),
            streams=len(streams),
        )
        rows = self.config.batch_max_rows
        with span:
            if mode == "serial":
                return lockstep_scan(
                    self._step,
                    self.initial_batches,
                    self.num_states,
                    streams,
                    chunk_size=chunk_size,
                    max_reports=max_reports,
                    rows=rows,
                )
            _SHARD_RUNS.labels("pool").inc(len(self.shards))
            # a served stream is a memoryview of its frame, which cannot
            # be pickled; the pickle copies the bytes anyway
            streams = [bytes(stream) for stream in streams]
            tasks = [
                (shard.index, streams, chunk_size, max_reports, rows)
                for shard in self.shards
            ]
            per_shard = self._worker_pool().map(_scan_shard, tasks)
        return [
            self._merge_capped(list(results), max_reports)
            for results in zip(*per_shard)
        ]

    def _worker_pool(self) -> "multiprocessing.pool.Pool":
        """The persistent worker pool, created on first parallel scan.

        Compiled engines ship to the workers exactly once — as
        copy-on-write pages under fork, pickled under the other start
        methods — so repeat scans pay neither pool startup nor
        recompilation.  Release with :meth:`close`.
        """
        with self._compile_lock:
            if self._pool is None:
                ctx = multiprocessing.get_context(self.mp_start_method)
                self._pool = ctx.Pool(
                    processes=self.workers,
                    initializer=_init_worker,
                    initargs=(self.engines,),
                )
            return self._pool

    def close(self) -> None:
        """Shut down the worker pool (no-op for serial dispatchers).

        Idempotent, and safe to call after a scan raised mid-stream:
        ``terminate`` stops the workers even with tasks still queued,
        and ``join`` reaps the processes so no pool (or
        ``ResourceWarning``) outlives the dispatcher.
        """
        with self._compile_lock:
            if self._pool is not None:
                self._pool.terminate()
                self._pool.join()
                self._pool = None

    def __enter__(self) -> "Dispatcher":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _merge_capped(
        self, per_shard: list[SimulationResult], max_reports: int
    ) -> SimulationResult:
        """Merge shard results into the global automaton's view.

        Reports come out exactly as a monolithic :meth:`Engine.run`
        emits them: global state ids, by cycle, then by state id within
        a cycle.  A chunk no shard reported on costs nothing, and
        otherwise the id remap is a gather and the interleave one
        stable lexsort (one shard that is the whole ruleset never gets
        here: its results pass through).  Each shard records up to
        ``max_reports`` on its own, so the merged batch is trimmed to
        its first ``max_reports`` (counting via ``stats.num_reports``
        is unaffected), matching what a monolithic engine would have
        recorded.
        """
        truncated = any(result.truncated for result in per_shard)
        fired = [
            (result.batch, ids)
            for result, ids in zip(per_shard, self._id_maps)
            if len(result.batch)
        ]
        batch = EMPTY_REPORTS
        if fired:
            cycles = np.concatenate([b.cycles for b, _ in fired])
            states = np.concatenate([ids[b.state_ids] for b, ids in fired])
            order = np.lexsort((states, cycles))
            batch = ReportBatch(cycles[order], states[order], self._codes)
        if len(batch) > max_reports:
            batch, truncated = batch[:max_reports], True
        stats = merge_shard_stats([result.stats for result in per_shard])
        return SimulationResult(batch, stats, truncated)


def merge_shard_stats(per_shard: list[TraceStats]) -> TraceStats:
    """Combine statistics of shards that scanned the same stream.

    Shards partition the state space, not the input: every shard ran
    the same cycles, so ``num_cycles`` is taken from the longest shard
    while state counts and report totals add across shards.  One
    shard's statistics are the whole stream's.
    """
    if len(per_shard) == 1:
        return per_shard[0]
    merged = TraceStats(num_states=sum(s.num_states for s in per_shard))
    for stats in per_shard:
        merged.num_cycles = max(merged.num_cycles, stats.num_cycles)
        merged.num_reports += stats.num_reports
        merged.enabled_states_sum += stats.enabled_states_sum
        merged.active_states_sum += stats.active_states_sum
    return merged
