"""Reference cycle-accurate simulator for homogeneous NFAs.

This plays the role VASim plays for the paper: it executes an automaton
one input symbol per cycle and records reports plus the activity
statistics the energy models need.  Execution itself is delegated to a
pluggable backend (:mod:`repro.sim.backends`): the ``sparse`` kernel
propagates active-state index sets (the reference every other path is
checked against), the ``native`` kernel steps packed uint64 state rows
in C with work following the active set (the serving kernel), and
``auto`` resolves per automaton to one of them.

Per-cycle semantics (identical to AP/CA/Impala/eAP/CAMA, and identical
across backends — enforced by the cross-backend property tests):

    enabled(t) = all-input starts
               | start-of-data starts (t == 0 only)
               | successors(active(t-1))
    active(t)  = { s in enabled(t) : input[t] in C(s) }
    reports(t) = active(t) & reporting

Execution is *resumable*: :meth:`Engine.run_chunk` consumes one chunk of
a stream and advances an :class:`EngineState`, so a long input can be
fed piecewise (the service layer in :mod:`repro.service` builds on
this).  ``t == 0`` above means the first symbol of the *stream*, not of
the chunk — ``START_OF_DATA`` states never re-fire at chunk boundaries,
and report cycles are absolute stream offsets.

Reports beyond the kept-reports cap are *counted but not recorded*.
The cap defaults to :data:`DEFAULT_MAX_KEPT_REPORTS` and is
configurable per engine (``max_kept_reports=``); hitting the implicit
cap raises a :class:`ReportTruncationWarning` (or a
:class:`~repro.errors.SimulationError` with ``on_truncation="error"``),
while an explicit per-call ``max_reports`` is taken as intentional.
"""

from __future__ import annotations

import time

import numpy as np

from repro.automata.nfa import Automaton
from repro.automata.striding import StridedAutomaton, stride_pairs
from repro.errors import SimulationError
from repro.sim.backends import (
    DEFAULT_MAX_KEPT_REPORTS,
    BACKEND_NAMES,
    BatchEngineState,
    CompiledKernel,
    EngineState,
    ExecutionBackend,
    PlacementTracker,
    ReportTruncationWarning,
    SimulationResult,
    gather_successors,
    get_backend,
)
from repro.sim.backends.base import (
    check_truncation_policy,
    handle_truncation,
    reporting_mask,
    start_ids,
)
from repro.sim.reports import ReportBuffer
from repro.sim.trace import PartitionAssignment, TraceStats
from repro.telemetry.metrics import default_registry
from repro.telemetry.tracing import current_trace

# -- kernel instrumentation (chunk granularity: the per-cycle loops stay
# untouched, so the overhead is a few counter bumps per chunk) ----------
_REGISTRY = default_registry()
_KERNEL_CHUNKS = _REGISTRY.counter(
    "repro_kernel_chunks_total",
    "Chunks executed by the simulation kernels",
    ("backend",),
)
_KERNEL_CYCLES = _REGISTRY.counter(
    "repro_kernel_cycles_total",
    "Input symbols (cycles) consumed by the simulation kernels",
    ("backend",),
)
_KERNEL_REPORTS = _REGISTRY.counter(
    "repro_kernel_reports_total",
    "Reports produced by the simulation kernels",
    ("backend",),
)
_KERNEL_SECONDS = _REGISTRY.histogram(
    "repro_kernel_chunk_seconds",
    "Wall-clock seconds per kernel chunk",
    ("backend",),
)
_KERNEL_BATCHES = _REGISTRY.counter(
    "repro_kernel_batches_total",
    "Batched multi-stream kernel steps (one call, many stream rows)",
    ("backend",),
)


def _kernel_instruments(backend: str):
    return (
        _KERNEL_CHUNKS.labels(backend),
        _KERNEL_CYCLES.labels(backend),
        _KERNEL_REPORTS.labels(backend),
        _KERNEL_SECONDS.labels(backend),
        _KERNEL_BATCHES.labels(backend),
    )


def _observe_chunk(
    instruments, backend: str, elapsed: float, data: bytes, result
) -> None:
    """Record one executed chunk (metrics + an optional trace span)."""
    chunks, cycles, reports, seconds, _ = instruments
    chunks.inc()
    cycles.inc(result.stats.num_cycles)
    if result.stats.num_reports:  # adding 0 would only take the lock
        reports.inc(result.stats.num_reports)
    seconds.observe(elapsed)
    trace = current_trace()
    if trace is not None:
        trace.add_span(
            "kernel.chunk",
            elapsed,
            backend=backend,
            bytes=len(data),
            cycles=result.stats.num_cycles,
            reports=result.stats.num_reports,
        )


def _cap_message(cap: int, what: str) -> str:
    # a truncated run recorded exactly ``cap`` reports: the cap is exact
    return (
        f"{what} hit the kept-reports cap: recorded {cap} of a stream "
        f"that kept reporting past {cap}; raise max_kept_reports (or pass "
        f"an explicit max_reports) to silence"
    )


class Engine:
    """Compiled simulator for one :class:`Automaton`.

    Args:
        automaton: the automaton to compile.
        backend: execution backend — ``"sparse"`` (default, the
            reference kernel), ``"native"`` (the compiled C step loop,
            degrading to sparse when unavailable), ``"auto"``, or an
            :class:`ExecutionBackend` instance.
        max_kept_reports: recording cap applied when a call does not
            pass its own ``max_reports``.
        on_truncation: what to do when the *implicit* cap truncates
            recording: ``"warn"`` (default), ``"error"`` or ``"ignore"``.
    """

    def __init__(
        self,
        automaton: Automaton,
        *,
        backend: str | ExecutionBackend = "sparse",
        max_kept_reports: int = DEFAULT_MAX_KEPT_REPORTS,
        on_truncation: str = "warn",
    ) -> None:
        if max_kept_reports < 0:
            from repro.errors import ConfigError

            raise ConfigError("max_kept_reports must be >= 0")
        self._kernel = get_backend(backend).compile(automaton)
        self.automaton = automaton
        self.max_kept_reports = max_kept_reports
        self.on_truncation = check_truncation_policy(on_truncation)
        self._instruments = _kernel_instruments(self._kernel.name)

    @classmethod
    def from_kernel(
        cls,
        kernel: CompiledKernel,
        *,
        max_kept_reports: int = DEFAULT_MAX_KEPT_REPORTS,
        on_truncation: str = "warn",
    ) -> "Engine":
        """Wrap an already compiled kernel (e.g. from a loaded artifact).

        The normal constructor compiles; this one does not — it is the
        warm-start path behind :meth:`repro.compile.artifact.
        CompiledArtifact.engine` and the pipeline's kernel prebuild.
        """
        if max_kept_reports < 0:
            raise SimulationError("max_kept_reports must be >= 0")
        engine = cls.__new__(cls)
        engine._kernel = kernel
        engine.automaton = kernel.automaton
        engine.max_kept_reports = max_kept_reports
        engine.on_truncation = check_truncation_policy(on_truncation)
        engine._instruments = _kernel_instruments(kernel.name)
        return engine

    # Metric instruments hold the registry lock and cannot cross a
    # process boundary (spawn-based shard pools pickle whole engines);
    # drop them from the pickled state and rebind on arrival.
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_instruments", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._instruments = _kernel_instruments(self._kernel.name)

    @property
    def kernel(self) -> CompiledKernel:
        """The compiled kernel executing this engine's automaton."""
        return self._kernel

    @property
    def backend_name(self) -> str:
        """Resolved kernel name ("sparse" or "native")."""
        return self._kernel.name

    # -- single-step API (used by the CAMA machine for lock-step checks) --
    def enabled_at(self, active: np.ndarray, first_cycle: bool) -> np.ndarray:
        """Indices of states enabled next cycle, given active indices."""
        return self._kernel.enabled_at(active, first_cycle)

    def match(self, enabled: np.ndarray, symbol: int) -> np.ndarray:
        """Subset of ``enabled`` whose class contains ``symbol``."""
        return self._kernel.match(enabled, symbol)

    # -- resumable execution ---------------------------------------------
    def initial_state(self) -> EngineState:
        """A fresh :class:`EngineState` at stream position 0."""
        return self._kernel.initial_state()

    def run_chunk(
        self,
        data: bytes,
        state: EngineState,
        *,
        placement: PartitionAssignment | None = None,
        keep_per_cycle: bool = False,
        max_reports: int | None = None,
    ) -> SimulationResult:
        """Consume one chunk of a stream, advancing ``state`` in place.

        Semantics are those of :meth:`run` applied to the whole stream:
        ``START_OF_DATA`` states are enabled only when ``state`` is at
        stream position 0, and report cycles are absolute stream
        offsets (``state.position`` plus the chunk-local index).  The
        returned statistics cover only this chunk; accumulate across
        chunks with :meth:`TraceStats.accumulate
        <repro.sim.trace.TraceStats.accumulate>`.
        """
        explicit = max_reports is not None
        cap = max_reports if explicit else self.max_kept_reports
        start = time.perf_counter()
        result = self._kernel.run_chunk(
            data,
            state,
            placement=placement,
            keep_per_cycle=keep_per_cycle,
            max_reports=cap,
        )
        _observe_chunk(
            self._instruments,
            self._kernel.name,
            time.perf_counter() - start,
            data,
            result,
        )
        if result.truncated and not explicit:
            handle_truncation(
                self.on_truncation,
                _cap_message(cap, f"Engine({self.automaton.name!r})"),
            )
        return result

    def step_batch(
        self,
        chunks: list[bytes],
        states: list[EngineState],
        *,
        max_reports=None,
    ) -> list[SimulationResult]:
        """Advance many streams one chunk each in a single kernel call.

        Row ``r`` consumes ``chunks[r]`` against ``states[r]`` (advanced
        in place), with exactly the per-stream :meth:`run_chunk`
        semantics — the batch is an amortization of Python-level
        overhead, not a semantic change; the oracle-differential batch
        tests assert byte-identical results.  ``max_reports`` is one
        shared cap or a per-row budget sequence; as with
        :meth:`run_chunk`, an explicit cap is intentional and silent
        while hitting the implicit engine cap triggers the
        ``on_truncation`` policy.
        """
        if len(chunks) != len(states):
            raise SimulationError(
                f"got {len(chunks)} chunks for {len(states)} stream states"
            )
        explicit = max_reports is not None
        cap = max_reports if explicit else self.max_kept_reports
        start = time.perf_counter()
        results = self._kernel.step_batch(chunks, states, max_reports=cap)
        elapsed = time.perf_counter() - start

        total_cycles = total_reports = hit = 0
        for result in results:
            total_cycles += result.stats.num_cycles
            total_reports += result.stats.num_reports
            hit += result.truncated
        chunk_count, cycles, reports, seconds, batches = self._instruments
        batches.inc()
        chunk_count.inc(len(chunks))
        cycles.inc(total_cycles)
        if total_reports:  # adding 0 would only take the lock
            reports.inc(total_reports)
        seconds.observe(elapsed)
        trace = current_trace()
        if trace is not None:
            trace.add_span(
                "kernel.batch",
                elapsed,
                backend=self._kernel.name,
                rows=len(chunks),
                bytes=sum(len(c) for c in chunks),
                cycles=total_cycles,
                reports=total_reports,
            )
        if hit and not explicit:
            handle_truncation(
                self.on_truncation,
                f"batched step of Engine({self.automaton.name!r}) hit "
                f"the kept-reports cap on {hit} of {len(results)} "
                f"stream rows; raise max_kept_reports (or pass an "
                f"explicit max_reports) to silence",
            )
        return results

    # -- full run ---------------------------------------------------------
    def run(
        self,
        data: bytes,
        *,
        placement: PartitionAssignment | None = None,
        keep_per_cycle: bool = False,
        max_reports: int | None = None,
    ) -> SimulationResult:
        """Simulate ``data`` and return reports plus activity statistics.

        Args:
            data: the input symbol stream.
            placement: optional state->partition map; when given, the
                per-partition activity the energy model needs is recorded.
            keep_per_cycle: retain per-cycle enabled/active counts.
            max_reports: stop *recording* (not counting) reports beyond
                this limit, protecting memory on report-heavy runs;
                defaults to the engine's ``max_kept_reports``.
        """
        return self.run_chunk(
            data,
            self.initial_state(),
            placement=placement,
            keep_per_cycle=keep_per_cycle,
            max_reports=max_reports,
        )


class StridedEngine:
    """Simulator for 2-strided automata (16-bit symbol pairs per cycle).

    Walks active index sets, with the stride's match as ``hi[first] &
    lo[second]`` over the product classes.  Every built-in backend name
    is accepted and runs this one stepper: the C loop has no strided
    product-class step.  Unlike :class:`Engine`, custom
    :class:`ExecutionBackend` instances are not supported here — the
    product-class match step is strided-specific.
    """

    def __init__(
        self,
        strided: StridedAutomaton,
        *,
        backend: str | ExecutionBackend = "sparse",
        max_kept_reports: int = DEFAULT_MAX_KEPT_REPORTS,
        on_truncation: str = "warn",
    ) -> None:
        if not len(strided):
            raise SimulationError("strided automaton has no states")
        self.automaton = strided
        self.max_kept_reports = max_kept_reports
        self.on_truncation = check_truncation_policy(on_truncation)
        if not isinstance(backend, str):
            raise SimulationError(
                "StridedEngine supports only the built-in execution "
                f"strategies {', '.join(BACKEND_NAMES)}, not custom "
                "backend instances (the product-class match step is "
                "strided-specific)"
            )
        if backend not in BACKEND_NAMES:
            raise SimulationError(
                f"unknown execution backend {backend!r}; "
                f"known: {', '.join(BACKEND_NAMES)}"
            )
        self.backend_name = "sparse"
        # strided runs get their own metric series: their cycle consumes
        # two input bytes, so mixing them with 1-stride counts would
        # skew cycles-per-chunk ratios
        self._instruments = _kernel_instruments("sparse-strided")
        n = len(strided)
        self._n = n
        hi = np.zeros((256, n), dtype=bool)
        lo = np.zeros((256, n), dtype=bool)
        for ste in strided.states:
            for symbol in ste.product.first:
                hi[symbol, ste.ste_id] = True
            for symbol in ste.product.second:
                lo[symbol, ste.ste_id] = True
        self._hi_table = hi
        self._lo_table = lo
        self._succ_offsets, self._succ_targets = strided.successor_csr()
        self._start_all, self._start_sod = start_ids(strided)
        self._reporting = reporting_mask(strided)
        # strided reports name the original automaton's state and carry
        # no code: a code table of Nones over the original ids
        origins = [s.report_origin for s in strided.states if s.reporting]
        self._origin_codes = [None] * (max(origins, default=-1) + 1)

    # Same pickling contract as Engine: metric children are
    # process-local, rebind them against this process's registry.
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_instruments", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._instruments = _kernel_instruments(f"{self.backend_name}-strided")

    def run(
        self,
        data: bytes,
        *,
        placement: PartitionAssignment | None = None,
        keep_per_cycle: bool = False,
        max_reports: int | None = None,
    ) -> SimulationResult:
        """Simulate an even-length byte stream, one pair per cycle.

        Reports carry the *original* automaton's reporting-state id and
        original symbol position, so results compare directly against
        the unstrided engine's.  As with :meth:`Engine.run`, reports
        beyond ``max_reports`` are counted but not recorded.
        """
        explicit = max_reports is not None
        cap = max_reports if explicit else self.max_kept_reports
        start_time = time.perf_counter()
        pairs = stride_pairs(data)
        stats = TraceStats(num_states=self._n)
        tracker = None
        if placement is not None:
            tracker = PlacementTracker(
                placement, stats, self._n, what="strided automaton"
            )
        out = ReportBuffer(self._origin_codes, cap)
        states = self.automaton.states
        for stride_idx, enabled, active in self._sparse_cycles(pairs):
            stats.num_cycles += 1
            stats.enabled_states_sum += int(enabled.size)
            stats.active_states_sum += int(active.size)
            if keep_per_cycle:
                stats.enabled_per_cycle.append(int(enabled.size))
                stats.active_per_cycle.append(int(active.size))
            if tracker is not None:
                tracker.update(enabled, active)

            # (cycle, origin) keys of distinct strided reporters can
            # collide only within one stride cycle (cycle 2k/2k+1 pairs
            # never recur), so per-cycle dedup is exact and the global
            # report set never needs to be held in memory.
            cycle_hits = {
                (
                    2 * stride_idx
                    + (0 if states[int(s)].reports_on_first_half else 1),
                    states[int(s)].report_origin,
                )
                for s in active[self._reporting[active]]
            }
            stats.num_reports += len(cycle_hits)
            if cycle_hits:
                hits = np.array(sorted(cycle_hits), dtype=np.int64)
                out.extend(hits[:, 0], hits[:, 1])
        result = SimulationResult(out.batch(), stats, out.truncated)
        _observe_chunk(
            self._instruments,
            f"{self.backend_name}-strided",
            time.perf_counter() - start_time,
            data,
            result,
        )
        if out.truncated and not explicit:
            handle_truncation(
                self.on_truncation,
                _cap_message(cap, f"StridedEngine({self.automaton.name!r})"),
            )
        return result

    def _sparse_cycles(self, pairs):
        """Yield (stride_idx, enabled, active) index sets per cycle."""
        active = np.empty(0, dtype=np.int64)
        for stride_idx, (first, second) in enumerate(pairs):
            succ = gather_successors(
                self._succ_offsets, self._succ_targets, active
            )
            if stride_idx == 0:
                merged = np.concatenate((self._start_all, self._start_sod, succ))
            else:
                merged = np.concatenate((self._start_all, succ))
            enabled = np.unique(merged)
            match = self._hi_table[first, enabled] & self._lo_table[second, enabled]
            active = enabled[match]
            yield stride_idx, enabled, active


__all__ = [
    "DEFAULT_MAX_KEPT_REPORTS",
    "BatchEngineState",
    "Engine",
    "EngineState",
    "ReportTruncationWarning",
    "SimulationResult",
    "StridedEngine",
    "gather_successors",
]
