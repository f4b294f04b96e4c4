"""Shared contracts and plumbing of the execution backends.

An :class:`ExecutionBackend` turns an automaton into a
:class:`CompiledKernel`; a kernel consumes chunks of an input stream,
advancing an :class:`EngineState` and producing :class:`StepResult`\\ s
(reports + activity statistics).  Everything every kernel agrees on
lives here:

* the resumable :class:`EngineState` (active-state *indices* + stream
  position — the interchange format, so a session snapshot taken under
  one backend resumes under another);
* the :class:`StepResult` / :class:`SimulationResult` contract,
  including the exact ``max_reports`` recording-cap semantics and the
  ``truncated`` flag;
* the vectorized successor gather over an automaton's memoized
  successor CSR (:meth:`~repro.automata.nfa.Automaton.successor_csr`,
  built once per automaton and shared by every kernel compiled from
  it);
* the placement-resolved activity tracking the energy models consume.

:mod:`repro.sim.backends` re-exports the public names.
"""

from __future__ import annotations

import warnings
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np

from repro.automata.nfa import StartKind
from repro.errors import SimulationError
from repro.sim.backends import bitwords
from repro.sim.reports import ReportBatch
from repro.sim.trace import PartitionAssignment, TraceStats
from repro.telemetry.metrics import default_registry

#: default cap on *recorded* (not counted) reports per run/chunk call
DEFAULT_MAX_KEPT_REPORTS = 1_000_000

#: kernel compilations by backend, bumped by each backend's compile()
KERNEL_COMPILES = default_registry().counter(
    "repro_kernel_compiles_total",
    "Kernels compiled, by execution backend",
    ("backend",),
)

_TRUNCATIONS = default_registry().counter(
    "repro_report_truncations_total",
    "Runs that hit the kept-reports cap, by configured policy",
    ("policy",),
)

_EMPTY_IDS = np.empty(0, dtype=np.int64)

#: serialization format version of :meth:`EngineState.to_dict` (and of
#: the batch SoA snapshots derived from it); bump on layout changes so
#: persisted snapshots fail loudly instead of resuming corrupt
STATE_FORMAT_VERSION = 1


class ReportTruncationWarning(UserWarning):
    """A run hit its kept-reports cap and silently stopped recording."""


TRUNCATION_POLICIES = ("warn", "error", "ignore")


def check_truncation_policy(on_truncation: str) -> str:
    """Validate an ``on_truncation`` argument, returning it unchanged."""
    if on_truncation not in TRUNCATION_POLICIES:
        from repro.errors import ConfigError

        raise ConfigError(
            f"unknown truncation policy {on_truncation!r}; "
            f"expected one of {', '.join(TRUNCATION_POLICIES)}"
        )
    return on_truncation


def handle_truncation(
    on_truncation: str, message: str, *, stacklevel: int = 3
) -> None:
    """React to a hit kept-reports cap per the configured policy."""
    _TRUNCATIONS.labels(on_truncation).inc()
    if on_truncation == "error":
        raise SimulationError(message)
    if on_truncation == "warn":
        warnings.warn(message, ReportTruncationWarning, stacklevel=stacklevel)


# -- resumable state and results ------------------------------------------


@dataclass
class EngineState:
    """Resumable execution state of one input stream.

    ``active`` holds the active-state indices after the last consumed
    symbol; ``position`` is the number of stream symbols consumed so
    far.  ``Engine.run_chunk`` (and ``CamaMachine.run_chunk``) advance a
    state in place; use :meth:`copy` to snapshot one — e.g. to fork a
    speculative continuation or checkpoint a session.  Indices (not
    packed bitmaps) are the interchange format: every backend accepts
    and produces them, so states migrate freely between backends.
    """

    active: np.ndarray = field(default_factory=lambda: _EMPTY_IDS)
    position: int = 0

    def copy(self) -> "EngineState":
        return EngineState(active=self.active.copy(), position=self.position)

    @property
    def at_start(self) -> bool:
        """True before any symbol was consumed (START_OF_DATA pending)."""
        return self.position == 0

    def to_dict(self) -> dict:
        """JSON-serializable snapshot, stamped with the format version.

        The persistence form behind checkpoint/resume: chaos-resumable
        streams and batch SoA snapshots both go through it, so the
        layout can only evolve behind a :data:`STATE_FORMAT_VERSION`
        bump (:meth:`from_dict` rejects skew instead of resuming a
        stream from a misread layout).
        """
        return {
            "format_version": STATE_FORMAT_VERSION,
            "active": [int(s) for s in self.active],
            "position": int(self.position),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EngineState":
        """Rebuild a snapshot, refusing version skew."""
        version = data.get("format_version")
        if version != STATE_FORMAT_VERSION:
            raise SimulationError(
                f"engine-state snapshot has format version {version!r}; "
                f"this build reads version {STATE_FORMAT_VERSION} — "
                f"re-snapshot under the current build"
            )
        return cls(
            active=np.asarray(data["active"], dtype=np.int64),
            position=int(data["position"]),
        )


@dataclass
class BatchEngineState:
    """Struct-of-arrays state of many streams sharing one automaton.

    Row ``r`` is one stream: ``active_words[r]`` is its packed active
    bitmap (``num_words(num_states)`` uint64 words) and ``positions[r]``
    its absolute stream position.  This is the software CAMA
    array: one ``step_batch`` call advances every row with 2-D word
    operations, amortizing per-call overhead the way one CAM search
    amortizes over all stored state rows.

    :meth:`attach` / :meth:`detach` convert losslessly to and from the
    per-stream :class:`EngineState` interchange form, so snapshots,
    resume and the sharded dispatcher keep working unchanged — a batch
    is a view a kernel holds for the duration of one step, not a new
    persistence format.
    """

    #: packed active bitmaps, shape ``(rows, num_words(num_states))``
    active_words: np.ndarray
    #: absolute stream positions, shape ``(rows,)``
    positions: np.ndarray
    #: the shared automaton's state count (bit width of each row)
    num_states: int

    @property
    def num_rows(self) -> int:
        return len(self.active_words)

    @classmethod
    def attach(
        cls, states: "list[EngineState]", num_states: int
    ) -> "BatchEngineState":
        """Stack per-stream states into one SoA batch (lossless)."""
        return cls(
            active_words=bitwords.pack_rows(
                [s.active for s in states], num_states
            ),
            positions=np.array([s.position for s in states], dtype=np.int64),
            num_states=num_states,
        )

    def detach(self) -> "list[EngineState]":
        """Fresh per-stream :class:`EngineState`\\ s, one per row."""
        return [
            EngineState(active=active, position=int(position))
            for active, position in zip(
                bitwords.unpack_rows(self.active_words, self.num_states),
                self.positions,
            )
        ]

    def detach_into(self, states: "list[EngineState]") -> None:
        """Write the rows back into existing states, in place.

        The round-trip half of :meth:`attach`: callers that own
        long-lived :class:`EngineState` objects (sessions, snapshots)
        get them advanced without identity changes.
        """
        if len(states) != self.num_rows:
            raise SimulationError(
                f"batch has {self.num_rows} rows, cannot detach into "
                f"{len(states)} states"
            )
        rows = bitwords.unpack_rows(self.active_words, self.num_states)
        for state, active, position in zip(
            states, rows, self.positions.tolist()
        ):
            state.active = active
            state.position = position


def normalize_batch_caps(max_reports, num_rows: int) -> list[int]:
    """Per-row kept-reports budgets from an int-or-sequence argument."""
    if isinstance(max_reports, int):
        caps = [max_reports] * num_rows
    else:
        caps = [int(cap) for cap in max_reports]
        if len(caps) != num_rows:
            raise SimulationError(
                f"got {len(caps)} report budgets for {num_rows} batch rows"
            )
    if caps and min(caps) < 0:
        raise SimulationError("report budgets must be >= 0")
    return caps


@dataclass
class SimulationResult:
    """Recorded reports plus activity statistics of one run (or chunk).

    ``batch`` holds the recorded reports in columnar form; ``reports``
    is the same batch read as a ``Sequence[Report]``.  ``truncated`` is
    True when at least one report was *counted* but not *recorded*
    because the ``max_reports`` cap was reached; the engine facade turns
    that into a :class:`ReportTruncationWarning` or
    :class:`~repro.errors.SimulationError` when the cap was implicit.
    """

    batch: ReportBatch
    stats: TraceStats
    truncated: bool = False

    @property
    def reports(self) -> ReportBatch:
        return self.batch

    @property
    def num_reports(self) -> int:
        return self.stats.num_reports


#: what a kernel's ``run_chunk`` returns — one chunk's worth of results
StepResult = SimulationResult


# -- successor gathering --------------------------------------------------


def gather_successors(
    offsets: np.ndarray, targets: np.ndarray, active: np.ndarray
) -> np.ndarray:
    """Successors of every state in ``active``, gathered without a
    per-state Python loop (and without concatenating per-state slices).

    Builds one flat index vector into ``targets`` by expanding each
    active state's CSR span with ``np.repeat`` arithmetic.
    """
    if not active.size:
        return _EMPTY_IDS
    starts = offsets[active]
    counts = offsets[active + 1] - starts
    total = int(counts.sum())
    if not total:
        return _EMPTY_IDS
    # index = start(s) + (position within s's span), vectorized:
    # repeat each span's start, subtract the exclusive running total so
    # np.arange restarts at 0 at every span boundary.
    cum = np.cumsum(counts)
    index = np.arange(total, dtype=np.int64) + np.repeat(starts - (cum - counts), counts)
    return targets[index]


# -- per-automaton structure shared by every kernel -----------------------


def start_ids(automaton) -> tuple[np.ndarray, np.ndarray]:
    """(all-input ids, start-of-data ids) of any homogeneous automaton."""
    start_all = np.fromiter(
        (s.ste_id for s in automaton.states if s.start is StartKind.ALL_INPUT),
        dtype=np.int64,
    )
    start_sod = np.fromiter(
        (s.ste_id for s in automaton.states if s.start is StartKind.START_OF_DATA),
        dtype=np.int64,
    )
    return start_all, start_sod


def reporting_mask(automaton) -> np.ndarray:
    """Boolean vector marking the reporting states."""
    mask = np.zeros(len(automaton), dtype=bool)
    for ste in automaton.states:
        if ste.reporting:
            mask[ste.ste_id] = True
    return mask


def match_table(automaton) -> np.ndarray:
    """``table[symbol]`` is the boolean vector of states accepting it.

    This is exactly the bit-vector representation of CA/Impala; the
    sparse kernel indexes it directly and the bit-parallel kernel packs
    its rows into uint64 words.
    """
    table = np.zeros((256, len(automaton)), dtype=bool)
    for ste in automaton.states:
        for symbol in ste.symbol_class:
            table[symbol, ste.ste_id] = True
    return table


@dataclass
class KernelTables:
    """Precomputed per-automaton structures a kernel can be built from.

    This is the interchange form behind serialized compiled artifacts
    (:mod:`repro.compile.artifact`): every array a kernel constructor
    would otherwise derive from the automaton by Python loops, in a
    backend-neutral layout (the match table is packed uint64 words —
    the bit-parallel kernel uses it directly, the sparse kernel unpacks
    it in one vectorized ``np.unpackbits``).  Building a kernel from
    tables skips ``automaton.validate()`` too: validation happened at
    compile time and the tables are trusted compile output.
    """

    #: packed per-symbol acceptance masks, shape (256, num_words(n))
    match_words: np.ndarray
    #: successor CSR
    succ_offsets: np.ndarray
    succ_targets: np.ndarray
    #: start-state ids by kind
    start_all: np.ndarray
    start_sod: np.ndarray
    #: boolean reporting-state vector, shape (n,)
    reporting: np.ndarray
    #: per-state report codes (None for non-reporting states)
    report_codes: list
    #: optional packed per-state successor rows, shape (n, num_words(n))
    #: — exported by the packed-bitmap kernels so artifact warm loads
    #: skip the per-state Python derivation loop; None when the
    #: producing kernel never built them (e.g. sparse)
    succ_words: "np.ndarray | None" = None

    @classmethod
    def from_automaton(cls, automaton) -> "KernelTables":
        offsets, targets = automaton.successor_csr()
        start_all, start_sod = start_ids(automaton)
        return cls(
            match_words=np.stack(
                [bitwords.pack_bool(row) for row in match_table(automaton)]
            ),
            succ_offsets=offsets,
            succ_targets=targets,
            start_all=start_all,
            start_sod=start_sod,
            reporting=reporting_mask(automaton),
            report_codes=[s.report_code for s in automaton.states],
        )

    def match_bool(self, n: int) -> np.ndarray:
        """The (256, n) boolean match table, unpacked from the words."""
        bits = np.unpackbits(
            self.match_words.view(np.uint8), axis=1, bitorder="little"
        )
        return bits[:, :n].astype(bool)

    @classmethod
    def concat(
        cls, tables: "list[KernelTables]", sizes: list[int]
    ) -> "KernelTables":
        """Block-diagonal merge of per-component tables.

        Transitions never cross connected components, so the tables of a
        merged automaton are exactly the block-diagonal composition of
        the per-component tables with state ids shifted by the running
        offset.  This is what lets the incremental compiler rebuild a
        shard engine from cached component artifacts without re-deriving
        anything from the merged automaton.

        ``sizes`` gives each block's state count (the packed-word arrays
        alone do not reveal it).  ``succ_words`` is carried over only
        when every block has it; a single sparse-produced block degrades
        the merged tables to CSR-only, which every kernel can rebuild
        from.
        """
        if not tables or len(tables) != len(sizes):
            raise SimulationError("concat needs one size per table block")
        if len(tables) == 1:
            return tables[0]
        n = sum(sizes)
        words = bitwords.num_words(n)
        match_words = np.zeros((256, words), dtype=np.uint64)
        offsets = np.zeros(n + 1, dtype=np.int64)
        targets_parts: list[np.ndarray] = []
        start_all_parts: list[np.ndarray] = []
        start_sod_parts: list[np.ndarray] = []
        reporting = np.zeros(n, dtype=bool)
        report_codes: list = []
        have_succ_words = all(t.succ_words is not None for t in tables)
        succ_words = (
            np.zeros((n, words), dtype=np.uint64) if have_succ_words else None
        )
        pos = 0
        nnz = 0
        for block, size in zip(tables, sizes):
            block.check(size)
            bitwords.or_shifted(match_words, block.match_words, size, pos)
            offsets[pos + 1 : pos + size + 1] = block.succ_offsets[1:] + nnz
            targets_parts.append(block.succ_targets.astype(np.int64) + pos)
            start_all_parts.append(block.start_all.astype(np.int64) + pos)
            start_sod_parts.append(block.start_sod.astype(np.int64) + pos)
            reporting[pos : pos + size] = block.reporting
            report_codes.extend(block.report_codes)
            if succ_words is not None:
                bitwords.or_shifted(
                    succ_words[pos : pos + size], block.succ_words, size, pos
                )
            nnz += int(block.succ_offsets[-1])
            pos += size
        return cls(
            match_words=match_words,
            succ_offsets=offsets,
            succ_targets=(
                np.concatenate(targets_parts)
                if targets_parts
                else np.empty(0, dtype=np.int64)
            ),
            start_all=np.concatenate(start_all_parts),
            start_sod=np.concatenate(start_sod_parts),
            reporting=reporting,
            report_codes=report_codes,
            succ_words=succ_words,
        )

    def check(self, n: int) -> "KernelTables":
        """Cheap structural consistency check against a state count."""
        if (
            self.match_words.shape != (256, bitwords.num_words(n))
            or self.succ_offsets.shape != (n + 1,)
            or self.reporting.shape != (n,)
            or len(self.report_codes) != n
            or (
                self.succ_words is not None
                and self.succ_words.shape != (n, bitwords.num_words(n))
            )
        ):
            raise SimulationError(
                f"kernel tables do not match an automaton of {n} states"
            )
        return self


class PlacementTracker:
    """Accumulates partition-resolved activity into a :class:`TraceStats`.

    One tracker serves both the sparse and bit-parallel kernels (they
    hand it enabled/active *index* arrays each cycle) so the energy
    models see identical statistics regardless of backend.  Pass the
    successor CSR to also track cross-partition (global-switch)
    traffic; the strided engine omits it.
    """

    def __init__(
        self,
        placement: PartitionAssignment,
        stats: TraceStats,
        n: int,
        succ: tuple[np.ndarray, np.ndarray] | None = None,
        what: str = "automaton",
    ) -> None:
        if len(placement.partition_of) != n:
            raise SimulationError(f"placement size does not match {what} size")
        self.part = np.asarray(placement.partition_of, dtype=np.int64)
        self.weights = (
            np.asarray(placement.weights, dtype=np.float64)
            if placement.weights is not None
            else None
        )
        self.stats = stats
        stats.num_partitions = placement.num_partitions
        stats.partition_enabled_cycles = np.zeros(
            placement.num_partitions, dtype=np.int64
        )
        stats.partition_active_cycles = np.zeros(
            placement.num_partitions, dtype=np.int64
        )
        stats.partition_enabled_states_sum = np.zeros(
            placement.num_partitions, dtype=np.int64
        )
        stats.partition_enabled_weight_sum = np.zeros(
            placement.num_partitions, dtype=np.float64
        )
        stats.partition_active_states_sum = np.zeros(
            placement.num_partitions, dtype=np.int64
        )
        self.cross_any: np.ndarray | None = None
        if succ is not None:
            # cross_any[s] is True when s has a successor in another partition
            offsets, targets = succ
            cross_any = np.zeros(n, dtype=bool)
            for s in range(n):
                out = targets[offsets[s] : offsets[s + 1]]
                if out.size and np.any(self.part[out] != self.part[s]):
                    cross_any[s] = True
            self.cross_any = cross_any

    def update(self, enabled: np.ndarray, active: np.ndarray) -> None:
        """Fold one cycle's enabled/active index sets into the stats."""
        stats = self.stats
        if enabled.size:
            counts = np.bincount(
                self.part[enabled], minlength=stats.num_partitions
            )
            stats.partition_enabled_cycles += counts > 0
            stats.partition_enabled_states_sum += counts
            if self.weights is None:
                stats.partition_enabled_weight_sum += counts
            else:
                stats.partition_enabled_weight_sum += np.bincount(
                    self.part[enabled],
                    weights=self.weights[enabled],
                    minlength=stats.num_partitions,
                )
        if active.size:
            acounts = np.bincount(
                self.part[active], minlength=stats.num_partitions
            )
            stats.partition_active_states_sum += acounts
            stats.partition_active_cycles += acounts > 0
            if self.cross_any is not None:
                crossing = active[self.cross_any[active]]
                stats.global_crossing_states_sum += int(crossing.size)
                if crossing.size:
                    stats.global_source_partitions_sum += int(
                        np.unique(self.part[crossing]).size
                    )


# -- the backend contract -------------------------------------------------


class CompiledKernel(ABC):
    """One automaton compiled for execution by a specific backend.

    Kernels are stateless with respect to streams: all stream state
    lives in the :class:`EngineState` the caller threads through
    :meth:`run_chunk`, so one kernel serves any number of concurrent
    sessions.
    """

    #: resolved backend name ("sparse" / "bitparallel" / "native"),
    #: set per kernel
    name: str

    def __init__(self, automaton) -> None:
        self.automaton = automaton

    def initial_state(self) -> EngineState:
        """A fresh :class:`EngineState` at stream position 0."""
        return EngineState()

    @abstractmethod
    def run_chunk(
        self,
        data: bytes,
        state: EngineState,
        *,
        placement: PartitionAssignment | None = None,
        keep_per_cycle: bool = False,
        max_reports: int = DEFAULT_MAX_KEPT_REPORTS,
    ) -> StepResult:
        """Consume one chunk of a stream, advancing ``state`` in place.

        ``START_OF_DATA`` states are enabled only when ``state`` is at
        stream position 0 and report cycles are absolute stream offsets
        — chunked execution is exactly equivalent to one-shot execution
        for every backend (the cross-backend property tests assert
        this).
        """

    def run(
        self,
        data: bytes,
        *,
        placement: PartitionAssignment | None = None,
        keep_per_cycle: bool = False,
        max_reports: int = DEFAULT_MAX_KEPT_REPORTS,
    ) -> StepResult:
        """One-shot execution: :meth:`run_chunk` from a fresh state."""
        return self.run_chunk(
            data,
            self.initial_state(),
            placement=placement,
            keep_per_cycle=keep_per_cycle,
            max_reports=max_reports,
        )

    def initial_batch(self, num_rows: int) -> BatchEngineState:
        """A fresh :class:`BatchEngineState` of ``num_rows`` streams."""
        return BatchEngineState.attach(
            [self.initial_state() for _ in range(num_rows)],
            len(self.automaton),
        )

    def step_batch(
        self,
        chunks: "list[bytes]",
        batch: BatchEngineState,
        *,
        max_reports=DEFAULT_MAX_KEPT_REPORTS,
    ) -> "list[StepResult]":
        """Consume one chunk per stream row, advancing ``batch`` in place.

        Row ``r`` of ``batch`` consumes ``chunks[r]`` with exactly the
        semantics of :meth:`run_chunk` on that row's detached
        :class:`EngineState` — same reports (absolute cycles, tagged to
        their row by list position), same stats, same final state; the
        oracle-differential batch property tests assert byte equality.
        ``max_reports`` is one shared cap or a per-row budget sequence.

        This base implementation is the correct per-row loop (the
        sparse backend's batch path); vectorized kernels override it
        with a single 2-D pass over all rows.
        """
        if len(chunks) != batch.num_rows:
            raise SimulationError(
                f"got {len(chunks)} chunks for {batch.num_rows} batch rows"
            )
        caps = normalize_batch_caps(max_reports, batch.num_rows)
        states = batch.detach()
        results = [
            self.run_chunk(bytes(chunk), state, max_reports=cap)
            for chunk, state, cap in zip(chunks, states, caps)
        ]
        batch.active_words = bitwords.pack_rows(
            [s.active for s in states], batch.num_states
        )
        batch.positions[:] = [state.position for state in states]
        return results


@runtime_checkable
class ExecutionBackend(Protocol):
    """Compiles automata into kernels; the unit of execution pluggability.

    Implementations are stateless and cheap to construct; the expensive
    artifact is the :class:`CompiledKernel`, which the service layer
    caches by ruleset fingerprint.
    """

    #: registry name ("sparse", "bitparallel", "auto", ...)
    name: str

    def compile(self, automaton) -> CompiledKernel:
        """Compile ``automaton`` into an executable kernel."""
        ...
