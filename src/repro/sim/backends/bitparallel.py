"""The vectorized bit-parallel backend: packed uint64 state bitmaps.

The state set is packed into ``ceil(n / 64)`` uint64 words and each
cycle becomes a handful of word-wide numpy operations:

    enabled_words = OR of successor rows of the active states | starts
    active_words  = enabled_words & match_words[symbol]

with the per-symbol match masks and per-state successor rows
precomputed at compile time — no concatenation, no sort, no
``np.unique``.  Per-cycle cost is ``O(active_states x words + n / 8)``
regardless of transition fan-out, which beats the sparse kernel as soon
as a meaningful fraction of states is active (dense workloads: many
all-input starts, wide character classes, adversarial inputs).  The
whole chunk's match masks are gathered in one fancy-index up front, so
the inner loop touches numpy only through AND/OR/popcount.

Semantics are bit-for-bit those of the sparse kernel (the cross-backend
property tests enforce identical reports, stats and final states);
:class:`EngineState` stays in index form, converted at chunk
boundaries, so streams migrate freely between backends.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.sim.backends import bitwords
from repro.sim.backends.base import (
    DEFAULT_MAX_KEPT_REPORTS,
    BatchEngineState,
    CompiledKernel,
    EngineState,
    KernelTables,
    PlacementTracker,
    StepResult,
    match_table,
    normalize_batch_caps,
    reporting_mask,
    start_ids,
)
from repro.sim.reports import ReportBuffer
from repro.sim.trace import PartitionAssignment, TraceStats

#: beyond this many states the per-state successor rows (n^2/8 bytes)
#: stop being worth their memory; the auto policy falls back to sparse
MAX_BITPARALLEL_STATES = 1 << 14

#: cap (in uint64 words, ~8 MB) on the pre-gathered per-symbol match
#: masks, so a large chunk against a wide automaton doesn't allocate
#: chunk_len x n/8 bytes at once
_MATCH_GATHER_WORDS = 1 << 20


class BitParallelKernel(CompiledKernel):
    """Compiled bit-parallel simulator for one :class:`Automaton`."""

    name = "bitparallel"

    def __init__(self, automaton, *, tables: KernelTables | None = None) -> None:
        if tables is None:
            automaton.validate()
        super().__init__(automaton)
        n = len(automaton)
        if n > MAX_BITPARALLEL_STATES:
            # fail fast: beyond this the successor matrix alone is
            # n^2/8 bytes, built by a per-state loop — an explicit
            # backend choice should error clearly, not OOM
            raise SimulationError(
                f"automaton has {n} states, above the bit-parallel "
                f"limit of {MAX_BITPARALLEL_STATES} (the packed "
                f"successor matrix would need ~{n * n // 8 / 1e6:.0f} "
                f"MB); use the 'sparse' or 'auto' backend"
            )
        self._n = n
        self._num_words = bitwords.num_words(n)
        if tables is None:
            # match_words[symbol] is the packed vector of states accepting it
            self._match_words = np.stack(
                [bitwords.pack_bool(row) for row in match_table(automaton)]
            )
            self._succ_offsets, self._succ_targets = automaton.successor_csr()
            start_all, start_sod = start_ids(automaton)
            self._reporting = reporting_mask(automaton)
            self._report_codes = [s.report_code for s in automaton.states]
        else:
            # prebuilt tables (a loaded artifact): the packed match
            # words are this kernel's native layout, used as-is
            tables.check(n)
            self._match_words = tables.match_words
            self._succ_offsets = tables.succ_offsets
            self._succ_targets = tables.succ_targets
            start_all, start_sod = tables.start_all, tables.start_sod
            self._reporting = tables.reporting
            self._report_codes = list(tables.report_codes)
        if tables is not None and tables.succ_words is not None:
            # artifact warm path: the packed successor matrix was
            # exported at compile time, skip the per-state build loop
            self._succ_rows = np.ascontiguousarray(
                tables.succ_words, dtype=np.uint64
            )
        else:
            self._succ_rows = bitwords.successor_rows(
                self._succ_offsets, self._succ_targets, n
            )
        self._start_all_words = bitwords.pack_indices(start_all, n)
        self._start_first_words = self._start_all_words | bitwords.pack_indices(
            start_sod, n
        )
        self._start_all = start_all
        self._start_sod = start_sod
        self._reporting_words = bitwords.pack_bool(self._reporting)

    def export_tables(self) -> KernelTables:
        """This kernel's structures in the serializable interchange form."""
        return KernelTables(
            match_words=self._match_words,
            succ_offsets=self._succ_offsets,
            succ_targets=self._succ_targets,
            start_all=self._start_all,
            start_sod=self._start_sod,
            reporting=self._reporting,
            report_codes=list(self._report_codes),
            succ_words=self._succ_rows,
        )

    # -- single-step API (parity with the sparse kernel) -----------------
    def enabled_at(self, active: np.ndarray, first_cycle: bool) -> np.ndarray:
        """Indices of states enabled next cycle, given active indices."""
        words = np.empty(self._num_words, dtype=np.uint64)
        bitwords.or_reduce_rows(
            self._succ_rows, np.asarray(active, dtype=np.int64), words
        )
        words |= self._start_first_words if first_cycle else self._start_all_words
        return bitwords.unpack_indices(words)

    def match(self, enabled: np.ndarray, symbol: int) -> np.ndarray:
        """Subset of ``enabled`` whose class contains ``symbol``."""
        if not 0 <= symbol < 256:
            raise SimulationError(f"input symbol out of range: {symbol}")
        if not len(enabled):
            return np.asarray(enabled, dtype=np.int64)
        enabled = np.asarray(enabled, dtype=np.int64)
        words = self._match_words[symbol]
        hit = (words[enabled >> 6] >> (enabled & 63).astype(np.uint64)) & np.uint64(1)
        return enabled[hit.astype(bool)]

    def run_chunk(
        self,
        data: bytes,
        state: EngineState,
        *,
        placement: PartitionAssignment | None = None,
        keep_per_cycle: bool = False,
        max_reports: int = DEFAULT_MAX_KEPT_REPORTS,
    ) -> StepResult:
        stats = TraceStats(num_states=self._n)
        tracker = None
        if placement is not None:
            tracker = PlacementTracker(
                placement,
                stats,
                self._n,
                succ=(self._succ_offsets, self._succ_targets),
            )

        out = ReportBuffer(self._report_codes, max_reports)
        base = state.position
        active_ids = np.asarray(state.active, dtype=np.int64)
        if len(data):
            symbols = np.frombuffer(data, dtype=np.uint8)
            # pre-gather the packed match mask of every symbol, in
            # bounded blocks: row i of a block is the mask of that
            # block's i-th symbol
            block = max(1, _MATCH_GATHER_WORDS // self._num_words)
            block_start = 0
            chunk_match = self._match_words[symbols[:block]]
            enabled_words = np.empty(self._num_words, dtype=np.uint64)
            rows = self._succ_rows
            for offset in range(len(data)):
                if offset - block_start >= block:
                    block_start = offset
                    chunk_match = self._match_words[
                        symbols[offset : offset + block]
                    ]
                cycle = base + offset
                bitwords.or_reduce_rows(rows, active_ids, enabled_words)
                enabled_words |= (
                    self._start_first_words if cycle == 0 else self._start_all_words
                )
                active_words = enabled_words & chunk_match[offset - block_start]
                active_ids = bitwords.unpack_indices(active_words)

                stats.num_cycles += 1
                enabled_count = bitwords.popcount(enabled_words)
                stats.enabled_states_sum += enabled_count
                stats.active_states_sum += int(active_ids.size)
                if keep_per_cycle:
                    stats.enabled_per_cycle.append(enabled_count)
                    stats.active_per_cycle.append(int(active_ids.size))
                if tracker is not None:
                    tracker.update(
                        bitwords.unpack_indices(enabled_words), active_ids
                    )

                if active_words.any() and (
                    active_words & self._reporting_words
                ).any():
                    firing = active_ids[self._reporting[active_ids]]
                    stats.num_reports += int(firing.size)
                    out.append(cycle, firing)
        state.active = active_ids
        state.position = base + len(data)
        return StepResult(out.batch(), stats, out.truncated)

    # -- batched multi-stream execution ----------------------------------
    def step_batch(
        self,
        chunks: list[bytes],
        batch: BatchEngineState,
        *,
        max_reports=DEFAULT_MAX_KEPT_REPORTS,
    ) -> list[StepResult]:
        """Advance every stream row one chunk in a single 2-D pass.

        The software CAMA array step: per cycle, all rows' enable/match
        happen as whole-matrix uint64 operations —

        * the (row, state) pairs of all active bits come from one
          ``np.nonzero`` over the unpacked matrix;
        * successor rows are OR-folded per stream row with one
          ``np.bitwise_or.reduceat`` segment reduction;
        * the match step is one fancy-index into the per-symbol masks
          and one matrix AND —

        so per-cycle Python overhead is constant in the number of rows,
        instead of the per-stream loop's ``O(rows)`` interpreter work.
        Rows are processed in descending chunk-length order so the live
        rows of any cycle form a contiguous matrix prefix; shorter rows
        simply stop being touched once their chunk is consumed.
        Semantics per row are exactly :meth:`run_chunk`'s.
        """
        num_rows = batch.num_rows
        if num_rows == 1:
            # a lone row (every solo scan and feed): the 1-D loop costs
            # about half the 2-D pass, whose per-cycle numpy calls only
            # pay off across rows
            return super().step_batch(chunks, batch, max_reports=max_reports)
        if len(chunks) != num_rows:
            raise SimulationError(
                f"got {len(chunks)} chunks for {num_rows} batch rows"
            )
        caps = normalize_batch_caps(max_reports, num_rows)
        lens = np.fromiter(
            (len(c) for c in chunks), dtype=np.int64, count=num_rows
        )
        # live-prefix ordering: longest chunks first (stable, so equal
        # lengths keep their relative order)
        order = np.argsort(-lens, kind="stable")
        inverse = np.empty(num_rows, dtype=np.int64)
        inverse[order] = np.arange(num_rows, dtype=np.int64)
        sorted_lens = lens[order]
        longest = int(sorted_lens[0]) if num_rows else 0

        words = batch.active_words[order]  # fancy index: a fresh matrix
        positions = batch.positions[order].copy()

        symbols = np.zeros((num_rows, longest), dtype=np.uint8)
        for i, row in enumerate(order):
            chunk = chunks[int(row)]
            if len(chunk):
                symbols[i, : len(chunk)] = np.frombuffer(chunk, dtype=np.uint8)

        n, num_words = self._n, self._num_words
        succ_rows = self._succ_rows
        match_words = self._match_words
        reporting = self._reporting
        # rows live at cycle t are those with chunk length >= t + 1
        live_counts = np.searchsorted(
            -sorted_lens, -(np.arange(longest, dtype=np.int64) + 1), side="right"
        )

        per_row = [
            ReportBuffer(self._report_codes, caps[int(row)]) for row in order
        ]
        enabled_sums = np.zeros(num_rows, dtype=np.int64)
        active_sums = np.zeros(num_rows, dtype=np.int64)
        report_counts = np.zeros(num_rows, dtype=np.int64)

        # the active set as (row, state) pairs, carried across cycles so
        # each cycle expands only its *new* active matrix (cost follows
        # the set words, not rows x states)
        row_idx, state_idx = bitwords.expand_rows(words)
        for t in range(longest):
            live = int(live_counts[t])
            if row_idx.size and int(row_idx[-1]) >= live:
                # rows past the live prefix just finished their chunks;
                # their pairs drop out, their words stay frozen
                keep = row_idx < live
                row_idx, state_idx = row_idx[keep], state_idx[keep]
            enabled = np.zeros((live, num_words), dtype=np.uint64)
            if state_idx.size:
                counts = np.bincount(row_idx, minlength=live)
                occupied = counts > 0
                starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
                enabled[occupied] = np.bitwise_or.reduceat(
                    succ_rows[state_idx], starts[occupied], axis=0
                )
            enabled |= self._start_all_words
            if t == 0:
                fresh = positions[:live] == 0
                if fresh.any():
                    enabled[fresh] |= self._start_first_words
            active = enabled & match_words[symbols[:live, t]]
            words[:live] = active
            row_idx, state_idx = bitwords.expand_rows(active)

            enabled_sums[:live] += bitwords.popcount_rows(enabled)
            if row_idx.size:
                active_sums[:live] += np.bincount(row_idx, minlength=live)
                firing_sel = reporting[state_idx]
                if firing_sel.any():
                    fire_rows = row_idx[firing_sel]
                    fire_states = state_idx[firing_sel]
                    # pairs are row-major, so per-row groups are slices
                    bounds = np.nonzero(np.diff(fire_rows))[0] + 1
                    group_rows = fire_rows[
                        np.concatenate(([0], bounds))
                    ]
                    for i, firing in zip(
                        group_rows, np.split(fire_states, bounds)
                    ):
                        i = int(i)
                        report_counts[i] += firing.size
                        per_row[i].append(int(positions[i]) + t, firing)

        positions += sorted_lens
        batch.active_words = words[inverse]
        batch.positions = positions[inverse]

        results = []
        for row in range(num_rows):
            i = int(inverse[row])
            stats = TraceStats(num_states=n)
            stats.num_cycles = int(lens[row])
            stats.enabled_states_sum = int(enabled_sums[i])
            stats.active_states_sum = int(active_sums[i])
            stats.num_reports = int(report_counts[i])
            results.append(
                StepResult(per_row[i].batch(), stats, per_row[i].truncated)
            )
        return results


class BitParallelBackend:
    """Backend producing :class:`BitParallelKernel`\\ s."""

    name = "bitparallel"

    def compile(self, automaton) -> BitParallelKernel:
        from repro.sim.backends.base import KERNEL_COMPILES

        KERNEL_COMPILES.labels(self.name).inc()
        return BitParallelKernel(automaton)

    def from_tables(
        self, automaton, tables: KernelTables
    ) -> BitParallelKernel:
        """Rebuild a kernel from prebuilt (artifact) tables."""
        return BitParallelKernel(automaton, tables=tables)
