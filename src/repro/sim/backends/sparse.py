"""The sparse active-set backend (the reference kernel).

Propagates *active-state index sets* through the successor CSR: per
cycle, gather the successors of the active set, merge the start states,
``np.unique`` the result and filter it through the per-symbol match
table.  Cost scales with the number of active states and their out
degree.  It is the kernel every other path is checked against, the
only one without a state-count limit, and what runs wherever the
compiled :mod:`repro.sim.backends.native` loop cannot: on hosts
without the library, and for the native kernel's placement and
per-cycle runs.

Batched multi-stream execution (``step_batch``) uses the base class's
per-row loop fallback: the sparse kernel has no 2-D vectorized form,
but the batch API stays correct and backend-portable (the
oracle-differential batch tests run it against the same oracle).
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.sim.backends.base import (
    DEFAULT_MAX_KEPT_REPORTS,
    CompiledKernel,
    EngineState,
    KernelTables,
    PlacementTracker,
    StepResult,
    gather_successors,
    match_table,
    reporting_mask,
    start_ids,
)
from repro.sim.reports import ReportBuffer
from repro.sim.trace import PartitionAssignment, TraceStats


class SparseKernel(CompiledKernel):
    """Compiled sparse simulator for one :class:`Automaton`."""

    name = "sparse"

    def __init__(self, automaton, *, tables: KernelTables | None = None) -> None:
        if tables is None:
            automaton.validate()
        super().__init__(automaton)
        n = len(automaton)
        self._n = n
        if tables is None:
            self._match_table = match_table(automaton)
            self._succ_offsets, self._succ_targets = automaton.successor_csr()
            self._start_all, self._start_sod = start_ids(automaton)
            self._reporting = reporting_mask(automaton)
            self._report_codes = [s.report_code for s in automaton.states]
        else:
            # prebuilt tables (a loaded artifact): skip every derivation
            tables.check(n)
            self._match_table = tables.match_bool(n)
            self._succ_offsets = tables.succ_offsets
            self._succ_targets = tables.succ_targets
            self._start_all = tables.start_all
            self._start_sod = tables.start_sod
            self._reporting = tables.reporting
            self._report_codes = list(tables.report_codes)

    def export_tables(self) -> KernelTables:
        """This kernel's structures in the serializable interchange form."""
        from repro.sim.backends import bitwords

        return KernelTables(
            match_words=bitwords.pack_bool_rows(self._match_table),
            succ_offsets=self._succ_offsets,
            succ_targets=self._succ_targets,
            start_all=self._start_all,
            start_sod=self._start_sod,
            reporting=self._reporting,
            report_codes=list(self._report_codes),
        )

    # -- single-step API (used by the CAMA machine for lock-step checks) --
    def enabled_at(self, active: np.ndarray, first_cycle: bool) -> np.ndarray:
        """Indices of states enabled next cycle, given active indices."""
        succ = gather_successors(self._succ_offsets, self._succ_targets, active)
        if first_cycle:
            merged = np.concatenate((self._start_all, self._start_sod, succ))
        else:
            merged = np.concatenate((self._start_all, succ))
        return np.unique(merged)

    def match(self, enabled: np.ndarray, symbol: int) -> np.ndarray:
        """Subset of ``enabled`` whose class contains ``symbol``."""
        if not 0 <= symbol < 256:
            raise SimulationError(f"input symbol out of range: {symbol}")
        return enabled[self._match_table[symbol, enabled]]

    # -- resumable execution ---------------------------------------------
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
        active = state.active
        for offset, symbol in enumerate(data):
            cycle = base + offset
            enabled = self.enabled_at(active, first_cycle=cycle == 0)
            active = self.match(enabled, symbol)

            stats.num_cycles += 1
            stats.enabled_states_sum += int(enabled.size)
            stats.active_states_sum += int(active.size)
            if keep_per_cycle:
                stats.enabled_per_cycle.append(int(enabled.size))
                stats.active_per_cycle.append(int(active.size))
            if tracker is not None:
                tracker.update(enabled, active)

            firing = active[self._reporting[active]]
            stats.num_reports += int(firing.size)
            if firing.size:
                out.append(cycle, firing)
        state.active = active
        state.position = base + len(data)
        return StepResult(out.batch(), stats, out.truncated)


class SparseBackend:
    """Backend producing :class:`SparseKernel`\\ s."""

    name = "sparse"

    def compile(self, automaton) -> SparseKernel:
        from repro.sim.backends.base import KERNEL_COMPILES

        KERNEL_COMPILES.labels(self.name).inc()
        return SparseKernel(automaton)

    def from_tables(self, automaton, tables: KernelTables) -> SparseKernel:
        """Rebuild a kernel from prebuilt (artifact) tables."""
        return SparseKernel(automaton, tables=tables)
