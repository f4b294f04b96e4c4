"""Functional execution of a compiled CAMA program (§VI.A-B).

The machine executes the *hardware* path: encode the input symbol,
search the CAM arrays (with CAMA-E's selective precharge masks), OR
multi-entry states, apply row inverters, and route the active vector
through the local/global switches to form the next enable vector.  Its
observable behaviour must equal the reference simulator's on every
input — the integration tests assert lock-step equality, which is the
end-to-end proof that encoding + compression + negation + placement
preserve the automaton's language.

CAMA-E (non-pipelined) and CAMA-T (pipelined) produce identical
reports; they differ in timing and energy, which the architecture
models account for.  The machine records CAMA-specific activity (CAM
units enabled, entries precharged, switch rows active, global events)
that feeds the energy model directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.cam import CamArray
from repro.core.compiler import CamaProgram
from repro.errors import SimulationError
from repro.sim.backends.base import (
    DEFAULT_MAX_KEPT_REPORTS,
    EngineState,
    gather_successors,
    reporting_mask,
    start_ids,
)
from repro.sim.reports import ReportBatch, ReportBuffer


@dataclass
class CamaActivity:
    """Per-run activity counters of the CAMA fabric."""

    num_cycles: int = 0
    #: sum over cycles of CAM units with >= 1 enabled entry
    cam_units_enabled_sum: int = 0
    #: sum over cycles of precharged CAM entries (CAMA-E energy driver)
    entries_enabled_sum: int = 0
    #: sum over cycles of local switches with >= 1 active row
    switches_active_sum: int = 0
    #: sum over cycles of active switch rows
    switch_rows_active_sum: int = 0
    #: sum over cycles of global-switch accesses (source units)
    global_accesses_sum: int = 0

    def avg_entries_enabled(self) -> float:
        return self.entries_enabled_sum / self.num_cycles if self.num_cycles else 0.0


@dataclass
class CamaRunResult:
    reports: ReportBatch
    activity: CamaActivity

    @property
    def num_reports(self) -> int:
        return len(self.reports)


@dataclass
class _CamUnit:
    """One CAM access unit: a sub-array (rcb16) or a whole-tile CAM."""

    array: CamArray
    #: state ids owning each column (parallel to array columns)
    state_of_column: list[int] = field(default_factory=list)


class CamaMachine:
    """Executes a CamaProgram input-symbol by input-symbol."""

    def __init__(self, program: CamaProgram, variant: str = "E") -> None:
        if variant not in ("E", "T"):
            raise SimulationError(f"unknown CAMA variant: {variant!r}")
        self.program = program
        self.variant = variant
        automaton = program.automaton
        n = len(automaton)
        placement = program.placement(unit="cam")
        self._partition_of = placement.partition_of
        self._num_units = placement.num_partitions

        # Build one CamArray per CAM unit; rows = code length (<= 32).
        rows = program.code_length
        self._units = [
            _CamUnit(array=CamArray(rows=rows, columns=256))
            for _ in range(self._num_units)
        ]
        self._column_of_state: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for state in range(n):
            unit = self._units[self._partition_of[state]]
            encoding = program.state_encodings[state]
            for pattern in encoding.patterns:
                column = unit.array.program(
                    pattern, state, invert=encoding.negated
                )
                unit.state_of_column.append(state)
                self._column_of_state[state].append(
                    (self._partition_of[state], column)
                )

        # Owner lookup arrays per unit for vectorized match-to-state OR.
        self._unit_owner = [
            unit.array.owners() for unit in self._units
        ]

        # Transition structures (the switch network's routing function),
        # shared with the execution backends via the automaton's CSR
        # memo — a machine compiled after an engine (or vice versa)
        # reuses the same arrays.
        self._succ_offsets, self._succ_targets = automaton.successor_csr()
        self._start_all, self._start_sod = start_ids(automaton)
        self._reporting = reporting_mask(automaton)
        self._report_codes = [s.report_code for s in automaton.states]
        self._switch_of = program.mapping.state_switch
        self._num_switches = len(program.mapping.switches)
        self._cross_source = np.zeros(n, dtype=bool)
        for u, _v in program.mapping.cross_edges:
            self._cross_source[u] = True
        self._n = n

    # -- execution ----------------------------------------------------------
    def initial_state(self) -> EngineState:
        """A fresh :class:`EngineState` at stream position 0."""
        return EngineState()

    def run(
        self, data: bytes, *, max_reports: int = DEFAULT_MAX_KEPT_REPORTS
    ) -> CamaRunResult:
        """Execute the program over ``data``."""
        return self.run_chunk(data, self.initial_state(), max_reports=max_reports)

    def run_chunk(
        self,
        data: bytes,
        state: EngineState,
        *,
        max_reports: int = DEFAULT_MAX_KEPT_REPORTS,
    ) -> CamaRunResult:
        """Execute one chunk of a stream, advancing ``state`` in place.

        Mirrors :meth:`repro.sim.engine.Engine.run_chunk`: START_OF_DATA
        states enable only at stream position 0 and report cycles are
        absolute stream offsets, so chunked execution stays in lock-step
        with the reference simulator's.
        """
        activity = CamaActivity()
        out = ReportBuffer(self._report_codes, max_reports)
        base = state.position
        active = state.active
        encoder = self.program.encoder
        for offset, symbol in enumerate(data):
            cycle = base + offset
            code, valid = encoder.encode(symbol)
            enabled = self._enabled_states(active, first_cycle=cycle == 0)

            # Per-unit search with selective precharge (the enable mask
            # performs the AND with the transition results).
            enable_masks = [
                np.zeros(unit.array.columns, dtype=bool) for unit in self._units
            ]
            for enabled_state in enabled:
                for unit_index, column in self._column_of_state[enabled_state]:
                    enable_masks[unit_index][column] = True
            active_list: list[int] = []
            entries_enabled = 0
            units_enabled = 0
            for unit_index, unit in enumerate(self._units):
                mask = enable_masks[unit_index]
                count = unit.array.enabled_column_count(mask)
                if count == 0:
                    continue
                units_enabled += 1
                entries_enabled += count
                match = unit.array.search(code, valid, enable=mask)
                if match.any():
                    owners = self._unit_owner[unit_index]
                    hit = np.unique(owners[match[: len(owners)]])
                    active_list.extend(int(s) for s in hit)
            # Negated states match when their (single) inverted entry
            # does NOT hit; the inverter output is still gated by the
            # enable mask, handled inside CamArray.search via XOR. A
            # negated enabled state whose entry missed must be added:
            # search() already returns True for those columns, so
            # nothing extra is needed here.
            active = np.array(sorted(active_list), dtype=np.int64)

            activity.num_cycles += 1
            activity.cam_units_enabled_sum += units_enabled
            activity.entries_enabled_sum += entries_enabled
            if active.size:
                switches = self._switch_of[active]
                activity.switches_active_sum += int(np.unique(switches).size)
                activity.switch_rows_active_sum += int(active.size)
                crossing = active[self._cross_source[active]]
                if crossing.size:
                    activity.global_accesses_sum += int(
                        np.unique(self._switch_of[crossing]).size
                    )

            firing = active[self._reporting[active]]
            if firing.size:
                out.append(cycle, firing)
        state.active = active
        state.position = base + len(data)
        return CamaRunResult(out.batch(), activity)

    def _enabled_states(self, active: np.ndarray, first_cycle: bool) -> np.ndarray:
        succ = gather_successors(self._succ_offsets, self._succ_targets, active)
        if first_cycle:
            return np.unique(np.concatenate((self._start_all, self._start_sod, succ)))
        return np.unique(np.concatenate((self._start_all, succ)))
