"""Cycle-accurate functional simulation (the VASim role)."""

from repro.sim.backends import (
    BACKEND_NAMES,
    BACKENDS,
    DEFAULT_MAX_KEPT_REPORTS,
    CompiledKernel,
    ExecutionBackend,
    ReportTruncationWarning,
    choose_backend_name,
    get_backend,
)
from repro.sim.buffers import (
    INPUT_BUFFER_ENTRIES,
    OUTPUT_BUFFER_ENTRIES,
    BufferActivity,
    buffer_activity,
    input_interrupts,
    output_interrupts,
)
from repro.sim.engine import (
    Engine,
    EngineState,
    SimulationResult,
    StridedEngine,
    gather_successors,
)
from repro.sim.reports import (
    Report,
    ReportBatch,
    report_codes_at,
    report_positions,
)
from repro.sim.trace import PartitionAssignment, TraceStats

__all__ = [
    "BACKENDS",
    "BACKEND_NAMES",
    "BufferActivity",
    "CompiledKernel",
    "DEFAULT_MAX_KEPT_REPORTS",
    "Engine",
    "EngineState",
    "ExecutionBackend",
    "INPUT_BUFFER_ENTRIES",
    "OUTPUT_BUFFER_ENTRIES",
    "PartitionAssignment",
    "Report",
    "ReportBatch",
    "ReportTruncationWarning",
    "SimulationResult",
    "StridedEngine",
    "TraceStats",
    "buffer_activity",
    "choose_backend_name",
    "gather_successors",
    "get_backend",
    "input_interrupts",
    "output_interrupts",
    "report_codes_at",
    "report_positions",
]
