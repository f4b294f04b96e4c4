"""Pluggable execution backends for the cycle simulator.

Every way of *running* an automaton lives behind the
:class:`ExecutionBackend` protocol — ``compile(automaton)`` returns a
:class:`CompiledKernel` whose ``run_chunk(data, state)`` advances a
resumable :class:`EngineState` and yields a :class:`StepResult`.  The
engine facade (:class:`repro.sim.engine.Engine`), the service layer and
the CLI all select a backend by name instead of hard-coding one
implementation, so adding a kernel (a C extension, a GPU path) is a
local change.

Shipped backends:

``sparse``
    Active-state index sets over the successor CSR — cost follows the
    active set.  The reference kernel every other path is checked
    against, the only one without a state-count limit, and what a
    host without the compiled library runs.
``native``
    The CAMA step loop compiled to machine code (a C extension built
    at install time, or compiled at runtime via ctypes) over packed
    uint64 state rows, with per-symbol match masks and per-state
    successor rows, no per-cycle interpreter cost, and work that
    follows the active set instead of the row width.  The serving
    kernel.  Degrades to ``sparse`` when no compiled library is
    loadable, so it is always safe to request.
``auto``
    Resolves per automaton (per *shard*, under the dispatcher) to
    ``native`` whenever the compiled loop loads and the automaton is
    within the successor-matrix cap, ``sparse`` otherwise.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.sim.backends.auto import (
    KERNEL_BACKENDS,
    AutoBackend,
    choose_backend_name,
)
from repro.sim.backends.base import (
    DEFAULT_MAX_KEPT_REPORTS,
    STATE_FORMAT_VERSION,
    BatchEngineState,
    CompiledKernel,
    EngineState,
    ExecutionBackend,
    KernelTables,
    PlacementTracker,
    ReportTruncationWarning,
    SimulationResult,
    StepResult,
    gather_successors,
    normalize_batch_caps,
)
from repro.sim.backends.native import (
    MAX_DENSE_SUCCESSOR_STATES,
    NativeBackend,
    NativeKernel,
    native_available,
)
from repro.sim.backends.sparse import SparseBackend, SparseKernel

#: the selectable backends, by registry name
BACKENDS: dict[str, ExecutionBackend] = {
    **KERNEL_BACKENDS,
    "auto": AutoBackend(),
}

#: names accepted wherever a backend is selectable (CLI, service, engine)
BACKEND_NAMES = tuple(BACKENDS)


def get_backend(backend: str | ExecutionBackend) -> ExecutionBackend:
    """Resolve a backend name (or pass an instance through)."""
    if isinstance(backend, str):
        try:
            return BACKENDS[backend]
        except KeyError:
            known = ", ".join(BACKEND_NAMES)
            raise SimulationError(
                f"unknown execution backend {backend!r}; known: {known}"
            ) from None
    if isinstance(backend, ExecutionBackend):
        return backend
    raise SimulationError(
        f"not an execution backend: {backend!r} (expected a name or an "
        f"object with .name and .compile)"
    )


__all__ = [
    "AutoBackend",
    "BACKENDS",
    "BACKEND_NAMES",
    "CompiledKernel",
    "DEFAULT_MAX_KEPT_REPORTS",
    "EngineState",
    "ExecutionBackend",
    "KernelTables",
    "MAX_DENSE_SUCCESSOR_STATES",
    "NativeBackend",
    "NativeKernel",
    "PlacementTracker",
    "ReportTruncationWarning",
    "SimulationResult",
    "SparseBackend",
    "SparseKernel",
    "StepResult",
    "choose_backend_name",
    "gather_successors",
    "get_backend",
    "native_available",
]
