"""The ``auto`` policy: one concrete kernel name per automaton.

Work should follow *actual* activity, not capacity — the density
trade-off CAMA-E's selective precharge exploits in hardware.  The C
loop's per-cycle cost follows the active set (block-local successor
spans, folded starts), so it is the serving kernel wherever it can
run.  The policy decides per *automaton* — under the sharded
dispatcher per shard, so one ruleset can mix kernels:

* ``native`` when the compiled loop loads on this host and the
  automaton is within :data:`MAX_DENSE_SUCCESSOR_STATES` (the
  ``n x n / 8`` byte successor matrix budget);
* ``sparse`` otherwise — the reference kernel, the only one without
  a state-count limit, and the one a host without the library runs.

:func:`choose_backend_name` is the only place ``auto`` becomes a kernel
name; :class:`AutoBackend` and every table-based rebuild go through it.
"""

from __future__ import annotations

from repro.sim.backends.base import CompiledKernel, KernelTables
from repro.sim.backends.native import (
    MAX_DENSE_SUCCESSOR_STATES,
    NativeBackend,
    native_available,
)
from repro.sim.backends.sparse import SparseBackend
from repro.telemetry.metrics import default_registry

#: the concrete kernels ``auto`` resolves to, by registry name
KERNEL_BACKENDS = {
    "sparse": SparseBackend(),
    "native": NativeBackend(),
}

_AUTO_CHOICES = default_registry().counter(
    "repro_backend_auto_choices_total",
    "Resolutions of the auto backend policy, by chosen kernel",
    ("choice",),
)


def choose_backend_name(automaton) -> str:
    """Resolve the ``auto`` policy to a concrete kernel name:
    ``"native"`` when the C loop loads and the automaton fits its
    successor matrix, ``"sparse"`` otherwise."""
    if len(automaton) <= MAX_DENSE_SUCCESSOR_STATES and native_available():
        choice = "native"
    else:
        choice = "sparse"
    _AUTO_CHOICES.labels(choice).inc()
    return choice


class AutoBackend:
    """Backend that defers to :func:`choose_backend_name` per automaton.

    The compiled kernel's ``name`` records the resolved choice, so
    callers (and tests) can observe which kernel an automaton got.
    """

    name = "auto"

    def compile(self, automaton) -> CompiledKernel:
        return KERNEL_BACKENDS[choose_backend_name(automaton)].compile(automaton)

    def from_tables(self, automaton, tables: KernelTables) -> CompiledKernel:
        """Rebuild a kernel from prebuilt (artifact) tables."""
        return KERNEL_BACKENDS[choose_backend_name(automaton)].from_tables(
            automaton, tables
        )
