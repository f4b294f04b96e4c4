"""The ``auto`` policy: one concrete kernel name per host.

Work should follow *actual* activity, not capacity — the density
trade-off CAMA-E's selective precharge exploits in hardware.  The C
loop's per-cycle cost follows the active set (block-local successor
slices, folded starts) and its tables grow with the transitions, not
with ``n x n``, so it is the serving kernel wherever it can run:

* ``native`` when the compiled loop loads on this host;
* ``sparse`` otherwise — the reference kernel, and the one a host
  without the library runs.

:func:`choose_backend_name` is the only place ``auto`` becomes a kernel
name; :class:`AutoBackend` and every table-based rebuild go through it.
"""

from __future__ import annotations

from repro.sim.backends.base import CompiledKernel, KernelTables
from repro.sim.backends.native import NativeBackend, native_available
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


def choose_backend_name() -> str:
    """Resolve the ``auto`` policy to a concrete kernel name:
    ``"native"`` when the C loop loads, ``"sparse"`` otherwise."""
    choice = "native" if native_available() else "sparse"
    _AUTO_CHOICES.labels(choice).inc()
    return choice


class AutoBackend:
    """Backend that defers to :func:`choose_backend_name`.

    The compiled kernel's ``name`` records the resolved choice, so
    callers (and tests) can observe which kernel an automaton got.
    """

    name = "auto"

    def compile(self, automaton) -> CompiledKernel:
        return KERNEL_BACKENDS[choose_backend_name()].compile(automaton)

    def from_tables(self, automaton, tables: KernelTables) -> CompiledKernel:
        """Rebuild a kernel from prebuilt (artifact) tables."""
        return KERNEL_BACKENDS[choose_backend_name()].from_tables(
            automaton, tables
        )
