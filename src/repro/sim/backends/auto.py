"""The ``auto`` policy: one concrete kernel name per automaton.

Work should follow *actual* activity, not capacity — the density
trade-off CAMA-E's selective precharge exploits in hardware.  The
policy decides per *automaton* — under the sharded dispatcher per
shard, so one ruleset can mix kernels — from

* the state count: automata above ``MAX_BITPARALLEL_STATES`` exceed
  the packed successor matrix budget and take ``sparse``, the only
  kernel without an ``n x n / 8`` byte table;
* the expected active fraction from
  :func:`repro.automata.analysis.estimate_active_fraction` (or a
  measured one from a probe run): below
  :data:`DENSE_ACTIVITY_THRESHOLD` the ``sparse`` kernel (cost follows
  the active set), at or above it the packed-bitmap family (cost
  follows ``n/64`` words, sort-free).  The numpy kernels' measured
  crossover sits around 2% (see the ``test_backend_crossover``
  micro-benchmark); the threshold is deliberately above it, so
  borderline automata keep the well-understood sparse kernel;
* the platform: the packed family is the compiled C loop ``native``
  whenever it loads on this host, the numpy ``bitparallel`` kernel
  when it does not (no compiler, no prebuilt extension,
  ``REPRO_NATIVE=0``) or when the caller has no C step (the strided
  engine).

Since the C loop's own cost follows the active set (block-local
successor spans, folded starts) it also beats ``sparse`` below the
threshold — ~60x on Snort — but the default does not use that yet:
sending every automaton that fits to ``native`` is ROADMAP item 3's
open part.  Pin ``backend="native"`` to get it today.

:func:`choose_backend_name` is the only place ``auto`` becomes a kernel
name; :class:`AutoBackend` and every table-based rebuild go through it.
"""

from __future__ import annotations

from repro.automata.analysis import estimate_active_fraction
from repro.sim.backends.base import CompiledKernel, KernelTables
from repro.sim.backends.bitparallel import (
    MAX_BITPARALLEL_STATES,
    BitParallelBackend,
)
from repro.sim.backends.native import NativeBackend, native_available
from repro.sim.backends.sparse import SparseBackend
from repro.telemetry.metrics import default_registry

#: expected active fraction above which the packed-bitmap family wins
DENSE_ACTIVITY_THRESHOLD = 0.05

#: the concrete kernels ``auto`` resolves to, by registry name
KERNEL_BACKENDS = {
    "sparse": SparseBackend(),
    "bitparallel": BitParallelBackend(),
    "native": NativeBackend(),
}

_AUTO_CHOICES = default_registry().counter(
    "repro_backend_auto_choices_total",
    "Resolutions of the auto backend policy, by chosen kernel",
    ("choice",),
)


def choose_backend_name(
    automaton,
    *,
    active_fraction: float | None = None,
    compiled_loop: bool | None = None,
) -> str:
    """Resolve the ``auto`` policy to a concrete kernel name:
    ``"sparse"``, ``"native"`` or ``"bitparallel"``.

    ``active_fraction`` overrides the static activity estimate with a
    measured per-cycle fraction (``TraceStats.avg_active_states() / n``
    from a probe run) when the caller has one.  ``compiled_loop`` says
    whether the caller can run the C step loop, which is what the
    packed-bitmap family resolves to; by default that is whether it
    loads on this host.
    """
    if len(automaton) > MAX_BITPARALLEL_STATES:
        dense = False
    else:
        if active_fraction is None:
            active_fraction = estimate_active_fraction(automaton)
        dense = active_fraction >= DENSE_ACTIVITY_THRESHOLD
    if not dense:
        choice = "sparse"
    elif native_available() if compiled_loop is None else compiled_loop:
        choice = "native"
    else:
        choice = "bitparallel"
    _AUTO_CHOICES.labels(choice).inc()
    return choice


class AutoBackend:
    """Backend that defers to :func:`choose_backend_name` per automaton.

    The compiled kernel's ``name`` records the resolved choice, so
    callers (and tests) can observe which kernel an automaton got.
    """

    name = "auto"

    def __init__(self, *, active_fraction: float | None = None) -> None:
        self.active_fraction = active_fraction

    def _resolve(self, automaton):
        return KERNEL_BACKENDS[
            choose_backend_name(automaton, active_fraction=self.active_fraction)
        ]

    def compile(self, automaton) -> CompiledKernel:
        return self._resolve(automaton).compile(automaton)

    def from_tables(self, automaton, tables: KernelTables) -> CompiledKernel:
        """Rebuild a kernel from prebuilt (artifact) tables."""
        return self._resolve(automaton).from_tables(automaton, tables)
