"""Typed intermediate representation of the staged compilation pipeline.

The pipeline (:mod:`repro.compile.pipeline`) threads one
:class:`PipelineState` through its passes; every pass reads the fields
it *requires* and fills in the fields it *produces* (declared on the
pass class and checked by the driver, so a mis-ordered pipeline fails
loudly instead of with an ``AttributeError`` three passes later).
:class:`PipelineOptions` is the immutable configuration every pass
sees; it also defines the *option digest* mixed into artifact keys so
two differently configured compilations can never alias one cache
entry.  The finished product is a :class:`CompiledRuleset`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.api.config import SUPPORTED_STRIDES, CompileConfig
from repro.automata.nfa import Automaton
from repro.automata.optimize import OptimizationReport
from repro.automata.striding import StridedAutomaton
from repro.errors import ReproError

#: the pipeline's configuration object, canonically defined as
#: :class:`repro.api.config.CompileConfig`; this alias keeps the name
#: every pass, artifact manifest and pre-facade caller was built
#: against (the two are the *same class* — field set, ``to_dict`` form
#: and ``digest`` are unchanged, so artifact keys never moved)
PipelineOptions = CompileConfig


@dataclass(frozen=True)
class PassTiming:
    """Wall-clock record of one executed (or skipped) pass."""

    name: str
    seconds: float
    #: why the pass did not run (None when it did)
    skipped: str | None = None
    #: pass-specific facts (state counts, chosen scheme, kernel name...)
    detail: dict = field(default_factory=dict)


def render_timing_rows(timings) -> list[list]:
    """``[pass, ms, note]`` table rows from :class:`PassTiming` objects
    (what ``repro compile --timings`` prints), ending with a total
    row."""
    rows = []
    total = 0.0
    for timing in timings:
        total += timing.seconds
        note = timing.skipped or ", ".join(
            f"{k}={v}" for k, v in timing.detail.items()
        )
        rows.append([timing.name, f"{timing.seconds * 1e3:.2f}", note])
    rows.append(["total", f"{total * 1e3:.2f}", ""])
    return rows


@dataclass
class PipelineState:
    """The mutable IR threaded through the passes.

    Field population by pass (``-`` = untouched)::

        pass       automaton  optimization  strided  choice+encodings  mapping+encoder  kernel
        parse      set        -             -        -                 -                -
        optimize   replaced   set           -        -                 -                -
        stride     -          -             set      -                 -                -
        encode     -          -             -        set               -                -
        map        -          -             -        -                 set              -
        kernel     -          -             -        -                 -                set
    """

    options: PipelineOptions
    #: what the caller handed the pipeline (path, text, Automaton, ...)
    source: object = None
    #: the (possibly optimized) 1-stride automaton under compilation
    automaton: Automaton | None = None
    #: what the optimization pass did, when it ran
    optimization: OptimizationReport | None = None
    #: the 2-strided automaton (stride=2 pipelines only)
    strided: StridedAutomaton | None = None
    #: encoding selection output (:class:`EncodingChoice`)
    choice: object = None
    #: per-state CAM realizations (list of :class:`StateEncoding`)
    state_encodings: list | None = None
    #: CAM placement (:class:`CamaMapping`)
    mapping: object = None
    #: the 256x32 input-encoder model (:class:`InputEncoder`)
    encoder: object = None
    #: prebuilt execution kernel (:class:`CompiledKernel`) or, at
    #: stride 2, the :class:`StridedEngine`
    kernel: object = None
    timings: list[PassTiming] = field(default_factory=list)


@dataclass
class CompiledRuleset:
    """The pipeline's finished product.

    Bundles everything downstream consumers need: the executed
    automaton, the compiled CAMA program (stride-1 pipelines that ran
    the encode/map passes), the prebuilt execution kernel, and the
    per-pass timing trace.  Convert to a shippable on-disk form with
    :meth:`repro.compile.artifact.CompiledArtifact.from_compiled`.
    """

    automaton: Automaton
    options: PipelineOptions
    #: artifact key: language fingerprint + option digest
    key: str
    program: object = None
    kernel: object = None
    strided: StridedAutomaton | None = None
    optimization: OptimizationReport | None = None
    timings: list[PassTiming] = field(default_factory=list)

    def engine(self, **engine_kwargs):
        """Wrap the prebuilt kernel in an :class:`~repro.sim.engine.Engine`.

        At stride 2 the kernel *is* the :class:`StridedEngine` (its
        construction already fixed the execution strategy), so extra
        engine kwargs are rejected there.
        """
        from repro.sim.engine import Engine, StridedEngine

        if self.kernel is None:
            raise ReproError(
                "this ruleset was compiled without a kernel prebuild "
                "(options.backend=None); recompile with a backend"
            )
        if isinstance(self.kernel, StridedEngine):
            if engine_kwargs:
                raise ReproError(
                    "a strided kernel is already an engine; "
                    "per-engine options must be set at compile time"
                )
            return self.kernel
        return Engine.from_kernel(self.kernel, **engine_kwargs)

    def timing_rows(self) -> list[list]:
        """``[pass, ms, note]`` rows for the CLI's timing table."""
        return render_timing_rows(self.timings)


def timed(fn) -> tuple[object, float]:
    """Run ``fn()`` and return (result, elapsed seconds)."""
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start
