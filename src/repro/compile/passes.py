"""The compilation passes (paper §V.B, §VI, staged).

Each pass is a small object with a ``name``, the IR fields it
``requires`` / ``produces`` (checked by the :class:`~repro.compile.
pipeline.Pipeline` driver), and a ``run(state)`` that mutates the
:class:`~repro.compile.ir.PipelineState` in place and returns a detail
dict for the timing trace.  A pass may *skip itself* by returning a
reason string from :meth:`applies`, so one pipeline definition covers
every configuration (program-only, kernel-only, strided) without
callers assembling pass lists by hand.

The default order mirrors the paper's toolchain::

    parse -> optimize -> stride -> encode -> map -> kernel
"""

from __future__ import annotations

from pathlib import Path

from repro.automata.nfa import Automaton
from repro.automata.optimize import optimize as optimize_automaton
from repro.automata.striding import stride2
from repro.compile.ir import PipelineState
from repro.errors import ReproError


def load_source(source, *, name: str | None = None) -> Automaton:
    """Resolve any accepted ruleset source into an :class:`Automaton`.

    Accepts an :class:`Automaton` (validated and passed through), a
    file path (ANML ``.anml``/``.xml``, MNRL ``.mnrl``/``.json``, or a
    newline-separated regex list ``.regex``/``.txt``), or a regex rule
    set as a dict/list of patterns.
    """
    from repro.automata import compile_regex_set, load_anml, load_mnrl

    if isinstance(source, Automaton):
        source.validate()
        return source
    if isinstance(source, (dict, list, tuple)):
        if not source:
            raise ReproError("cannot compile an empty regex rule set")
        return compile_regex_set(source, name=name or "ruleset")
    if isinstance(source, (str, Path)):
        file = Path(source)
        if not file.exists():
            raise ReproError(f"no such file: {source}")
        suffix = file.suffix.lower()
        if suffix in (".anml", ".xml"):
            return load_anml(file)
        if suffix in (".mnrl", ".json"):
            return load_mnrl(file)
        if suffix in (".regex", ".txt"):
            patterns = [
                line.strip()
                for line in file.read_text().splitlines()
                if line.strip() and not line.startswith("#")
            ]
            return compile_regex_set(patterns, name=name or file.stem)
        raise ReproError(
            f"unrecognized automaton format {suffix!r} "
            f"(expected .anml/.xml, .mnrl/.json, or .regex/.txt)"
        )
    raise ReproError(
        f"cannot compile a {type(source).__name__} "
        f"(expected an Automaton, a file path, or regex rules)"
    )


class CompilePass:
    """Base class: one stage of the pipeline."""

    #: stable pass name (appears in timings and the CLI)
    name: str = "pass"
    #: IR fields that must be populated before this pass runs
    requires: tuple[str, ...] = ()
    #: IR fields this pass fills in
    produces: tuple[str, ...] = ()

    def applies(self, state: PipelineState) -> str | None:
        """None to run; a human-readable reason string to skip."""
        return None

    def run(self, state: PipelineState) -> dict:
        """Execute the pass, mutating ``state``; returns timing detail."""
        raise NotImplementedError


class ParsePass(CompilePass):
    """Resolve the caller's source into a validated automaton."""

    name = "parse"
    produces = ("automaton",)

    def run(self, state: PipelineState) -> dict:
        state.automaton = load_source(state.source)
        return {
            "states": len(state.automaton),
            "transitions": state.automaton.num_transitions(),
        }


class OptimizePass(CompilePass):
    """VASim-style dead-state removal + common-prefix merging."""

    name = "optimize"
    requires = ("automaton",)
    produces = ("optimization",)

    def applies(self, state: PipelineState) -> str | None:
        return None if state.options.optimize else "options.optimize=False"

    def run(self, state: PipelineState) -> dict:
        state.automaton, state.optimization = optimize_automaton(
            state.automaton
        )
        report = state.optimization
        return {
            "before": report.states_before,
            "after": report.states_after,
            "passes": report.passes,
        }


class StridePass(CompilePass):
    """Temporal 2-striding (one automaton step per symbol pair)."""

    name = "stride"
    requires = ("automaton",)
    produces = ("strided",)

    def applies(self, state: PipelineState) -> str | None:
        return None if state.options.stride == 2 else "stride=1"

    def run(self, state: PipelineState) -> dict:
        state.strided = stride2(state.automaton)
        return {
            "strided_states": len(state.strided),
            "strided_transitions": state.strided.num_transitions(),
        }


class EncodingPass(CompilePass):
    """Encoding-scheme selection + per-state CAM realization (§V)."""

    name = "encode"
    requires = ("automaton",)
    produces = ("choice", "state_encodings")

    def applies(self, state: PipelineState) -> str | None:
        if state.options.stride != 1:
            return "CAMA encoding applies at stride 1 only"
        return None

    def run(self, state: PipelineState) -> dict:
        from repro.core.compiler import CamaCompiler
        from repro.core.encoding.negation import encode_state_class

        options = state.options
        automaton = state.automaton
        # CamaCompiler.select is the one home of the selection policy
        # (fixed-32-bit baseline vs the paper's Eq. 1/2 sweep)
        choice = CamaCompiler(
            allow_negation=options.allow_negation,
            clustered=options.clustered,
            fixed_32bit=options.fixed_32bit,
        ).select(automaton)
        # Benchmarks reuse symbol classes heavily; memoize per class mask.
        cache: dict[int, object] = {}

        def encode(symbol_class):
            key = symbol_class.mask
            if key not in cache:
                cache[key] = encode_state_class(
                    choice.encoding,
                    symbol_class,
                    allow_negation=options.allow_negation,
                )
            return cache[key]

        state.choice = choice
        state.state_encodings = [
            encode(ste.symbol_class) for ste in automaton.states
        ]
        return {
            "scheme": choice.scheme,
            "code_length": choice.code_length,
            "entries": sum(se.num_entries for se in state.state_encodings),
        }


class MappingPass(CompilePass):
    """CAM mapping/placement onto the fabric + input-encoder build (§VI)."""

    name = "map"
    requires = ("automaton", "choice", "state_encodings")
    produces = ("mapping", "encoder")

    def applies(self, state: PipelineState) -> str | None:
        if state.options.stride != 1:
            return "CAMA mapping applies at stride 1 only"
        return None

    def run(self, state: PipelineState) -> dict:
        from repro.core.encoding.encoder import InputEncoder
        from repro.core.mapping import map_automaton

        state.mapping = map_automaton(
            state.automaton, state.choice.encoding, state.state_encodings
        )
        state.encoder = InputEncoder(state.choice.encoding)
        return {
            "tiles": state.mapping.num_tiles,
            "cross_edges": len(state.mapping.cross_edges),
        }


class KernelPass(CompilePass):
    """Prebuild the execution kernel for the configured backend hint."""

    name = "kernel"
    requires = ("automaton",)
    produces = ("kernel",)

    def applies(self, state: PipelineState) -> str | None:
        if state.options.backend is None:
            return "options.backend=None (program-only compilation)"
        return None

    def run(self, state: PipelineState) -> dict:
        from repro.sim.backends import get_backend
        from repro.sim.engine import StridedEngine

        if state.options.stride == 2:
            if state.strided is None:
                raise ReproError("stride pass did not run before kernel pass")
            state.kernel = StridedEngine(
                state.strided, backend=state.options.backend
            )
            return {"backend": state.kernel.backend_name, "strided": True}
        state.kernel = get_backend(state.options.backend).compile(
            state.automaton
        )
        return {"backend": state.kernel.name}


#: the default pass order; Pipeline copies it so callers can extend
DEFAULT_PASSES: tuple[CompilePass, ...] = (
    ParsePass(),
    OptimizePass(),
    StridePass(),
    EncodingPass(),
    MappingPass(),
    KernelPass(),
)
