"""Shared plumbing for the experiment harnesses.

One :class:`ExperimentContext` caches everything expensive — generated
benchmarks, compiled CAMA programs, design builds and simulation traces
— so the table/figure harnesses can share work.  CAMA-E and CAMA-T
share one placement (and therefore one simulation); CA and eAP share
the baseline 256-STE placement; Impala has its own projected placement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

from repro.arch.baselines import BaselineMapping, map_baseline
from repro.arch.circuits import CircuitLibrary
from repro.arch.designs import (
    DesignBuild,
    build_ca,
    build_cama,
    build_eap,
    build_impala,
)
from repro.core.compiler import CamaCompiler, CamaProgram
from repro.errors import ReproError
from repro.sim.engine import Engine
from repro.sim.trace import TraceStats
from repro.utils.tables import format_table
from repro.workloads import DEFAULT_SCALE, Benchmark, get_benchmark
from repro.workloads.profiles import BENCHMARK_NAMES

DESIGNS = ("CAMA-E", "CAMA-T", "2-stride Impala", "eAP", "CA")


@dataclass
class ExperimentTable:
    """One regenerated table/figure: headers, rows, and provenance."""

    experiment: str
    headers: list[str]
    rows: list[list[object]]
    notes: str = ""

    def format(self) -> str:
        text = format_table(self.headers, self.rows, title=self.experiment)
        if self.notes:
            text += f"\n\n{self.notes}"
        return text


@dataclass
class ExperimentContext:
    """Caching evaluation context shared by all experiments."""

    scale: float = DEFAULT_SCALE
    stream_length: int = 10_000
    benchmarks: Sequence[str] = BENCHMARK_NAMES
    #: execution backend for the simulation engines ("sparse" keeps the
    #: published-trace baseline; "auto"/"native" trade it for speed)
    engine_backend: str = "sparse"
    lib: CircuitLibrary = field(default_factory=CircuitLibrary)
    _programs: dict[str, CamaProgram] = field(default_factory=dict)
    _baselines: dict[str, BaselineMapping] = field(default_factory=dict)
    _builds: dict[tuple[str, str], DesignBuild] = field(default_factory=dict)
    _engines: dict[str, Engine] = field(default_factory=dict)
    _stats: dict[tuple[str, str], TraceStats] = field(default_factory=dict)
    _streams: dict[str, bytes] = field(default_factory=dict)

    # -- benchmark artifacts ------------------------------------------------
    def benchmark(self, name: str) -> Benchmark:
        return get_benchmark(name, scale=self.scale)

    def stream(self, name: str) -> bytes:
        if name not in self._streams:
            self._streams[name] = self.benchmark(name).input_stream(
                length=self.stream_length
            )
        return self._streams[name]

    def program(self, name: str) -> CamaProgram:
        if name not in self._programs:
            self._programs[name] = CamaCompiler().compile(
                self.benchmark(name).automaton
            )
        return self._programs[name]

    def baseline_mapping(self, name: str) -> BaselineMapping:
        if name not in self._baselines:
            self._baselines[name] = map_baseline(self.benchmark(name).automaton)
        return self._baselines[name]

    def engine(self, name: str) -> Engine:
        if name not in self._engines:
            self._engines[name] = Engine(
                self.benchmark(name).automaton, backend=self.engine_backend
            )
        return self._engines[name]

    # -- design builds --------------------------------------------------------
    def build(self, name: str, design: str) -> DesignBuild:
        key = (name, design)
        if key not in self._builds:
            automaton = self.benchmark(name).automaton
            if design in ("CAMA-E", "CAMA-T"):
                build = build_cama(
                    automaton,
                    design[-1],
                    self.lib,
                    program=self.program(name),
                )
            elif design == "CA":
                build = build_ca(automaton, self.lib, self.baseline_mapping(name))
            elif design == "eAP":
                build = build_eap(automaton, self.lib, self.baseline_mapping(name))
            elif design == "2-stride Impala":
                build = build_impala(automaton, self.lib)
            else:
                raise ReproError(f"unknown design {design!r}")
            self._builds[key] = build
        return self._builds[key]

    # -- simulation traces ------------------------------------------------------
    def stats(self, name: str, design: str) -> TraceStats:
        """Partition-resolved activity for (benchmark, design).

        CAMA-E/T share one trace; CA/eAP share one trace.
        """
        trace_kind = {
            "CAMA-E": "cama",
            "CAMA-T": "cama",
            "CA": "baseline",
            "eAP": "baseline",
            "2-stride Impala": "impala",
        }[design]
        key = (name, trace_kind)
        if key not in self._stats:
            build = self.build(name, design)
            result = self.engine(name).run(
                self.stream(name), placement=build.placement, max_reports=0
            )
            self._stats[key] = result.stats
        return self._stats[key]

    def energy_per_cycle(self, name: str, design: str) -> float:
        return self.build(name, design).energy(self.stats(name, design)).per_cycle_pj()


def geometric_mean(values: list[float]) -> float:
    if not values:
        raise ReproError("geometric mean of no values")
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values))
