"""Benchmark registry: one call to get a named benchmark's NFA + input."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.automata.nfa import Automaton
from repro.errors import ReproError
from repro.workloads.generators import generate
from repro.workloads.inputs import DEFAULT_STREAM_LENGTH, benchmark_input
from repro.workloads.profiles import (
    BENCHMARK_NAMES,
    DEFAULT_SCALE,
    PROFILES,
    BenchmarkProfile,
)


@dataclass(frozen=True)
class Benchmark:
    """A generated benchmark instance."""

    profile: BenchmarkProfile
    automaton: Automaton
    scale: float

    @property
    def name(self) -> str:
        return self.profile.name

    def input_stream(self, length: int = DEFAULT_STREAM_LENGTH, seed: int = 0) -> bytes:
        return benchmark_input(self.automaton, length=length, seed=seed)


def profile_of(name: str) -> BenchmarkProfile:
    try:
        return PROFILES[name]
    except KeyError:
        known = ", ".join(BENCHMARK_NAMES)
        raise ReproError(f"unknown benchmark {name!r}; known: {known}") from None


@lru_cache(maxsize=64)
def _cached(name: str, scale: float) -> Benchmark:
    profile = profile_of(name)
    return Benchmark(
        profile=profile, automaton=generate(profile, scale=scale), scale=scale
    )


def get_benchmark(name: str, scale: float = DEFAULT_SCALE) -> Benchmark:
    """Generate (and cache) the named benchmark at the given scale."""
    return _cached(name, scale)
