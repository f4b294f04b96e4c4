"""Synthetic, profile-matched versions of the 21 paper benchmarks."""

from repro.workloads.generators import generate
from repro.workloads.inputs import (
    DEFAULT_INJECTION_RATE,
    DEFAULT_STREAM_LENGTH,
    benchmark_input,
    multi_stream_inputs,
    pattern_walk,
)
from repro.workloads.profiles import (
    BENCHMARK_NAMES,
    DEFAULT_SCALE,
    PROFILES,
    BenchmarkProfile,
    PaperNumbers,
)
from repro.workloads.registry import (
    Benchmark,
    get_benchmark,
    profile_of,
)

__all__ = [
    "BENCHMARK_NAMES",
    "Benchmark",
    "BenchmarkProfile",
    "DEFAULT_INJECTION_RATE",
    "DEFAULT_SCALE",
    "DEFAULT_STREAM_LENGTH",
    "PROFILES",
    "PaperNumbers",
    "benchmark_input",
    "generate",
    "get_benchmark",
    "multi_stream_inputs",
    "pattern_walk",
    "profile_of",
]
