"""Micro-benchmarks of the core pipeline stages.

These are ablation-grade measurements (not paper artifacts): simulator
throughput, compile time, CAM-machine overhead, the cost of the
encoding passes, and the sparse-vs-native backend comparison, so
regressions in the substrate are visible.
"""

import numpy as np
import pytest

from repro.core.compiler import CamaCompiler, compile_automaton
from repro.core.encoding.compression import compress_class
from repro.core.encoding.selection import select_encoding
from repro.core.machine import CamaMachine
from repro.sim.backends.native import native_available
from repro.sim.engine import Engine
from repro.workloads.generators import dense_activity_automaton

#: dense-activity workload for the backend comparison (~17% of states
#: active per cycle — an order of magnitude above the paper's regime)
DENSE_STATES = 1024
DENSE_MATCH_WIDTH = 230
DENSE_STREAM = 6000


def _dense_stream(length: int = DENSE_STREAM, seed: int = 1) -> bytes:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=length, dtype=np.uint8).tobytes()


def test_engine_throughput(benchmark, ctx):
    name = "Snort"
    engine = ctx.engine(name)
    data = ctx.stream(name)
    result = benchmark(engine.run, data)
    assert result.stats.num_cycles == len(data)


def test_engine_with_placement(benchmark, ctx):
    name = "Snort"
    engine = ctx.engine(name)
    data = ctx.stream(name)
    placement = ctx.build(name, "CAMA-E").placement
    result = benchmark(engine.run, data, placement=placement)
    assert result.stats.partition_enabled_cycles is not None


def test_enabled_at_gather(benchmark, ctx):
    """The CSR successor gather on a realistic active-set size."""
    name = "Snort"
    engine = ctx.engine(name)
    n = len(engine.automaton)
    rng = np.random.default_rng(0)
    # a few percent active, the regime the paper's benchmarks live in
    active = np.unique(rng.integers(0, n, size=max(4, n // 32)))

    def step():
        return engine.enabled_at(active, first_cycle=False)

    enabled = benchmark(step)
    assert enabled.size >= active.size // 2


def test_compile_benchmark(benchmark, ctx):
    automaton = ctx.benchmark("TCP").automaton
    program = benchmark(lambda: CamaCompiler().compile(automaton))
    assert program.total_entries >= len(automaton)


def test_encoding_selection(benchmark, ctx):
    automaton = ctx.benchmark("SPM").automaton
    choice = benchmark(select_encoding, automaton)
    assert choice.code_length == 16


def test_class_compression(benchmark, ctx):
    automaton = ctx.benchmark("RandomForest").automaton
    choice = select_encoding(automaton)
    wide = max(
        (s.symbol_class for s in automaton.states), key=len
    )
    entries = benchmark(compress_class, choice.encoding, wide)
    assert entries


def test_sparse_backend_dense_workload(benchmark):
    """Sparse kernel on the dense-activity workload."""
    automaton = dense_activity_automaton(
        DENSE_STATES, match_width=DENSE_MATCH_WIDTH
    )
    engine = Engine(automaton, backend="sparse")
    data = _dense_stream()
    result = benchmark(engine.run, data, max_reports=0)
    assert result.stats.num_cycles == len(data)


@pytest.mark.skipif(
    not native_available(), reason="compiled kernel not loadable here"
)
def test_native_backend_dense_workload(benchmark):
    """Compiled C loop on the dense-activity workload."""
    automaton = dense_activity_automaton(
        DENSE_STATES, match_width=DENSE_MATCH_WIDTH
    )
    engine = Engine(automaton, backend="native")
    data = _dense_stream()
    result = benchmark(engine.run, data, max_reports=0)
    assert result.stats.num_cycles == len(data)


def test_cama_machine_step_rate(benchmark, ctx):
    automaton = ctx.benchmark("Ranges1").automaton
    program = compile_automaton(automaton)
    machine = CamaMachine(program)
    data = ctx.stream("Ranges1")[:400]
    result = benchmark(machine.run, data)
    assert result.activity.num_cycles == len(data)
