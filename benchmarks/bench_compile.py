"""Bench: the staged compilation pipeline vs warm artifact loads.

The economics the artifact layer exists for: a ruleset is compiled
(parse -> encode -> map -> kernel) once, serialized, and every later
process start — service restart, spawn worker, remote upload — loads
the artifact instead.  The acceptance ratio asserts warm loads are
>= 5x faster than cold compiles across the registry corpus, and every
run writes machine-readable ``BENCH_compile.json`` results.  Run
directly:

    PYTHONPATH=src python -m pytest benchmarks/bench_compile.py -q -s
"""

import time

import pytest

from repro.compile import (
    ArtifactStore,
    CompiledArtifact,
    PipelineOptions,
    compile_ruleset,
    ruleset_fingerprint,
)
from repro.workloads.registry import get_benchmark

#: a cross-family slice of the registry corpus (strings, negated
#: strings, dotstar, ranges) — big enough that compile time dominates
CORPUS = ("Snort", "TCP", "Dotstar03", "Ranges1", "Bro217")
SCALE = 1.0 / 32.0
OPTIONS = PipelineOptions(backend="auto")

#: acceptance floor: warm artifact load vs cold pipeline compile
TARGET_SPEEDUP = 5.0


def _corpus():
    return [get_benchmark(name, SCALE).automaton for name in CORPUS]


def _prime_store(store, automata) -> list[str]:
    keys = []
    for automaton in automata:
        compiled = compile_ruleset(automaton, OPTIONS)
        store.put(CompiledArtifact.from_compiled(compiled))
        keys.append(compiled.key)
    return keys


def _cold_all(automata) -> None:
    for automaton in automata:
        compile_ruleset(automaton, OPTIONS).engine()


def _warm_all(store, keys) -> None:
    for key in keys:
        store.get(key).engine()


def test_cold_pipeline_compile(benchmark):
    automata = _corpus()
    benchmark(_cold_all, automata)


def test_warm_artifact_load(benchmark, tmp_path):
    automata = _corpus()
    store = ArtifactStore(tmp_path)
    keys = _prime_store(store, automata)
    benchmark(_warm_all, store, keys)


def test_pass_timings_cover_pipeline():
    """Every pass is individually timed (the inspectability contract)."""
    compiled = compile_ruleset(_corpus()[0], OPTIONS)
    names = [t.name for t in compiled.timings]
    assert names == ["parse", "optimize", "stride", "encode", "map", "kernel"]
    ran = {t.name for t in compiled.timings if t.skipped is None}
    assert {"parse", "encode", "map", "kernel"} <= ran


def test_warm_load_beats_cold_compile_5x(tmp_path, bench_json):
    """The acceptance ratio: artifact loads >= 5x faster than compiles.

    Medians over interleaved rounds absorb scheduler noise; one retry
    keeps an unlucky burst on a shared CI runner from failing an
    unrelated change.  Always writes BENCH_compile.json, win or lose.
    """
    automata = _corpus()
    store = ArtifactStore(tmp_path)
    keys = _prime_store(store, automata)
    per_bench: dict[str, dict] = {}
    best = (0.0, 0.0, 0.0)  # (speedup, cold median, warm median)
    for _attempt in range(2):
        cold_times, warm_times = [], []
        for _round in range(3):
            start = time.perf_counter()
            _cold_all(automata)
            cold_times.append(time.perf_counter() - start)
            start = time.perf_counter()
            _warm_all(store, keys)
            warm_times.append(time.perf_counter() - start)
        cold = sorted(cold_times)[len(cold_times) // 2]
        warm = sorted(warm_times)[len(warm_times) // 2]
        best = max(best, (cold / warm, cold, warm))
        if best[0] >= TARGET_SPEEDUP:
            break
    speedup, cold, warm = best
    # per-benchmark breakdown (single measured round; the aggregate
    # acceptance above is what gates)
    for name, automaton, key in zip(CORPUS, automata, keys):
        start = time.perf_counter()
        compile_ruleset(automaton, OPTIONS).engine()
        cold_one = time.perf_counter() - start
        start = time.perf_counter()
        store.get(key).engine()
        warm_one = time.perf_counter() - start
        per_bench[name] = {
            "states": len(automaton),
            "cold_compile_s": round(cold_one, 6),
            "warm_load_s": round(warm_one, 6),
            "speedup": round(cold_one / warm_one, 2) if warm_one else None,
        }
    bench_json(
        "compile",
        {
            "scale": SCALE,
            "options": OPTIONS.to_dict(),
            "corpus": per_bench,
            "aggregate": {
                # the medians behind the recorded speedup (same attempt)
                "cold_median_s": round(cold, 6),
                "warm_median_s": round(warm, 6),
                "speedup": round(speedup, 2),
                "target": TARGET_SPEEDUP,
            },
        },
    )
    assert speedup >= TARGET_SPEEDUP, f"warm speedup only {speedup:.2f}x"


def test_artifact_key_covers_backend_options(tmp_path):
    """Same ruleset, different pipeline options -> different artifacts."""
    automaton = _corpus()[-1]
    sparse_key = ruleset_fingerprint(
        automaton, OPTIONS.replace(backend="sparse")
    )
    native_key = ruleset_fingerprint(
        automaton, OPTIONS.replace(backend="native")
    )
    assert sparse_key != native_key
    assert sparse_key != ruleset_fingerprint(automaton)


@pytest.mark.parametrize("name", CORPUS)
def test_roundtrip_reports_identical(name, tmp_path):
    """Loaded artifacts scan byte-identically to the in-process compile."""
    bench = get_benchmark(name, SCALE)
    automaton = bench.automaton
    data = bench.input_stream(2000)
    compiled = compile_ruleset(automaton, OPTIONS)
    path = CompiledArtifact.from_compiled(compiled).save(
        tmp_path / f"{name}.npz"
    )
    fresh = CompiledArtifact.load(path).engine().run(data)
    direct = compiled.engine().run(data)
    assert [(r.cycle, r.state_id, r.code) for r in fresh.reports] == [
        (r.cycle, r.state_id, r.code) for r in direct.reports
    ]
