"""One benchmark for the whole stack.

    python3 benchmarks/e2e/run.py --seed 1                # all workloads
    python3 benchmarks/e2e/run.py --seed 1 --trace 1      # layer waterfall
    python3 benchmarks/e2e/run.py --selfcheck             # run-to-run check
    python3 benchmarks/e2e/run.py --workload tiny-dense --seed 1 \\
        --seconds 20 --trace 0                            # the driver's form

With ``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See README.md beside this file for the glossary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(REPO_ROOT / "src"))

try:
    import repro  # noqa: F401
except ImportError as exc:
    print(f"error: the program under test is not here: {exc}", file=sys.stderr)
    raise SystemExit(2)

import measure  # noqa: E402
import workloads  # noqa: E402


def metric(value: float, unit: str, samples=None) -> dict:
    """One named number; ``samples`` are what its quartiles print from."""
    return {"value": value, "unit": unit, "samples": list(samples or [value])}


def end_to_end_metrics(result) -> dict:
    """The metrics a user of the system sees, from one untraced run."""
    median = statistics.median
    return {
        "setup_s": metric(median(result.setup_s), "s", result.setup_s),
        "lib_scan_mbps": metric(
            median(result.lib_mbps), "MB/s", result.lib_mbps
        ),
        "scan_mbps": metric(median(result.scan_mbps), "MB/s", result.scan_mbps),
        "feed_p50_ms": metric(
            measure.percentile(result.feed_ms, 50), "ms", result.feed_ms
        ),
        "peak_rss_mb": metric(result.peak_rss_mb, "MB"),
    }


def provenance(args, seconds: float) -> dict:
    """What the numbers were taken on (printed and saved beside them)."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, text=True,
            capture_output=True, timeout=10,
        ).stdout.strip() or None  # fmt: skip
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "connections": workloads.CONNECTIONS,
        "python": platform.python_version(),
        "git_commit": commit,
        "seed": args.seed,
        "seconds": seconds,
        "phase_seconds": {
            name: share * seconds
            for name, share in workloads.PHASE_SHARES.items()
        },
        "comparable": not args.quick,
    }


def run_workload(name: str, args, seconds: float, scratch: Path) -> dict:
    """One run of one workload; returns the result document."""
    inputs = workloads.prepare(workloads.BY_NAME[name], args.seed)
    if args.trace:
        import layers

        values, ops = layers.run_traced(inputs, seconds, scratch, OUT)
        metrics = {key: metric(v, unit) for key, (v, unit) in values.items()}
        host_speed = values["host.speed"][0]
    else:
        import phases

        result = phases.run_end_to_end(inputs, seconds, scratch)
        metrics, ops = end_to_end_metrics(result), result.ops
        host_speed = measure.CALIBRATION_NOMINAL_S / statistics.median(
            result.passes
        )
    return {
        "workload": name,
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "errors": ops.errors,
        #: median host speed over the run, 1.0 = nominal (calibrated
        #: metrics are already rescaled by it)
        "host_speed": host_speed,
        "metrics": metrics,
    }


def print_table(document: dict) -> None:
    print(
        f"\n{document['workload']}: {document['attempted']} ops attempted, "
        f"{document['failed']} failed (failed_ops_share "
        f"{document['failed'] / document['attempted']:.6f}); "
        f"host at {document['host_speed']:.2f} of nominal speed"
    )
    print(
        f"  {'metric':34} {'unit':6} {'value':>12} "
        f"{'n':>6} {'q1':>12} {'median':>12} {'q3':>12}  tail"
    )
    for key, m in document["metrics"].items():
        samples = m["samples"]
        q1, q2, q3 = measure.quartiles(samples)
        # the highest percentile with at least ten samples beyond it
        top = measure.highest_supported_percentile(len(samples))
        tail = (
            f"p{top:g}={measure.percentile(samples, top):.6g}"
            if top and top > 50
            else ""
        )
        print(
            f"  {key:34} {m['unit']:6} {m['value']:12.6g} "
            f"{len(samples):6d} {q1:12.6g} {q2:12.6g} {q3:12.6g}  {tail}"
        )
    for error in document["errors"]:
        print(f"  error: {error}")


def result_line(document: dict) -> str:
    """The one JSON object the driver reads."""
    return json.dumps(
        {
            "correct": document["correct"],
            "attempted": document["attempted"],
            "failed": document["failed"],
            "metrics": {
                key: {"value": m["value"], "unit": m["unit"]}
                for key, m in document["metrics"].items()
            },
        }
    )


def run_suite(args, seconds: float, scratch: Path) -> list[dict]:
    """Every workload once, tables printed as they finish."""
    documents = []
    for workload in workloads.WORKLOADS:
        document = run_workload(workload.name, args, seconds, scratch)
        print_table(document)
        documents.append(document)
    return documents


def selfcheck(args, seconds: float, scratch: Path) -> bool:
    """The untraced set twice on this tree: every end-to-end metric of
    every workload must agree within its BENCHMARK.json bound."""
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    first = run_suite(args, seconds, scratch)
    second = run_suite(args, seconds, scratch)
    agreed = all(d["correct"] for d in first + second)
    def shown(m: dict) -> str:
        q1, _, q3 = measure.quartiles(m["samples"])
        return f"{m['value']:.5g} [{q1:.4g}..{q3:.4g}]"

    print(
        f"\n{'workload':15} {'metric':15} {'first [q1..q3]':>30} "
        f"{'second [q1..q3]':>30} {'worse by':>9} {'bound':>6}"
    )
    for one, two in zip(first, second):
        for entry in spec["end_to_end"]:
            a, b = one["metrics"][entry["name"]], two["metrics"][entry["name"]]
            sign = 1 if entry["better"] == "lower" else -1
            worse = sign * (b["value"] - a["value"]) / a["value"]
            within = abs(worse) <= entry["bound"]
            agreed &= within
            print(
                f"{one['workload']:15} {entry['name']:15} {shown(a):>30} "
                f"{shown(b):>30} {worse:+9.1%} {entry['bound']:6.2f}"
                f"{'' if within else '  DISAGREE'}"
            )
    return agreed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", choices=sorted(workloads.BY_NAME))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=workloads.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true",
        help="a tenth of the phase lengths; the output is not comparable",
    )  # fmt: skip
    parser.add_argument(
        "--selfcheck", action="store_true",
        help="run the untraced set twice and compare within the bounds",
    )  # fmt: skip
    args = parser.parse_args(argv)

    # everything a run leaves behind stays in the checkout: the
    # runtime-built native kernel, artifact caches and span files
    OUT.mkdir(exist_ok=True)
    os.environ.setdefault("REPRO_NATIVE_CACHE", str(OUT / "native"))
    from repro.sim.backends.native import native_available, native_status

    if not native_available():
        # a silent numpy fallback would be measured as "native"
        print(f"error: {native_status()}", file=sys.stderr)
        return 2

    seconds = args.seconds / 10 if args.quick else args.seconds
    stamp = provenance(args, seconds)
    print(json.dumps(stamp))
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        if args.selfcheck:
            return 0 if selfcheck(args, seconds, scratch) else 1
        if args.workload:
            documents = [run_workload(args.workload, args, seconds, scratch)]
            print_table(documents[0])
        else:
            documents = run_suite(args, seconds, scratch)
        (OUT / "results.json").write_text(
            json.dumps({**stamp, "results": documents})
        )
        if args.workload:
            print(result_line(documents[0]))
        return 0 if all(d["correct"] for d in documents) else 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
