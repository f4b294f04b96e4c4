"""Measurement arithmetic: percentiles, digests, spans, host-speed calibration.

Nothing here touches the program under test, so ``test_harness.py``
checks every rule in milliseconds.  A phase's value is the
``statistics.median`` of its interleaved rounds.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from dataclasses import dataclass, field

#: percentiles a latency summary may report, lowest first
PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)

#: a percentile is reported only with this many samples beyond it
MIN_TAIL_SAMPLES = 10


def percentile(samples: list[float], q: float) -> float:
    """The ``q``-th percentile (0..100) of ``samples``, interpolated."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def highest_supported_percentile(count: int) -> float | None:
    """The highest of :data:`PERCENTILES` with at least
    :data:`MIN_TAIL_SAMPLES` of ``count`` samples beyond it (None when
    even the median has fewer)."""
    # in thousandths, so that 100 samples past p90 count as exactly 10
    supported = [
        p
        for p in PERCENTILES
        if count * (1000 - round(p * 10)) >= MIN_TAIL_SAMPLES * 1000
    ]
    return supported[-1] if supported else None


def quartiles(samples: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them; a
    single sample is its own quartiles."""
    if len(samples) < 2:
        return (samples[0], samples[0], samples[0])
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return (q1, q2, q3)


def report_keys(reports) -> list[tuple[int, int, str]]:
    """Reports as sorted ``(cycle, state_id, code)`` tuples: the form
    every result is compared in (kernels may order one cycle's reports
    differently)."""
    return sorted((r.cycle, r.state_id, r.code or "") for r in reports)


def digest(keys: list[tuple[int, int, str]]) -> str:
    """Hex digest over ``(cycle, state_id, code)`` tuples."""
    hasher = hashlib.sha256()
    for cycle, state_id, code in keys:
        hasher.update(f"{cycle},{state_id},{code};".encode())
    return hasher.hexdigest()


@dataclass
class Span:
    """One timed call into a layer, made from the benchmark's files."""

    name: str
    block: str
    start_ns: int
    end_ns: int
    nbytes: int = 0

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


@dataclass
class SpanLog:
    """Spans kept in memory; written out once when the run ends.

    ``block`` is the id every span of one workload block shares.
    """

    block: str
    spans: list[Span] = field(default_factory=list)

    def timed(self, name: str, fn, nbytes: int = 0):
        """Call ``fn()`` inside a span; returns its result."""
        start = time.perf_counter_ns()
        result = fn()
        self.spans.append(
            Span(name, self.block, start, time.perf_counter_ns(), nbytes)
        )
        return result

    def to_json(self) -> list[dict]:
        return [
            {
                "name": s.name,
                "block": s.block,
                "start_ns": s.start_ns,
                "end_ns": s.end_ns,
                "bytes": s.nbytes,
            }
            for s in self.spans
        ]


def median_durations(spans: list[Span]) -> dict[str, float]:
    """Median span duration in ns, per span name."""
    by_name: dict[str, list[int]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span.duration_ns)
    return {name: statistics.median(d) for name, d in by_name.items()}


def self_time(medians: dict[str, float], name: str, *below: str) -> float:
    """A layer's median minus the medians of the layers below it that
    ran on the same bytes: the time the layer itself adds."""
    return medians[name] - sum(medians[b] for b in below)


# -- host-speed calibration ---------------------------------------------------

#: nominal seconds of one :func:`calibration_pass` (this container when
#: its host is quiet); calibrated metrics read "at this host speed"
CALIBRATION_NOMINAL_S = 0.34e-3


def calibration_pass() -> float:
    """Seconds one fixed interpreter loop takes right now.

    The sandbox's vCPUs change speed by up to 2x for seconds to minutes
    at a time (neighbours on the physical host), and everything
    CPU-bound slows with them: this loop tracks a C kernel loop on the
    same core to ~1% and a server in another process to ~10%.  Timing
    it right after an op and reporting ``op x nominal / pass`` gives the
    op's time at nominal host speed instead of at whatever regime the
    run landed in.
    """
    start = time.perf_counter()
    total = 0
    for i in range(10000):
        total += i * i
    return time.perf_counter() - start


def calibrated(seconds: float, pass_seconds: float) -> float:
    """``seconds`` rescaled to nominal host speed."""
    return seconds * CALIBRATION_NOMINAL_S / pass_seconds


def median_pass(spin_seconds: float = 0.02) -> float:
    """Median :func:`calibration_pass` over ``spin_seconds``: the host
    speed around an operation too long to bracket op by op."""
    passes = []
    deadline = time.perf_counter() + spin_seconds
    while time.perf_counter() < deadline:
        passes.append(calibration_pass())
    return statistics.median(passes)
