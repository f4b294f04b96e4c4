"""Observability for the whole stack: metrics, traces, hardware ledger.

Three pillars, importable independently:

:mod:`repro.telemetry.metrics`
    Dependency-free, thread-safe metrics registry (counters, gauges,
    fixed-bucket histograms) instrumenting kernel chunk loops, compile
    passes, the ruleset/artifact caches, shard fan-out, and the network
    server.  Near-zero cost when disabled; Prometheus text exposition
    via :func:`render_prometheus` and the server's ``metrics`` op.
:mod:`repro.telemetry.tracing`
    Opt-in per-scan span trees (scan -> shards -> chunks, plus compile
    passes) carried through a contextvar; the ``trace_id`` is echoed in
    protocol frames and CLI output.
:mod:`repro.telemetry.ledger`
    The opt-in hardware ledger: modeled CAMA energy (Fig. 12
    breakdown), cycle latency, and tile occupancy attached to scan
    results via a reference re-run on the Python sparse kernel that
    reproduces the offline experiments' accounting exactly — at ~900x
    the cost of a plain native scan (0.033 vs 29.4 MB/s, Snort 1/32).

Plus :mod:`repro.telemetry.log`, the JSON-lines structured logger the
server uses.

The ledger depends on :mod:`repro.arch` (which sits *above* the
simulator), so it is re-exported lazily — importing
``repro.telemetry`` from low layers (``repro.sim``) stays cheap and
cycle-free.
"""

from __future__ import annotations

from repro.telemetry.log import configure as configure_logging
from repro.telemetry.log import get_logger
from repro.telemetry.metrics import (
    MetricsRegistry,
    default_registry,
    disable,
    enable,
    render_prometheus,
)
from repro.telemetry.tracing import (
    Span,
    Trace,
    current_trace,
    new_trace_id,
    start_trace,
)

_LEDGER_NAMES = (
    "HardwareLedger",
    "LedgerAccumulator",
    "LedgerProbe",
    "check_ledger_design",
)

__all__ = [
    "MetricsRegistry",
    "Span",
    "Trace",
    "configure_logging",
    "current_trace",
    "default_registry",
    "disable",
    "enable",
    "get_logger",
    "new_trace_id",
    "render_prometheus",
    "start_trace",
    *_LEDGER_NAMES,
]


def __getattr__(name: str):
    if name in _LEDGER_NAMES:
        from repro.telemetry import ledger

        return getattr(ledger, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
