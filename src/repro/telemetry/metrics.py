"""A dependency-free, thread-safe metrics registry.

Instrumentation scattered through hot paths must cost (almost) nothing
when nobody is looking, so the design center is the *disabled* case:
every instrument handed out by :class:`MetricsRegistry` checks one
boolean attribute before touching its lock.  When telemetry is off the
whole observation is an attribute load and a branch — cheap enough to
leave in kernel chunk loops, cache lookups, and the server's frame
dispatch (the telemetry-overhead benchmark in
``benchmarks/bench_telemetry.py`` holds this to <5% on the dense
micro-workload).

Model (a deliberately small subset of the Prometheus one):

``Counter``
    Monotonically increasing float, ``inc(amount)``.
``Gauge``
    Settable float, ``set(value)`` / ``inc()`` / ``dec()``.
``Histogram``
    Fixed upper-bound buckets (cumulative, ``+Inf`` implied) plus
    ``_sum``/``_count``, ``observe(value)``.

Instruments are created through family objects
(:meth:`MetricsRegistry.counter` etc.) that carry the metric name,
help string, and label *names*; concrete children are materialized per
label-*value* tuple via :meth:`Family.labels` and cached, so hot paths
resolve their child once and hold it.  Everything is guarded by one
registry-wide lock — observation rates here are per-chunk / per-frame,
not per-cycle, so a single lock is simpler than sharding and plenty
fast (the concurrency tests hammer it from many threads and assert
exact counts).

A module-level :func:`default_registry` serves the whole process; the
``REPRO_TELEMETRY`` environment variable (``0``/``false``/``off`` to
disable, anything else to enable; unset = enabled) sets its initial
state, and :func:`enable`/:func:`disable` flip it at runtime.
:func:`render_prometheus` exposes the registry in the Prometheus text
format (v0.0.4) for the server's ``metrics`` op.
"""

from __future__ import annotations

import math
import os
import threading
from typing import Iterable, Mapping

from repro.errors import ConfigError

__all__ = [
    "Counter",
    "Family",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "default_registry",
    "disable",
    "enable",
    "render_prometheus",
]

#: default latency buckets (seconds): 100us .. 30s, roughly x3 steps
DEFAULT_SECONDS_BUCKETS = (
    0.0001,
    0.0003,
    0.001,
    0.003,
    0.01,
    0.03,
    0.1,
    0.3,
    1.0,
    3.0,
    10.0,
    30.0,
)


def _check_name(name: str) -> str:
    if not name or not all(c.isalnum() or c == "_" for c in name):
        raise ConfigError(
            f"invalid metric/label name {name!r} (use [a-zA-Z0-9_])"
        )
    return name


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("registry", "value")

    def __init__(self, registry: "MetricsRegistry") -> None:
        self.registry = registry
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        registry = self.registry
        if not registry.enabled:
            return
        if amount < 0:
            raise ConfigError("counters only go up; use a Gauge")
        with registry._lock:
            self.value += amount


class Gauge:
    """A value that can go up and down (queue depths, occupancy)."""

    __slots__ = ("registry", "value")

    def __init__(self, registry: "MetricsRegistry") -> None:
        self.registry = registry
        self.value = 0.0

    def set(self, value: float) -> None:
        registry = self.registry
        if not registry.enabled:
            return
        with registry._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        registry = self.registry
        if not registry.enabled:
            return
        with registry._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)


class Histogram:
    """Fixed-bucket distribution (cumulative buckets, +Inf implied)."""

    __slots__ = ("registry", "bounds", "bucket_counts", "sum", "count")

    def __init__(
        self, registry: "MetricsRegistry", bounds: tuple[float, ...]
    ) -> None:
        self.registry = registry
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # last = +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        registry = self.registry
        if not registry.enabled:
            return
        with registry._lock:
            self.sum += value
            self.count += 1
            for i, bound in enumerate(self.bounds):
                if value <= bound:
                    self.bucket_counts[i] += 1
                    return
            self.bucket_counts[-1] += 1


class Family:
    """One named metric with label names; children per label values."""

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help: str,
        kind: str,
        label_names: tuple[str, ...],
        buckets: tuple[float, ...] | None = None,
    ) -> None:
        self.registry = registry
        self.name = _check_name(name)
        self.help = help
        self.kind = kind
        self.label_names = tuple(_check_name(n) for n in label_names)
        self.buckets = buckets
        self._children: dict[tuple[str, ...], Counter | Gauge | Histogram] = {}

    def labels(self, *values: str) -> Counter | Gauge | Histogram:
        """The child for one label-value tuple (created on first use)."""
        child = self._children.get(values)
        if child is not None:  # string values of an existing child
            return child
        if len(values) != len(self.label_names):
            raise ConfigError(
                f"metric {self.name!r} takes labels {self.label_names}, "
                f"got {len(values)} value(s)"
            )
        key = tuple(str(v) for v in values)
        child = self._children.get(key)
        if child is None:
            with self.registry._lock:
                child = self._children.get(key)
                if child is None:
                    if self.kind == "counter":
                        child = Counter(self.registry)
                    elif self.kind == "gauge":
                        child = Gauge(self.registry)
                    else:
                        child = Histogram(self.registry, self.buckets)
                    self._children[key] = child
        return child


class MetricsRegistry:
    """Holds every metric family; hands out instruments by name.

    Re-declaring a family with the same name returns the existing one
    (so import-order never matters) but raises on a kind or label-name
    mismatch — two call sites disagreeing about a metric is a bug.
    """

    def __init__(self, *, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._families: dict[str, Family] = {}

    # -- declaration ------------------------------------------------------
    def _family(
        self,
        name: str,
        help: str,
        kind: str,
        label_names: Iterable[str],
        buckets: tuple[float, ...] | None = None,
    ) -> Family:
        label_names = tuple(label_names)
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if existing.kind != kind or existing.label_names != label_names:
                    raise ConfigError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}{existing.label_names}, cannot "
                        f"re-register as {kind}{label_names}"
                    )
                return existing
            family = Family(self, name, help, kind, label_names, buckets)
            self._families[name] = family
            return family

    def counter(
        self, name: str, help: str, label_names: Iterable[str] = ()
    ) -> Family:
        return self._family(name, help, "counter", label_names)

    def gauge(
        self, name: str, help: str, label_names: Iterable[str] = ()
    ) -> Family:
        return self._family(name, help, "gauge", label_names)

    def histogram(
        self,
        name: str,
        help: str,
        label_names: Iterable[str] = (),
        buckets: tuple[float, ...] = DEFAULT_SECONDS_BUCKETS,
    ) -> Family:
        if not buckets or list(buckets) != sorted(buckets):
            raise ConfigError("histogram buckets must be sorted and non-empty")
        return self._family(name, help, "histogram", label_names, tuple(buckets))

    # -- state ------------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop every recorded value (families stay declared).  Tests only."""
        with self._lock:
            for family in self._families.values():
                family._children.clear()

    # -- introspection ----------------------------------------------------
    def collect(self) -> dict[str, dict]:
        """Snapshot: ``{name: {kind, help, samples: {labels: value}}}``.

        Counter/gauge samples are floats; histogram samples are dicts
        with ``sum``/``count``/``buckets``.  The snapshot is taken under
        the lock, so concurrent increments never produce torn reads.
        """
        out: dict[str, dict] = {}
        with self._lock:
            for name, family in sorted(self._families.items()):
                samples: dict[tuple[str, ...], object] = {}
                for key, child in family._children.items():
                    if isinstance(child, Histogram):
                        samples[key] = {
                            "sum": child.sum,
                            "count": child.count,
                            "buckets": list(
                                zip(child.bounds, child.bucket_counts)
                            ),
                            "inf": child.bucket_counts[-1],
                        }
                    else:
                        samples[key] = child.value
                out[name] = {
                    "kind": family.kind,
                    "help": family.help,
                    "label_names": family.label_names,
                    "samples": samples,
                }
        return out


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _label_str(names: tuple[str, ...], values: tuple[str, ...], extra="") -> str:
    pairs = [
        f'{n}="{v}"'
        for n, v in zip(names, values)
    ]
    if extra:
        pairs.append(extra)
    return "{" + ",".join(pairs) + "}" if pairs else ""


def render_prometheus(registry: MetricsRegistry | None = None) -> str:
    """The registry in the Prometheus text exposition format (0.0.4)."""
    registry = registry if registry is not None else default_registry()
    lines: list[str] = []
    for name, family in registry.collect().items():
        lines.append(f"# HELP {name} {family['help']}")
        lines.append(f"# TYPE {name} {family['kind']}")
        label_names = family["label_names"]
        for values, sample in sorted(family["samples"].items()):
            if family["kind"] == "histogram":
                cumulative = 0
                for bound, count in sample["buckets"]:
                    cumulative += count
                    lines.append(
                        f"{name}_bucket"
                        + _label_str(
                            label_names, values, f'le="{_format_value(bound)}"'
                        )
                        + f" {cumulative}"
                    )
                cumulative += sample["inf"]
                lines.append(
                    f"{name}_bucket"
                    + _label_str(label_names, values, 'le="+Inf"')
                    + f" {cumulative}"
                )
                lines.append(
                    f"{name}_sum"
                    + _label_str(label_names, values)
                    + f" {_format_value(sample['sum'])}"
                )
                lines.append(
                    f"{name}_count"
                    + _label_str(label_names, values)
                    + f" {sample['count']}"
                )
            else:
                lines.append(
                    name
                    + _label_str(label_names, values)
                    + f" {_format_value(sample)}"
                )
    return "\n".join(lines) + "\n"


def _env_enabled() -> bool:
    raw = os.environ.get("REPRO_TELEMETRY", "").strip().lower()
    return raw not in ("0", "false", "off", "no")


_DEFAULT = MetricsRegistry(enabled=_env_enabled())


def default_registry() -> MetricsRegistry:
    """The process-wide registry every built-in instrument lives in."""
    return _DEFAULT


def enable() -> None:
    """Turn telemetry collection on for the process-wide registry."""
    _DEFAULT.enable()


def disable() -> None:
    """Turn telemetry collection off (instruments become no-ops)."""
    _DEFAULT.disable()
