"""Unit tests of the telemetry substrate: metrics, traces, logging.

The metrics registry backs instruments inside kernel chunk loops and
the server's frame dispatch, so the tests here pin down the properties
those call sites rely on: exact counts under thread contention, no-op
behavior when disabled, import-order-independent family declaration,
and a well-formed Prometheus text rendering.  The service-level
concurrency test hammers ``MatchingService`` scans (and
``cache_stats``) from many threads and asserts the counters come out
*exact* — the single-lock design's whole claim.
"""

import io
import json
import logging
import sys
import threading

import pytest

from repro.automata import compile_regex_set
from repro.errors import ConfigError
from repro.service import MatchingService
from repro.telemetry.log import JsonFormatter, check_level, configure, get_logger
from repro.telemetry.metrics import (
    MetricsRegistry,
    default_registry,
    render_prometheus,
)
from repro.telemetry.tracing import (
    MAX_SPANS_PER_TRACE,
    Trace,
    current_trace,
    start_trace,
)


# -- metrics ---------------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_counts(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "help").labels()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_counter_rejects_negative(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "help").labels()
        with pytest.raises(ConfigError, match="only go up"):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g", "help").labels()
        gauge.inc()
        gauge.inc()
        gauge.dec()
        assert gauge.value == 1.0
        gauge.set(7)
        assert gauge.value == 7.0

    def test_histogram_buckets_cumulative(self):
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "h_seconds", "help", buckets=(0.1, 1.0)
        ).labels()
        for value in (0.05, 0.5, 0.5, 5.0):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.sum == pytest.approx(6.05)
        assert histogram.bucket_counts == [1, 2, 1]  # <=0.1, <=1.0, +Inf

    def test_labels_cache_children(self):
        registry = MetricsRegistry()
        family = registry.counter("by_backend_total", "help", ("backend",))
        assert family.labels("sparse") is family.labels("sparse")
        family.labels("sparse").inc()
        family.labels("native").inc(2)
        assert family.labels("sparse").value == 1.0
        assert family.labels("native").value == 2.0

    def test_label_arity_checked(self):
        registry = MetricsRegistry()
        family = registry.counter("arity_total", "help", ("a", "b"))
        with pytest.raises(ConfigError, match="takes labels"):
            family.labels("only-one")

    def test_redeclare_same_family_returns_existing(self):
        # import order must never matter: two modules declaring the
        # same family get the same object
        registry = MetricsRegistry()
        first = registry.counter("shared_total", "help", ("k",))
        second = registry.counter("shared_total", "other help", ("k",))
        assert first is second

    def test_redeclare_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("clash_total", "help", ("k",))
        with pytest.raises(ConfigError, match="already registered"):
            registry.gauge("clash_total", "help", ("k",))
        with pytest.raises(ConfigError, match="already registered"):
            registry.counter("clash_total", "help", ("other",))

    def test_bad_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigError, match="invalid metric"):
            registry.counter("has space", "help")
        with pytest.raises(ConfigError, match="invalid metric"):
            registry.counter("ok_total", "help", ("bad-label",))

    def test_disabled_registry_is_a_no_op(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("c_total", "help").labels()
        gauge = registry.gauge("g", "help").labels()
        histogram = registry.histogram("h_seconds", "help").labels()
        counter.inc()
        gauge.set(5)
        histogram.observe(1.0)
        assert counter.value == 0.0
        assert gauge.value == 0.0
        assert histogram.count == 0
        registry.enable()
        counter.inc()
        assert counter.value == 1.0

    def test_default_registry_is_process_wide(self):
        assert default_registry() is default_registry()

    def test_thread_hammer_exact_counts(self):
        """N threads x M increments never lose an update."""
        registry = MetricsRegistry()
        counter = registry.counter("hammer_total", "help").labels()
        histogram = registry.histogram(
            "hammer_seconds", "help", buckets=(0.5,)
        ).labels()
        threads, per_thread = 8, 2000

        def work():
            for _ in range(per_thread):
                counter.inc()
                histogram.observe(0.1)

        pool = [threading.Thread(target=work) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        assert counter.value == threads * per_thread
        assert histogram.count == threads * per_thread
        assert histogram.bucket_counts[0] == threads * per_thread


class TestPrometheusRendering:
    def test_text_format(self):
        registry = MetricsRegistry()
        registry.counter("req_total", "Requests", ("op",)).labels("scan").inc(3)
        registry.gauge("depth", "Queue depth").labels().set(2)
        hist = registry.histogram("lat_seconds", "Latency", buckets=(0.1, 1.0))
        hist.labels().observe(0.05)
        hist.labels().observe(0.5)
        text = render_prometheus(registry)
        lines = text.splitlines()
        assert "# TYPE req_total counter" in lines
        assert 'req_total{op="scan"} 3' in lines
        assert "depth 2" in lines
        assert 'lat_seconds_bucket{le="0.1"} 1' in lines
        assert 'lat_seconds_bucket{le="1"} 2' in lines
        assert 'lat_seconds_bucket{le="+Inf"} 2' in lines
        assert "lat_seconds_count 2" in lines
        assert text.endswith("\n")

    def test_default_registry_covers_every_layer(self):
        # importing the serving stack declares the built-in families;
        # the catalog must span kernel, cache, compile, service and
        # server layers (the >=12-series acceptance floor lives in
        # tests/test_ledger.py against a live server)
        import repro.service.server  # noqa: F401  (declares server metrics)

        families = default_registry().collect().keys()
        for prefix in (
            "repro_kernel_",
            "repro_ruleset_cache_",
            "repro_compile_",
            "repro_dispatcher_",
            "repro_service_",
            "repro_session_",
            "repro_server_",
        ):
            assert any(name.startswith(prefix) for name in families), prefix


class TestServiceCounterExactness:
    def test_concurrent_scans_exact_cache_counters(self):
        """Satellite: hammer one service from N threads; counters exact.

        Both rulesets are primed first, so every threaded scan is a
        dispatcher-cache hit; the ``repro_service_scans_total`` deltas
        must come out exact — no lost updates, no double counts.
        ``cache_stats`` is read concurrently from a spectator thread to
        make sure reading never tears or deadlocks.
        """
        registry = default_registry()
        scans = registry.counter(
            "repro_service_scans_total",
            "One-shot service scans, by dispatcher-cache outcome",
            ("cached",),
        )
        rulesets = [
            compile_regex_set({"r1": "abc"}, name="hammer-a"),
            compile_regex_set({"r1": "xy+z"}, name="hammer-b"),
        ]
        threads, per_thread = 6, 10
        service = MatchingService()
        for ruleset in rulesets:  # compile both outside the race
            service.scan(ruleset, b"abcxyz")
        hits0 = scans.labels("hit").value
        misses0 = scans.labels("miss").value
        stats = service.cache_stats
        compiles0 = (stats.hits, stats.misses)
        stop = threading.Event()
        snapshots = []

        def spectate():
            while not stop.is_set():
                current = service.cache_stats
                snapshots.append((current.hits, current.misses))

        def work(index):
            for i in range(per_thread):
                service.scan(rulesets[(index + i) % 2], b"abcxyz" * 10)

        spectator = threading.Thread(target=spectate)
        spectator.start()
        pool = [
            threading.Thread(target=work, args=(i,)) for i in range(threads)
        ]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        stop.set()
        spectator.join()
        total = threads * per_thread
        assert scans.labels("hit").value - hits0 == total
        assert scans.labels("miss").value - misses0 == 0
        # every warm scan is one table hit and builds nothing
        stats = service.cache_stats
        assert (stats.hits - compiles0[0], stats.misses) == (
            total,
            compiles0[1],
        )
        # ledger totals untouched: no scan asked for the ledger
        assert service.ledger_totals.scans == 0
        # spectator snapshots never exceed the final counts
        assert all(
            h <= stats.hits and m <= stats.misses for h, m in snapshots
        )
        service.close()


# -- tracing ---------------------------------------------------------------


class TestTracing:
    def test_span_nesting(self):
        trace = Trace()
        with trace.span("outer", a=1):
            with trace.span("inner"):
                pass
        assert [s.name for s in trace.spans] == ["inner", "outer"]
        inner, outer = trace.spans
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id
        assert outer.attrs == {"a": 1}
        assert outer.duration_s >= inner.duration_s >= 0.0

    def test_add_span_attaches_pretimed_work(self):
        trace = Trace()
        with trace.span("parent"):
            trace.add_span("compile.map", 0.25, entries=10)
        child = next(s for s in trace.spans if s.name == "compile.map")
        assert child.duration_s == 0.25
        assert child.parent_id is not None
        assert child.attrs == {"entries": 10}

    def test_contextvar_propagation(self):
        assert current_trace() is None
        with start_trace() as trace:
            assert current_trace() is trace
            with start_trace(Trace("a" * 32)) as nested:
                assert current_trace() is nested
            assert current_trace() is trace
        assert current_trace() is None

    def test_span_cap_counts_dropped(self):
        trace = Trace()
        for _ in range(MAX_SPANS_PER_TRACE + 5):
            with trace.span("s"):
                pass
        assert len(trace.spans) == MAX_SPANS_PER_TRACE
        assert trace.dropped == 5
        assert f"{trace.dropped} span(s) dropped" in trace.render()

    def test_merge_child_reparents(self):
        parent = Trace()
        with parent.span("scan") as root:
            pass
        child = Trace()
        with child.span("chunk"):
            pass
        parent.merge_child(child, root.span_id)
        merged = next(s for s in parent.spans if s.name == "chunk")
        assert merged.parent_id == root.span_id
        # ids were offset, not collided
        assert len({s.span_id for s in parent.spans}) == len(parent.spans)

    def test_roundtrip_and_render(self):
        trace = Trace()
        with trace.span("scan", bytes=100):
            with trace.span("shard", shard=0):
                pass
        copy = Trace.from_dict(trace.to_dict())
        assert copy.trace_id == trace.trace_id
        assert [s.name for s in copy.spans] == [s.name for s in trace.spans]
        rendered = copy.render()
        assert rendered.splitlines()[0] == f"trace {trace.trace_id}"
        assert "- scan" in rendered and "- shard" in rendered
        assert "[shard=0]" in rendered


# -- structured logging ----------------------------------------------------


@pytest.fixture
def log_stream():
    stream = io.StringIO()
    handler = configure("debug", stream=stream)
    yield stream
    logging.getLogger("repro").removeHandler(handler)


class TestStructuredLogging:
    def read(self, stream):
        return [json.loads(line) for line in stream.getvalue().splitlines()]

    def test_json_lines(self, log_stream):
        log = get_logger("repro.test")
        log.info("thing.happened", count=3, name="x")
        (record,) = self.read(log_stream)
        assert record["event"] == "thing.happened"
        assert record["level"] == "info"
        assert record["logger"] == "repro.test"
        assert record["count"] == 3 and record["name"] == "x"
        assert isinstance(record["ts"], float)

    def test_trace_id_attached_from_context(self, log_stream):
        log = get_logger("repro.test")
        with start_trace() as trace:
            log.info("traced.event")
        log.info("untraced.event")
        traced, untraced = self.read(log_stream)
        assert traced["trace_id"] == trace.trace_id
        assert "trace_id" not in untraced

    def test_level_filtering(self, log_stream):
        logging.getLogger("repro").setLevel(logging.WARNING)
        log = get_logger("repro.test")
        log.debug("quiet")
        log.info("quiet")
        log.warning("loud")
        records = self.read(log_stream)
        assert [r["event"] for r in records] == ["loud"]

    def test_configure_replaces_own_handler(self):
        first = configure("info", stream=io.StringIO())
        second = configure("info", stream=io.StringIO())
        try:
            installed = [
                h
                for h in logging.getLogger("repro").handlers
                if getattr(h, "_repro_telemetry", False)
            ]
            assert installed == [second]
            assert first not in logging.getLogger("repro").handlers
        finally:
            logging.getLogger("repro").removeHandler(second)

    def test_check_level_rejects_junk(self):
        assert check_level("WARNING") == logging.WARNING
        with pytest.raises(ConfigError, match="unknown log level"):
            check_level("chatty")

    def test_exception_field(self):
        formatter = JsonFormatter()
        try:
            raise ValueError("boom")
        except ValueError:
            record = logging.LogRecord(
                "repro.test",
                logging.ERROR,
                __file__,
                1,
                "it.broke",
                None,
                exc_info=sys.exc_info(),
            )
        payload = json.loads(formatter.format(record))
        assert payload["exception"] == "ValueError('boom')"
