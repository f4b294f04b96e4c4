"""Columnar reports: the ReportBatch view, an oracle-differential matrix
over every path that carries a batch, the zero-report path, the served
report bytes, and the wire codec (round trips and hostile payloads).

A :class:`ReportBatch` rides from the kernel through ``Engine``,
``Dispatcher``, ``Session`` and ``MatchingService`` to the server's
encoder; every stage is compared here with ``tests/oracle.py`` —
backends x shard counts (including a non-identity shard id remap) x
chunk splits x recording caps, one stream dense enough that the native
loop's 4096-entry report buffer pauses and resumes.
"""

import pickle
import struct
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import oracle_run
from repro.api import ScanConfig
from repro.automata.glushkov import compile_regex_set
from repro.automata.nfa import Automaton, StartKind
from repro.service import (
    BackgroundServer,
    Dispatcher,
    MatchingClient,
    MatchingService,
)
from repro.service import protocol
from repro.service.protocol import (
    EMPTY_WIRE_REPORTS,
    ProtocolError,
    decode_frame,
    decode_reports,
    encode_data,
    encode_frame,
    encode_reports,
    ok_frame,
)
from repro.errors import SimulationError
from repro.service.sharding import (
    abandoned_when,
    iter_chunks,
    make_shards,
    merge_shard_stats,
)
from repro.sim.backends import DEFAULT_MAX_KEPT_REPORTS
from repro.sim.backends.base import EngineState
from repro.sim.engine import Engine
from repro.sim.backends.native import native_available
from repro.sim.reports import EMPTY_REPORTS, Report, ReportBatch
from repro.workloads import benchmark_input
from wire import RawConn

BACKENDS = ["sparse", "native"]

#: overlapping rules: a run of 'a' fires three states per byte
RULES = {
    "one": "a",
    "run": "a+",
    "pair": "[a-c]a",
    "abc": "abc",
    "tail": "b+c?",
}

#: ~9000 reports in the leading burst: more than the native loop's
#: report buffer holds, so it pauses and resumes inside one chunk
STREAM = b"a" * 3000 + b"xabcbbbc" * 20 + b"zz" * 40

#: one chunk; a split 2000 bytes into the burst (6000 reports before
#: it, so the pause happens on both sides of the split)
CHUNKINGS = {"whole": len(STREAM), "mid-burst": 2000}

#: 3 cuts cycle 1's three simultaneous reports after the first; 4098
#: lands past the first drain of the native report buffer
CAPS = [None, 0, 1, 3, 4098]


def ruleset():
    """RULES behind a reporterless component: the dispatcher drops it,
    so even one shard maps local state ids through a non-identity
    gather (local 0 is global 2)."""
    nfa = Automaton(name="columnar")
    quiet = nfa.add_state("q", start=StartKind.ALL_INPUT)
    nfa.add_transition(quiet, nfa.add_state("z"))
    nfa.merge(compile_regex_set(RULES))
    return nfa


@pytest.fixture(scope="module")
def nfa():
    return ruleset()


@pytest.fixture(scope="module")
def oracle(nfa):
    return oracle_run(nfa, STREAM).reports


def expected(oracle, cap):
    """What a run capped at ``cap`` records, and whether it truncates."""
    if cap is None:
        cap = DEFAULT_MAX_KEPT_REPORTS
    return oracle[:cap], len(oracle) > cap


def assert_batch(batch, want):
    assert isinstance(batch, ReportBatch)
    assert batch.cycles.dtype == batch.state_ids.dtype == np.int64
    assert batch == want


def sample_batch():
    return ReportBatch(
        np.array([1, 1, 3, 5], dtype=np.int64),
        np.array([0, 2, 1, 2], dtype=np.int64),
        ["a", None, "c"],
    )


SAMPLE = [Report(1, 0, "a"), Report(1, 2, "c"), Report(3, 1), Report(5, 2, "c")]


class TestView:
    def test_len_index_and_negative_index(self):
        batch = sample_batch()
        assert len(batch) == 4
        assert batch[0] == SAMPLE[0]
        assert batch[-1] == SAMPLE[-1]
        assert batch[-3] == SAMPLE[1]
        with pytest.raises(IndexError):
            batch[4]

    def test_slices_are_batches(self):
        batch = sample_batch()
        for part in (slice(1, 3), slice(None, -1), slice(None, None, 2)):
            assert isinstance(batch[part], ReportBatch)
            assert batch[part] == SAMPLE[part]
        assert batch[4:] == [] and not batch[4:]

    def test_iteration_order_and_equality(self):
        batch = sample_batch()
        assert list(batch) == SAMPLE
        assert batch == SAMPLE and SAMPLE == batch
        assert batch == tuple(SAMPLE)
        assert batch != SAMPLE[:-1]
        assert batch != list(reversed(SAMPLE))
        assert batch != "not reports"
        assert Report(3, 1) in batch and batch.index(Report(3, 1)) == 2

    def test_repr(self):
        assert repr(sample_batch()[:1]) == (
            "ReportBatch([Report(cycle=1, state_id=0, code='a')])"
        )
        assert repr(EMPTY_REPORTS) == "ReportBatch([])"
        many = ReportBatch(np.arange(10), np.zeros(10, dtype=np.int64), ["x"])
        assert repr(many).endswith(
            "Report(cycle=5, state_id=0, code='x'), ... 4 more])"
        )

    def test_pickles(self):
        batch = sample_batch()
        again = pickle.loads(pickle.dumps(batch))
        assert isinstance(again, ReportBatch) and again == SAMPLE

    def test_empty_batch_is_immutable(self):
        assert len(EMPTY_REPORTS) == 0 and EMPTY_REPORTS == []
        with pytest.raises(ValueError):
            EMPTY_REPORTS.cycles[:] = 1
        with pytest.raises(AttributeError):
            EMPTY_REPORTS.codes = ["x"]

    def test_concat(self):
        batch = sample_batch()
        joined = ReportBatch.concat([batch[:2], EMPTY_REPORTS, batch[2:]])
        assert joined == SAMPLE
        assert ReportBatch.concat([EMPTY_REPORTS, batch]) is batch
        assert ReportBatch.concat([]) is EMPTY_REPORTS


# -- the oracle-differential matrix -----------------------------------------


@pytest.mark.parametrize("cap", CAPS)
@pytest.mark.parametrize("chunking", list(CHUNKINGS))
@pytest.mark.parametrize("shards", [1, 3])
@pytest.mark.parametrize("backend", BACKENDS)
def test_scan_matches_oracle(nfa, oracle, backend, shards, chunking, cap):
    want, truncated = expected(oracle, cap)
    config = ScanConfig(backend=backend, num_shards=shards)
    with MatchingService(config) as service:
        result = service.scan(
            nfa, STREAM, chunk_size=CHUNKINGS[chunking], max_reports=cap
        )
    assert_batch(result.batch, want)
    assert result.reports is result.batch
    assert result.truncated == truncated
    assert result.num_reports == len(oracle)


@pytest.mark.parametrize("cap", [None, 1, 3, 4098])
@pytest.mark.parametrize("shards", [1, 3])
@pytest.mark.parametrize("backend", BACKENDS)
def test_session_feeds_match_oracle(nfa, oracle, backend, shards, cap):
    want, truncated = expected(oracle, cap)
    config = ScanConfig(backend=backend, num_shards=shards)
    with MatchingService(config) as service:
        session = service.open_session(
            nfa, "s", max_reports=cap, on_truncation="ignore"
        )
        fed = [session.feed(chunk) for chunk in iter_chunks(STREAM, 2000)]
        assert_batch(ReportBatch.concat(fed), want)
        assert_batch(session.reports, want)
        assert session.truncated == truncated
        if cap is not None:
            assert session.report_budget == cap - len(want)
        closed = session.close()
    assert closed.reports == want
    assert closed.stats.num_reports == len(oracle)


@pytest.mark.parametrize("shards", [1, 3])
@pytest.mark.parametrize("backend", BACKENDS)
def test_one_byte_chunks_match_oracle(nfa, backend, shards):
    data = STREAM[2990:3100]
    want = oracle_run(nfa, data).reports
    config = ScanConfig(backend=backend, num_shards=shards)
    with MatchingService(config) as service:
        assert service.scan(nfa, data, chunk_size=1).reports == want
        session = service.open_session(nfa, "bytes")
        fed = [session.feed(data[i : i + 1]) for i in range(len(data))]
        assert ReportBatch.concat(fed) == want
        assert session.reports == want


@pytest.mark.parametrize(
    "rows", [64, 1, 2], ids=["batched", "sequential", "pairs"]
)
@pytest.mark.parametrize("cap", [None, 3])
@pytest.mark.parametrize("shards", [1, 3])
@pytest.mark.parametrize("backend", BACKENDS)
def test_scan_many_matches_oracle(nfa, backend, shards, cap, rows):
    """In 700-byte chunks the streams end on different steps — after
    one (``mid``, ``quiet``), three (``tail``) or five (``burst``) —
    so finished rows sit beside live ones, and two rows a group split
    the five streams into groups of 2, 2 and 1."""
    streams = {
        "burst": STREAM,
        "mid": STREAM[2500:3100],
        "quiet": b"zz" * 64,
        "empty": b"",
        "tail": STREAM[1500:3000] + STREAM[3000:3040],
    }
    config = ScanConfig(
        backend=backend, num_shards=shards, batch_max_rows=rows
    )
    with MatchingService(config) as service:
        results = service.scan_many(nfa, streams, chunk_size=700, max_reports=cap)
    for name, data in streams.items():
        want, truncated = expected(oracle_run(nfa, data).reports, cap)
        assert_batch(results[name].batch, want)
        assert results[name].truncated == truncated
        assert results[name].stats == oracle_stats(nfa, data, shards)


def oracle_stats(nfa, data, shards):
    """A scan's statistics: the reference engine's over each shard
    automaton, merged (the reporterless component is no shard's)."""
    return merge_shard_stats(
        [
            Engine(shard.automaton).run(data).stats
            for shard in make_shards(nfa, shards)
        ]
    )


@pytest.mark.skipif(not native_available(), reason="needs the C loop")
def test_one_shard_scan_many_is_one_c_call(monkeypatch):
    """32 one-chunk streams on a one-shard ruleset step as one fresh
    matrix: one ``cama_step_rows`` call over 32 rows, and not one
    :class:`EngineState` built along the way."""
    rules = compile_regex_set(RULES, name="matrix")
    streams = {
        f"s{i}": bytes(97 + (i + j) % 26 for j in range(512))
        for i in range(32)
    }
    with MatchingService(ScanConfig(backend="native")) as service:
        dispatcher = service.dispatcher(rules)
        assert dispatcher._id_maps is None  # one shard, the whole ruleset
        kernel = dispatcher.engines[0].kernel
        lib, calls, built = kernel._lib, [], []

        class CountingLib:
            def cama_step_rows(self, tables, work, data, num_rows, first):
                calls.append(num_rows)
                return lib.cama_step_rows(tables, work, data, num_rows, first)

        init = EngineState.__init__

        def counting_init(state, *args, **kwargs):
            built.append(state)
            init(state, *args, **kwargs)

        monkeypatch.setattr(kernel, "_lib", CountingLib())
        monkeypatch.setattr(EngineState, "__init__", counting_init)
        results = service.scan_many(rules, streams)
    assert calls == [32]
    assert built == []
    for name, data in streams.items():
        assert results[name].batch == oracle_run(rules, data).reports


@pytest.mark.parametrize("backend", BACKENDS)
def test_an_abandoned_scan_many_stops_between_chunks(nfa, backend):
    """Once its request is gone, a scan takes no further step: none
    after the step during which it went, and none at all if it was
    gone before the first, a group of one-chunk streams too."""
    gone = threading.Event()
    with MatchingService(ScanConfig(backend=backend)) as service:
        dispatcher = service.dispatcher(nfa)
        steps = []
        step = dispatcher._step

        def stepping(chunks, *args, **kwargs):
            steps.append(len(chunks))
            gone.set()
            return step(chunks, *args, **kwargs)

        dispatcher._step = stepping
        with abandoned_when(gone):
            streams = {"a": STREAM, "b": STREAM[:100]}
            with pytest.raises(SimulationError, match="abandoned"):
                service.scan_many(nfa, streams, chunk_size=700)
            assert steps == [2]
            with pytest.raises(SimulationError, match="abandoned"):
                service.scan_many(nfa, {"a": b"abc", "b": b"a"})
            assert steps == [2]


#: scan_many configurations that once fell back to one scan per stream
#: (ledger, trace), stepped one row at a time, or went serial (a pool)
MANY_MODES = {
    "ledger": ({}, {"hardware_ledger": True}),
    "trace": ({}, {"trace": True}),
    "rows1": ({"batch_max_rows": 1}, {}),
    "pool": ({"workers": 2, "num_shards": 3}, {}),
}


def assert_same_ledger(mine, theirs):
    mine, theirs = mine.to_dict(), theirs.to_dict()
    assert mine.keys() == theirs.keys()
    for key, value in mine.items():
        if isinstance(value, float):
            assert value == pytest.approx(theirs[key], rel=1e-12, abs=1e-12)
        else:
            assert value == theirs[key], key


@pytest.mark.parametrize("mode", list(MANY_MODES))
@pytest.mark.parametrize("backend", BACKENDS)
def test_scan_many_modes_match_scan_and_oracle(nfa, backend, mode):
    config_kwargs, call_kwargs = MANY_MODES[mode]
    streams = {
        "burst": STREAM[:3200],
        "mid": STREAM[2500:3100],
        "quiet": b"zz" * 64,
        "empty": b"",
    }
    config = ScanConfig(backend=backend, **config_kwargs)
    with MatchingService(config) as service:
        many = service.scan_many(nfa, streams, chunk_size=700, **call_kwargs)
        ledgered = service.ledger_totals.scans
        solo = {
            name: service.scan(nfa, data, chunk_size=700, **call_kwargs)
            for name, data in streams.items()
        }
    assert ledgered == (len(streams) if mode == "ledger" else 0)
    for name, data in streams.items():
        want = oracle_run(nfa, data).reports
        assert_batch(many[name].batch, want)
        assert_batch(solo[name].batch, want)
        assert many[name].stats == solo[name].stats
        assert many[name].truncated is solo[name].truncated is False
        assert many[name].backends == solo[name].backends
        if mode == "ledger":
            assert_same_ledger(many[name].ledger, solo[name].ledger)
        else:
            assert many[name].ledger is solo[name].ledger is None


def test_scan_many_shares_one_trace(nfa):
    """One scan_many call is one trace: every result carries it, and so
    does every stream's wire ``trace_id``."""
    streams = {"a": STREAM[:500], "b": STREAM[500:900], "c": b""}
    config = ScanConfig(backend="native", num_shards=3)
    with MatchingService(config) as service:
        results = service.scan_many(nfa, streams, trace=True)
    trace = results["a"].trace
    assert all(result.trace is trace for result in results.values())
    roots = [span for span in trace.spans if span.parent_id is None]
    assert [span.name for span in roots] == ["service.scan"]
    assert roots[0].attrs["streams"] == 3
    assert {"dispatcher.scan", "kernel.batch"} <= {s.name for s in trace.spans}

    with BackgroundServer(config=config) as server:
        with MatchingClient(port=server.port) as client:
            handle = client.register(RULES)
            served = client.scan_many(handle, streams, trace=True)
    trace_ids = {result.trace_id for result in served.values()}
    assert len(trace_ids) == 1 and None not in trace_ids


@pytest.mark.parametrize("backend", BACKENDS)
def test_pool_batches_cross_the_pickle_boundary(nfa, oracle, backend):
    config = ScanConfig(backend=backend, num_shards=3, workers=2)
    with Dispatcher(nfa, config) as dispatcher:
        for cap in (DEFAULT_MAX_KEPT_REPORTS, 4098):
            want, truncated = expected(oracle, cap)
            result = dispatcher.scan(STREAM, chunk_size=2000, max_reports=cap)
            assert_batch(result.batch, want)
            assert result.truncated == truncated


def test_served_streams_cross_the_pickle_boundary():
    """A served stream is a view of its request frame; a worker pool
    scans it all the same, and scan and scan_many answer exactly what
    the same service answers in process."""
    config = ScanConfig(num_shards=3, workers=2)
    rules = compile_regex_set(RULES)
    streams = {"a": STREAM[:2500], "b": STREAM[2500:], "c": b""}
    with MatchingService(config) as service:
        want = service.scan(rules, STREAM, chunk_size=2000)
        want_many = service.scan_many(rules, streams, chunk_size=2000)
    with BackgroundServer(config=config) as server:
        with MatchingClient(port=server.port) as client:
            handle = client.register(RULES)
            got = client.scan(handle, STREAM, chunk_size=2000)
            got_many = client.scan_many(handle, streams, chunk_size=2000)
    assert got.num_reports == want.num_reports > 0
    assert rows(got.reports) == rows(want.batch)
    assert set(got_many) == set(streams)
    for name, result in got_many.items():
        assert rows(result.reports) == rows(want_many[name].batch)
        assert result.truncated == want_many[name].truncated


# -- the zero-report path ----------------------------------------------------


@pytest.fixture
def numpy_calls(monkeypatch):
    """Counts of every np.concatenate and np.lexsort call from now on."""
    calls = {"concatenate": 0, "lexsort": 0}

    def counting(name):
        real = getattr(np, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return call

    for name in calls:
        monkeypatch.setattr(np, name, counting(name))
    return calls


@pytest.mark.skipif(not native_available(), reason="needs the C loop")
class TestZeroReportPath:
    """Quiet chunks — the feeds of the fleet-hotswap and snort-quiet
    workloads — share one empty batch and never merge anything."""

    QUIET = b"zz" * 256

    @pytest.mark.parametrize("shards", [1, 3])
    def test_quiet_feed_and_scan_return_the_shared_empty_batch(
        self, nfa, numpy_calls, shards
    ):
        config = ScanConfig(backend="native", num_shards=shards)
        with MatchingService(config) as service:
            service.dispatcher(nfa)  # compile outside the counted calls
            numpy_calls.update(concatenate=0, lexsort=0)
            session = service.open_session(nfa, "quiet")
            assert session.feed(self.QUIET) is EMPTY_REPORTS
            assert session.feed(self.QUIET) is EMPTY_REPORTS
            assert session.reports is EMPTY_REPORTS
            scan = service.scan(nfa, self.QUIET * 4, chunk_size=512)
            assert scan.batch is EMPTY_REPORTS
        assert numpy_calls == {"concatenate": 0, "lexsort": 0}

    def test_registered_ruleset_keeps_global_state_order(self, numpy_calls):
        """A registered ruleset is composed from component artifacts;
        when its components are contiguous id ranges, its one shard is
        the whole ruleset in global order: no id map, and a reporting
        scan by handle never sorts."""
        tiny = compile_regex_set(TINY_RULES, name="tiny")
        data = benchmark_input(tiny, 8192, seed=5, injection_rate=0.05)
        with MatchingService(ScanConfig(backend="native")) as service:
            record = service.register_ruleset(tiny)
            assert record.component_keys  # the composed (incremental) build
            assert record.dispatcher._id_maps is None
            numpy_calls.update(lexsort=0)
            result = service.scan(record.lineage, data)
        assert len(result.batch) > 1000
        assert result.batch == oracle_run(tiny, data).reports
        assert numpy_calls["lexsort"] == 0

    def test_one_whole_ruleset_shard_never_sorts(self, numpy_calls):
        dispatcher = Dispatcher(
            compile_regex_set(RULES), ScanConfig(backend="native")
        )
        dispatcher.engines  # compile outside the counted calls
        result = dispatcher.scan(STREAM)
        assert len(result.batch) > 4096
        state = dispatcher.initial_states()
        assert len(dispatcher.run_chunk(STREAM[:64], state).batch) > 64
        assert numpy_calls["lexsort"] == 0


# -- the served bytes ----------------------------------------------------------

#: the benchmark's tiny-dense rules
TINY_RULES = {
    "shell": r"/bin/(sh|bash)",
    "hex-blob": r"0x[0-9a-f]{4}",
    "beacon": r"PING[0-9]+PONG",
    "paper": "(a|b)e*cd+",
}


def oracle_wire_reports(reports):
    """The columnar ``reports`` object, built from :class:`Report`
    objects one by one with ``struct`` (independent of the server's
    numpy encoder): ``n``, ``cycle0``, the ``<u4`` cycle deltas and
    state ids as raw bytes, and the ``[state_id, code]`` pairs in
    state-id order; no arrays when nothing fired."""
    if not reports:
        return {"n": 0, "cycle0": 0, "codes": []}
    cycle0 = reports[0].cycle
    deltas, states, codes, previous = [], [], {}, cycle0
    for report in reports:
        deltas.append(report.cycle - previous)
        previous = report.cycle
        states.append(report.state_id)
        codes[report.state_id] = report.code

    def u4(values):
        return struct.pack(f"<{len(values)}I", *values)

    return {
        "n": len(reports),
        "cycle0": cycle0,
        "cycles": u4(deltas),
        "states": u4(states),
        "codes": [[state, codes[state]] for state in sorted(codes)],
    }


def test_served_report_bytes_match_the_oracle():
    """Scan and feed frames carry exactly the bytes the oracle's reports
    encode to: the same columns, in the same order, byte for byte."""
    tiny = compile_regex_set(TINY_RULES, name="tiny")
    data = benchmark_input(tiny, 8192, seed=5, injection_rate=0.05)
    oracle = oracle_run(tiny, data).reports
    assert len(oracle) > 1000

    def expected_frame(raw, reports):
        frame = decode_frame(raw)
        assert frame["ok"], frame
        return encode_frame(dict(frame, reports=oracle_wire_reports(reports)))

    with BackgroundServer(config=ScanConfig(backend="native")) as server:
        with RawConn(server.port) as conn:
            handle = conn.request({"op": "register", "rules": TINY_RULES})[
                "handle"
            ]
            conn.send({"id": 2, "op": "scan", "handle": handle, "data": data})
            raw = conn.read_raw()
            assert raw == expected_frame(raw, oracle)
            conn.request({"op": "open", "handle": handle, "session": "s"})
            for offset in range(0, len(data), 512):
                chunk = data[offset : offset + 512]
                conn.send({"id": 3, "op": "feed", "session": "s", "data": chunk})
                raw = conn.read_raw()
                fired = [
                    r for r in oracle if offset <= r.cycle < offset + len(chunk)
                ]
                assert raw == expected_frame(raw, fired)


# -- the wire codec ----------------------------------------------------------


def rows(reports):
    return [(r.cycle, r.state_id, r.code) for r in reports]


def code_table(num_states):
    """A per-state code table with some code-less states."""
    return tuple(None if i % 4 == 3 else f"c{i}" for i in range(num_states))


@st.composite
def report_batches(draw, min_size=0):
    """Cycle-ordered batches over a 1-, 5- or 2627-state code table,
    starting anywhere up to past 2**32."""
    num_states = draw(st.sampled_from([1, 5, 2627]))
    n = draw(st.integers(min_size, 120))
    cycle0 = draw(st.sampled_from([0, 9, 2**32 - 1, 2**32, 2**40 + 3]))
    gaps = draw(
        st.lists(
            st.one_of(st.integers(0, 2), st.integers(0, 1 << 20)),
            min_size=max(n - 1, 0),
            max_size=max(n - 1, 0),
        )
    )
    states = draw(
        st.lists(
            st.integers(0, num_states - 1), min_size=n, max_size=n
        )
    )
    cycles = cycle0 + np.cumsum([0] + gaps, dtype=np.int64)[:n]
    return ReportBatch(
        cycles, np.array(states, dtype=np.int64), code_table(num_states)
    )


def wire_round_trip(batch):
    """``batch`` through the server's encoder, one response frame and
    the client's decoder."""
    frame = encode_frame(ok_frame(1, reports=encode_reports(batch)))
    return decode_reports(decode_frame(frame)["reports"])


EDGE_BATCHES = {
    "empty": EMPTY_REPORTS,
    "one report": ReportBatch(
        np.array([42], dtype=np.int64),
        np.array([2], dtype=np.int64),
        code_table(5),
    ),
    "past 2**32, widest delta": ReportBatch(
        np.array([2**32 + 7, 2**32 + 7, 2**33 + 6], dtype=np.int64),
        np.array([4, 0, 4], dtype=np.int64),
        code_table(5),
    ),
    "every state of a 2627-state table": ReportBatch(
        np.repeat(np.arange(3, dtype=np.int64), 2627),
        np.tile(np.arange(2627, dtype=np.int64), 3),
        code_table(2627),
    ),
}


@pytest.mark.parametrize("name", EDGE_BATCHES)
def test_wire_round_trip_of_edge_batches(name):
    batch = EDGE_BATCHES[name]
    decoded = wire_round_trip(batch)
    assert isinstance(decoded, ReportBatch)
    assert rows(decoded) == rows(batch)


@settings(max_examples=120, deadline=None)
@given(report_batches())
def test_wire_round_trip_is_exact(batch):
    wire = encode_reports(batch)
    # the code table on the wire is the distinct states that fired,
    # never the whole ruleset's
    fired = sorted(set(batch.state_ids.tolist()))
    assert [state for state, _ in wire["codes"]] == fired
    decoded = wire_round_trip(batch)
    assert rows(decoded) == rows(batch)
    assert decoded.cycles.dtype == decoded.state_ids.dtype == np.int64


def test_the_empty_batch_is_one_constant_both_ways(monkeypatch):
    # neither end touches numpy for a quiet response, and it carries
    # no attachment
    monkeypatch.setattr(protocol, "np", None)
    assert encode_reports(EMPTY_REPORTS) is EMPTY_WIRE_REPORTS
    frame = encode_frame(ok_frame(1, reports=EMPTY_WIRE_REPORTS))
    assert decode_reports(decode_frame(frame)["reports"]) is EMPTY_REPORTS
    assert protocol.FRAME_PREFIX.unpack_from(frame)[1] == 0


def test_non_monotone_cycles_are_refused_by_the_encoder():
    backwards = ReportBatch(
        np.array([5, 3], dtype=np.int64),
        np.array([0, 1], dtype=np.int64),
        code_table(2),
    )
    with pytest.raises(ValueError, match="non-decreasing"):
        encode_reports(backwards)


VALID = {
    key: bytes(value) if isinstance(value, memoryview) else value
    for key, value in encode_reports(
        EDGE_BATCHES["past 2**32, widest delta"]
    ).items()
}

HOSTILE = {
    "not an object": "AAAA",
    "null": None,
    "a v2 empty triple list": [],
    "v2 triples": [[3, 1, "r1"], [5, 2, None]],
    # a version-3 peer's base64 text is not an attachment
    "bad base64": dict(VALID, cycles="AAAA!AAA"),
    "non-ascii base64": dict(VALID, states="AAAA\u00e9AAA"),
    "valid base64": dict(VALID, cycles="AAAAAAAAAAAAAAAA"),
    "cycles a list of ints": dict(VALID, cycles=[0, 0, 2**32 - 1]),
    "missing states": {k: v for k, v in VALID.items() if k != "states"},
    "byte length not a multiple of 4": dict(
        VALID, n=1, cycles=bytes(4), states=bytes(5)
    ),
    "cycles shorter than states": dict(VALID, cycles=VALID["cycles"][:8]),
    "arrays longer than n": dict(VALID, n=2),
    "arrays shorter than n": dict(VALID, n=4),
    "negative cycle0": dict(VALID, cycle0=-1),
    "boolean n": dict(VALID, n=True),
    "float cycle0": dict(VALID, cycle0=1.5),
    "cycle0 past int64": dict(VALID, cycle0=2**63 - 2),
    "missing n": {k: v for k, v in VALID.items() if k != "n"},
    "state id missing from codes": dict(VALID, codes=[[0, "c0"]]),
    "codes not a list": dict(VALID, codes={"0": "c0", "4": "c4"}),
    "codes entry not a pair": dict(VALID, codes=[[0], [4, "c4"]]),
    "codes entry with an int code": dict(VALID, codes=[[0, 1], [4, "c4"]]),
    "codes entry with a string id": dict(
        VALID, codes=[["0", "c0"], [4, None]]
    ),
    "duplicate codes entry": dict(
        VALID, codes=[[0, "c0"], [4, "c4"], [4, "other"]]
    ),
    "a large state id missing from codes": dict(
        VALID,
        n=1,
        cycles=bytes(4),
        states=struct.pack("<I", 2**32 - 1),
        codes=[[4, "c4"]],
    ),
    "cycles not starting at cycle0": dict(
        VALID, cycles=struct.pack("<3I", 1, 0, 0)
    ),
    "deltas overflowing int64": dict(
        VALID, cycle0=2**63 - 2**32, cycles=struct.pack("<3I", 0, 2**32 - 1, 1)
    ),
}


@pytest.mark.parametrize("name", HOSTILE)
def test_hostile_report_payloads_raise_protocol_error(name):
    with pytest.raises(ProtocolError) as err:
        decode_reports(HOSTILE[name])
    assert err.value.code == "bad-frame"


def test_state_ids_past_any_table_decode():
    # an id past the decoder's bool-table bound takes its np.isin path
    reports = [Report(9, 2**20, None), Report(9, 2**32 - 1, "top")]
    assert decode_reports(oracle_wire_reports(reports)) == reports


def test_a_v2_triple_list_names_both_versions():
    with pytest.raises(ProtocolError, match="version 2.*version 4"):
        decode_reports(HOSTILE["v2 triples"])


_JUNK = st.sampled_from([None, True, -1, 1.5, "x", "", b"", {}, 2**64])


def _mutations(wire, draw):
    """One way of damaging (or harmlessly reshaping) ``wire``."""
    key = draw(st.sampled_from(sorted(wire)))
    array_key = draw(st.sampled_from(["cycles", "states"]))
    raw = wire[array_key]
    cut = draw(st.integers(1, 4))
    at = draw(st.integers(0, len(raw)))
    entry = draw(st.integers(0, len(wire["codes"]) - 1))
    sid, code = wire["codes"][entry]
    return [
        {k: v for k, v in wire.items() if k != key},
        dict(wire, **{key: draw(_JUNK)}),
        dict(wire, n=wire["n"] + draw(st.sampled_from([-1, 1, -wire["n"]]))),
        dict(wire, **{array_key: raw[:-cut]}),
        dict(wire, **{array_key: raw + bytes(cut)}),
        dict(wire, **{array_key: raw[:at] + b"*" + raw[at:]}),
        dict(wire, **{array_key: raw.hex()}),
        dict(wire, codes=wire["codes"][:entry] + wire["codes"][entry + 1 :]),
        dict(wire, codes=wire["codes"] + [[sid, f"{code}-again"]]),
        dict(wire, codes=[[sid, 7] if i == entry else p
                          for i, p in enumerate(wire["codes"])]),  # fmt: skip
        dict(wire, codes=[[str(sid), code] if i == entry else p
                          for i, p in enumerate(wire["codes"])]),  # fmt: skip
        # harmless: an unused code, an unknown field, reordered codes
        dict(wire, codes=wire["codes"] + [[2**32 - 1, "unused"]]),
        dict(wire, extra=[1, 2, 3]),
        dict(wire, codes=wire["codes"][::-1]),
        [wire],
    ]


@settings(max_examples=150, deadline=None)
@given(report_batches(min_size=1), st.data())
def test_mutated_payloads_fail_cleanly_or_decode_exactly(batch, data):
    wire = decode_frame(encode_frame(encode_reports(batch)))
    wire = {k: bytes(v) if isinstance(v, memoryview) else v for k, v in wire.items()}
    mutated = data.draw(st.sampled_from(_mutations(wire, data.draw)))
    try:
        decoded = decode_reports(decode_frame(encode_frame({"r": mutated}))["r"])
    except ProtocolError as exc:
        assert exc.code == "bad-frame"
    else:
        assert rows(decoded) == rows(batch)
