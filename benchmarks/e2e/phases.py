"""The end-to-end phases: set-up, lib, scan, feed, update.

Closed loop throughout: a connection sends its next request only after
the previous reply.  Every result is compared with the reference the
set-up built; the comparison runs outside the timed call.
"""

from __future__ import annotations

import contextlib
import gc
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.api import ScanConfig
from repro.errors import ReproError
from repro.service import MatchingService

from measure import (
    SpanLog,
    calibrated,
    calibration_pass,
    median_pass,
    report_keys,
)
from topology import Topology
from workloads import (
    CONNECTIONS,
    FEED_BYTES,
    HOT_CODE,
    PHASE_SHARES,
    ROUNDS,
    SETUP_REPEATS,
    Inputs,
)


@dataclass
class Ops:
    """Counts every operation attempted and failed; optionally records
    a span around each call (the traced run)."""

    log: SpanLog | None = None
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def fail(self, what: str) -> None:
        with self._lock:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(what)

    def run(self, name: str, fn, nbytes: int = 0):
        """Call ``fn()`` as one counted op; returns ``(result, seconds)``
        with ``result`` None when it raised or returned an error frame."""
        with self._lock:
            self.attempted += 1
        start = time.perf_counter()
        try:
            if self.log is not None:
                result = self.log.timed(name, fn, nbytes)
            else:
                result = fn()
        except (ReproError, OSError) as exc:
            self.fail(f"{name}: {type(exc).__name__}: {exc}")
            return None, time.perf_counter() - start
        return result, time.perf_counter() - start


@dataclass
class SessionRecord:
    """One fed session, kept for comparison after its round."""

    open_start: float
    open_end: float
    position: int
    reports: list


@dataclass
class EndToEnd:
    """What one run measured.  Calibrated values are at nominal host
    speed (see ``measure.calibration_pass``); feed values are raw,
    because a feed's turnaround is mostly the batch wait, not CPU."""

    ops: Ops
    #: calibrated seconds of each fresh set-up
    setup_s: list[float] = field(default_factory=list)
    #: calibrated MB/s of each round
    lib_mbps: list[float] = field(default_factory=list)
    scan_mbps: list[float] = field(default_factory=list)
    #: raw bytes / wall of each round, all connections together
    #: (reported by the traced run only: see README, "demoted")
    feed_mbps: list[float] = field(default_factory=list)
    #: raw per-feed turnaround, pooled over connections and rounds
    feed_ms: list[float] = field(default_factory=list)
    #: calibrated milliseconds per update, one value per add/remove pair
    #: (reported by the traced run only: see README, "demoted")
    update_ms: list[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    #: batch-scheduler counters accumulated over the feed rounds
    batching: dict = field(default_factory=dict)
    #: every calibration pass taken, in seconds
    passes: list[float] = field(default_factory=list)


@contextlib.contextmanager
def harness_heap_frozen():
    """Keep the harness's own long-lived objects (tens of thousands of
    reference key tuples) out of the collector's walks while in-process
    layers are timed: a library scan allocates enough to trigger full
    collections, whose cost would otherwise depend on the harness."""
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


# -- scans (library and served) -------------------------------------------


def scan_call(inputs: Inputs, scan, scan_many):
    """The workload's one scan request as a callable returning
    ``{stream name: reports}`` (one unnamed stream for a plain scan)."""
    if inputs.streams:
        return lambda: {
            name: result.reports
            for name, result in scan_many(inputs.streams).items()
        }
    return lambda: {"": scan(inputs.block).reports}


def scan_matches(inputs: Inputs, result: dict) -> bool:
    expected = inputs.stream_keys if inputs.streams else {"": inputs.block_keys}
    return result.keys() == expected.keys() and all(
        report_keys(reports) == expected[name]
        for name, reports in result.items()
    )


def scan_round(
    name: str, call, inputs: Inputs, seconds: float, out: EndToEnd
) -> float:
    """Repeat one scan request for ``seconds``, a calibration pass
    after each; returns the round's calibrated MB/s (block bytes over
    the median calibrated request time)."""
    times = []
    gc.collect()  # every round starts from the same collector state
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        result, took = out.ops.run(name, call, len(inputs.block))
        passed = calibration_pass()
        if result is None:
            continue
        if not scan_matches(inputs, result):
            out.ops.fail(f"{name}: reports differ from the reference")
            continue
        out.passes.append(passed)
        times.append(calibrated(took, passed))
    if not times:
        raise RuntimeError(f"{name}: no request succeeded: {out.ops.errors}")
    return len(inputs.block) / statistics.median(times) / 1e6


# -- sessions -------------------------------------------------------------


def feed_worker(
    client, handle, inputs, tag, stop, ops, feed_ms, records, counter
) -> int:
    """Open a session, feed the block in FEED_BYTES pieces, close,
    repeat until ``stop()``; returns the bytes fed."""
    block = inputs.block
    nbytes = 0
    while not stop():
        name = f"{tag}-{next(counter)}"
        open_start = time.perf_counter()
        session, _ = ops.run(
            "client.open", lambda: client.open_session(handle, name)
        )
        open_end = time.perf_counter()
        if session is None:
            continue
        reports = []
        for offset in range(0, len(block), FEED_BYTES):
            if stop():
                break
            chunk = block[offset : offset + FEED_BYTES]
            new, took = ops.run(
                "client.feed", lambda: session.feed(chunk), len(chunk)
            )
            if new is None:
                break
            reports.extend(new)
            nbytes += len(chunk)
            feed_ms.append(took * 1e3)
        ops.run("client.close", session.close)
        records.append(
            SessionRecord(open_start, open_end, session.position, reports)
        )
    return nbytes


class Feeders:
    """``feed_worker`` on each client's own thread, until ``stop()``."""

    def __init__(
        self, clients, handle, inputs, tags, stop, ops, feed_ms, counter
    ) -> None:
        self._fed = [0] * len(clients)
        self._records: list[list[SessionRecord]] = [[] for _ in clients]
        self._errors: list[BaseException] = []

        def work(index: int) -> None:
            try:
                self._fed[index] = feed_worker(
                    clients[index], handle, inputs, tags[index], stop, ops,
                    feed_ms, self._records[index], counter,
                )  # fmt: skip
            except BaseException as exc:  # re-raised by join()
                self._errors.append(exc)

        self._threads = [
            threading.Thread(target=work, args=(i,))
            for i in range(len(clients))
        ]
        self._start = time.perf_counter()
        for thread in self._threads:
            thread.start()

    def join(self) -> tuple[int, float, list[SessionRecord]]:
        """Wait for every worker; returns ``(bytes fed, wall seconds,
        session records)``."""
        for thread in self._threads:
            thread.join()
        wall = time.perf_counter() - self._start
        if self._errors:
            raise self._errors[0]
        return sum(self._fed), wall, [r for per in self._records for r in per]


def check_sessions(inputs, records, ops, hot_before=None) -> None:
    """Compare each session with the reference for the ruleset version
    it opened on.

    ``hot_before(record)`` says whether the hot pattern was live at the
    session's open: True, False, or None when an update overlapped the
    open (then either whole version is accepted, never a mix).
    """
    for record in records:
        keys = report_keys(record.reports)
        base = [k for k in keys if k[2] != HOT_CODE]
        hot = [k for k in keys if k[2] == HOT_CODE]
        want_base = inputs.prefix_keys(inputs.block_keys, record.position)
        want_hot = inputs.prefix_keys(inputs.hot_keys, record.position)
        live = hot_before(record) if hot_before else False
        hot_ok = {
            True: hot == want_hot,
            False: not hot,
            None: not hot or hot == want_hot,
        }[live]
        if base != want_base or not hot_ok:
            ops.fail("session: reports differ from the version's reference")


# -- update ---------------------------------------------------------------


def hot_change(inputs: Inputs, add: bool) -> dict:
    """The ``update`` arguments that add or remove the hot pattern."""
    if add:
        return {"add": {HOT_CODE: inputs.hot_pattern}}
    return {"remove": [HOT_CODE]}


def pair_means(update_ms: list[float]) -> list[float]:
    """Each add/remove pair averaged: an add compiles and a remove does
    not, so a median over single updates would sit between two modes."""
    return [
        (add + remove) / 2
        for add, remove in zip(update_ms[0::2], update_ms[1::2])
    ]


def update_phase(clients, handle, inputs, seconds, out: EndToEnd, counter):
    """Updates back to back on connection 0 for ``seconds``, alternately
    adding and removing the hot pattern, while the other connections keep
    feeding; returns the calibrated milliseconds of each add/remove
    pair, averaged."""
    ops = out.ops
    updater, feeders = clients[0], clients[1:]
    done = threading.Event()
    deadline = time.perf_counter() + seconds
    feeding = Feeders(
        feeders, handle, inputs, [f"u{i}" for i in range(len(feeders))],
        done.is_set, ops, [], counter,
    )  # fmt: skip
    #: (sent, replied, hot pattern live afterwards)
    log: list[tuple[float, float, bool]] = []
    update_ms: list[float] = []
    live = False
    try:
        # whole pairs only: the run ends with the hot pattern removed
        while live or time.perf_counter() < deadline:
            change = hot_change(inputs, add=not live)
            sent = time.perf_counter()
            reply, took = ops.run(
                "client.update", lambda: updater.update(handle, **change)
            )
            replied = time.perf_counter()
            if reply is None:
                break
            live = not live
            log.append((sent, replied, live))
            passed = calibration_pass()
            out.passes.append(passed)
            update_ms.append(calibrated(took, passed) * 1e3)
    finally:
        done.set()
        _, _, records = feeding.join()

    def hot_before(record: SessionRecord):
        state = False
        for sent, replied, after in log:
            if replied < record.open_start:
                state = after
            elif sent < record.open_end:
                return None
        return state

    check_sessions(inputs, records, ops, hot_before)
    return pair_means(update_ms)


# -- the whole run ----------------------------------------------------------


def first_scan(client, inputs, ops) -> str:
    """Cold ``register`` against an empty store plus one checked scan;
    returns the handle."""
    handle, _ = ops.run(
        "client.register", lambda: client.register(inputs.automaton)
    )
    if handle is None:
        raise RuntimeError(f"register failed: {ops.errors}")
    call = scan_call(
        inputs,
        lambda data: client.scan(handle, data),
        lambda streams: client.scan_many(handle, streams),
    )
    result, _ = ops.run("client.scan", call, len(inputs.block))
    if result is None or not scan_matches(inputs, result):
        ops.fail("first scan: reports differ from the reference")
    return handle


def fresh_topology(inputs, scratch, out: EndToEnd) -> tuple[Topology, str]:
    """Start the workload's topology cold and scan once; records the
    calibrated set-up seconds (host speed sampled before and after)."""
    before = median_pass()
    start = time.perf_counter()
    topology = Topology(inputs.workload, scratch).start()
    try:
        with topology.client() as client:
            handle = first_scan(client, inputs, out.ops)
    except BaseException:
        topology.stop()
        raise
    took = time.perf_counter() - start
    passed = (before + median_pass()) / 2
    out.passes.append(passed)
    out.setup_s.append(calibrated(took, passed))
    return topology, handle


def run_end_to_end(
    inputs: Inputs,
    seconds: float,
    scratch: Path,
    log: SpanLog | None = None,
    setup_repeats: int = SETUP_REPEATS,
) -> EndToEnd:
    """Set up ``setup_repeats`` fresh topologies (keeping the last),
    then run the interleaved lib/scan/feed rounds and the update phase."""
    out = EndToEnd(ops=Ops(log=log))
    topology, handle = fresh_topology(inputs, scratch, out)
    for _ in range(setup_repeats - 1):
        topology.stop()
        topology, handle = fresh_topology(inputs, scratch, out)
    clients = []
    service = MatchingService(ScanConfig(**inputs.config_kwargs))
    try:
        clients = [topology.client() for _ in range(CONNECTIONS)]
        with harness_heap_frozen():
            run_phases(inputs, seconds, topology, handle, clients, service, out)
    finally:
        for client in clients:
            client.close()
        service.close()
        topology.stop()
    return out


def run_phases(inputs, seconds, topology, handle, clients, service, out):
    """ROUNDS interleaved rounds of lib, scan and feed, then update."""
    ops = out.ops
    lib = scan_call(
        inputs,
        lambda data: service.scan(inputs.automaton, data),
        lambda streams: service.scan_many(inputs.automaton, streams),
    )
    served = scan_call(
        inputs,
        lambda data: clients[0].scan(handle, data),
        lambda streams: clients[0].scan_many(handle, streams),
    )
    lib()  # warm the library service's compiled-ruleset cache
    counter = iter(range(1 << 62))
    tags = [f"f{i}" for i in range(len(clients))]
    round_seconds = {
        phase: seconds * share / ROUNDS
        for phase, share in PHASE_SHARES.items()
    }
    batching_before = topology.batching_counters()
    for _ in range(ROUNDS):
        out.lib_mbps.append(
            scan_round("service.scan", lib, inputs, round_seconds["lib"], out)
        )
        out.scan_mbps.append(
            scan_round(
                "client.scan", served, inputs, round_seconds["scan"], out
            )
        )
        deadline = time.perf_counter() + round_seconds["feed"]
        nbytes, wall, records = Feeders(
            clients, handle, inputs, tags,
            lambda: time.perf_counter() >= deadline,
            ops, out.feed_ms, counter,
        ).join()  # fmt: skip
        out.feed_mbps.append(nbytes / wall / 1e6)
        check_sessions(inputs, records, ops)
    out.batching = {
        key: value - batching_before[key]
        for key, value in topology.batching_counters().items()
    }
    # before the updates: how many versions those leave resident depends
    # on how many fit in the phase, which is not a property of the program
    out.peak_rss_mb = topology.peak_rss_mb()
    out.update_ms = update_phase(
        clients, handle, inputs, seconds * PHASE_SHARES["update"], out, counter
    )
