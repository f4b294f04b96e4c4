"""Oracle-differential tests for batched multi-stream execution.

Every batched path — kernel ``step_batch``, ``Dispatcher.run_chunk_
batch``, ``MatchingService.scan_many``, the server's feed scheduler —
must produce results byte-identical to per-stream sequential stepping,
under adversarial interleavings: 1-byte chunks, report patterns split
across chunk boundaries, streams joining and leaving the batch between
ticks, and shrinking kept-reports budgets.
"""

import asyncio
import concurrent.futures
import random
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api.config import ScanConfig
from repro.automata.glushkov import compile_regex_set
from repro.errors import ConfigError, SimulationError
from repro.service import (
    BackgroundServer,
    Dispatcher,
    MatchingClient,
    MatchingService,
    RemoteError,
    batching,
    sharding,
)
from repro.service.batching import BatchScheduler, feed_session_batch
from repro.service.session import INLINE_FEED_BYTES
from repro.sim.backends import STATE_FORMAT_VERSION, BatchEngineState
from repro.sim.backends.base import EngineState
from repro.sim.backends.native import native_available
from repro.sim.engine import Engine
from repro.telemetry.metrics import default_registry
from tests.oracle import oracle_run

BACKENDS = ["sparse", "native", "auto"]

#: overlapping rules with multi-byte matches, so chunk splits land
#: mid-pattern and several states report on the same cycle
RULES = {
    "r0": "abc[a-f]{2}x",
    "r1": "foo(bar|baz)+",
    "r2": "[0-9]{3}z",
    "r3": "q.*nd",
    "r4": "(a|b)c*d",
}

ALPHABET = b"abcdfoobarbaz0123qndxz \n"


def _automaton():
    return compile_regex_set(RULES, name="batch-tests")


def _random_streams(rng, count, max_len=240):
    streams = [
        bytes(rng.choice(ALPHABET) for _ in range(rng.randrange(0, max_len)))
        for _ in range(count)
    ]
    streams[0] = b""  # always include an empty stream
    return streams


def _keys(reports):
    return [(r.cycle, r.state_id, r.code) for r in reports]


def _active(state):
    return sorted(int(s) for s in state.active)


def _tick_chunks(rng, data, one_byte=False):
    """Split ``data`` into adversarial tick-sized chunks."""
    chunks, start = [], 0
    while start < len(data):
        size = 1 if one_byte else rng.randrange(1, 6)
        chunks.append(data[start : start + size])
        start += size
    return chunks


# -- kernel level ----------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("one_byte", [False, True], ids=["ragged", "1byte"])
def test_engine_step_batch_matches_per_stream(backend, one_byte):
    """Batched stepping == sequential run_chunk under interleavings."""
    rng = random.Random(11)
    automaton = _automaton()
    engine = Engine(automaton, backend=backend)
    streams = _random_streams(rng, 9)
    plans = [_tick_chunks(rng, data, one_byte=one_byte) for data in streams]

    # oracle: each stream stepped alone through the same chunk sequence
    oracle_states = [engine.initial_state() for _ in streams]
    oracle = [[] for _ in streams]
    for row, plan in enumerate(plans):
        for chunk in plan:
            result = engine.run_chunk(chunk, oracle_states[row])
            oracle[row].extend(result.reports)

    # batched: one step_batch per tick; dry rows feed empty chunks
    # (streams "leave" the batch as their plans run out)
    states = [engine.initial_state() for _ in streams]
    got = [[] for _ in streams]
    for tick in range(max(len(plan) for plan in plans)):
        chunks = [
            plan[tick] if tick < len(plan) else b"" for plan in plans
        ]
        for row, result in enumerate(engine.step_batch(chunks, states)):
            got[row].extend(result.reports)

    for row in range(len(streams)):
        assert _keys(got[row]) == _keys(oracle[row]), f"row {row}"
        assert _active(states[row]) == _active(oracle_states[row])
        assert states[row].position == oracle_states[row].position


@pytest.mark.parametrize("backend", BACKENDS)
def test_engine_step_batch_join_leave(backend):
    """Streams joining/leaving the batch mid-run change nothing."""
    rng = random.Random(23)
    automaton = _automaton()
    engine = Engine(automaton, backend=backend)
    streams = _random_streams(rng, 7)
    plans = [_tick_chunks(rng, data) for data in streams]

    oracle_states = [engine.initial_state() for _ in streams]
    oracle = [[] for _ in streams]
    for row, plan in enumerate(plans):
        for chunk in plan:
            oracle[row].extend(
                engine.run_chunk(chunk, oracle_states[row]).reports
            )

    states = [engine.initial_state() for _ in streams]
    got = [[] for _ in streams]
    cursors = [0] * len(streams)
    while any(cursors[r] < len(plans[r]) for r in range(len(streams))):
        pending = [r for r in range(len(streams)) if cursors[r] < len(plans[r])]
        members = [r for r in pending if rng.random() < 0.7] or pending
        chunks = [plans[r][cursors[r]] for r in members]
        results = engine.step_batch(chunks, [states[r] for r in members])
        for r, result in zip(members, results):
            got[r].extend(result.reports)
            cursors[r] += 1

    for row in range(len(streams)):
        assert _keys(got[row]) == _keys(oracle[row]), f"row {row}"
        assert _active(states[row]) == _active(oracle_states[row])


@pytest.mark.parametrize("backend", BACKENDS)
def test_engine_step_batch_per_row_caps(backend):
    """Per-row kept-reports budgets truncate exactly like solo runs."""
    rng = random.Random(5)
    automaton = _automaton()
    engine = Engine(automaton, backend=backend)
    streams = [
        bytes(rng.choice(b"abcd0123z") for _ in range(300)) for _ in range(4)
    ]
    caps = [0, 2, 5, 10_000]

    solo = []
    for data, cap in zip(streams, caps):
        state = engine.initial_state()
        solo.append(engine.run_chunk(data, state, max_reports=cap))

    states = [engine.initial_state() for _ in streams]
    batched = engine.step_batch(streams, states, max_reports=caps)
    for row in range(len(streams)):
        assert _keys(batched[row].reports) == _keys(solo[row].reports)
        assert batched[row].truncated == solo[row].truncated
        assert len(batched[row].reports) <= caps[row]


@pytest.mark.parametrize("backend", BACKENDS)
def test_engine_step_batch_stats_match(backend):
    """Per-row stats equal the sequential per-stream stats."""
    rng = random.Random(31)
    automaton = _automaton()
    engine = Engine(automaton, backend=backend)
    streams = _random_streams(rng, 5)

    for row, data in enumerate(streams):
        state = engine.initial_state()
        solo = engine.run_chunk(data, state)
        states = [engine.initial_state() for _ in streams]
        batched = engine.step_batch(streams, states)[row]
        assert batched.stats.num_cycles == solo.stats.num_cycles
        assert batched.stats.num_reports == solo.stats.num_reports
        assert batched.stats.enabled_states_sum == solo.stats.enabled_states_sum
        assert batched.stats.active_states_sum == solo.stats.active_states_sum


def test_engine_step_batch_validates_lengths():
    engine = Engine(_automaton(), backend="sparse")
    with pytest.raises(SimulationError):
        engine.step_batch([b"ab"], [])


# -- struct-of-arrays state ------------------------------------------------


def test_batch_engine_state_round_trip():
    """attach -> detach is lossless for arbitrary active sets."""
    n = 131  # forces multi-word rows with a ragged top word
    states = [
        EngineState(active=[0, 63, 64, 65, 130], position=7),
        EngineState(active=[], position=0),
        EngineState(active=list(range(0, n, 3)), position=12345),
    ]
    batch = BatchEngineState.attach(states, n)
    assert batch.num_rows == 3
    out = batch.detach()
    for before, after in zip(states, out):
        assert _active(after) == sorted(before.active)
        assert after.position == before.position
    # detach_into writes the originals in place
    batch.positions += 5
    batch.detach_into(states)
    assert [s.position for s in states] == [12, 5, 12350]
    with pytest.raises(SimulationError):
        batch.detach_into(states[:2])


def test_engine_state_serialization_round_trip():
    state = EngineState(active=[3, 1, 9], position=42)
    snapshot = state.to_dict()
    assert snapshot["format_version"] == STATE_FORMAT_VERSION
    back = EngineState.from_dict(snapshot)
    assert _active(back) == sorted(state.active)
    assert back.position == 42


def test_engine_state_version_skew_rejected():
    snapshot = EngineState(active=[1], position=1).to_dict()
    snapshot["format_version"] = STATE_FORMAT_VERSION + 1
    with pytest.raises(SimulationError, match="format version"):
        EngineState.from_dict(snapshot)


# -- dispatcher level ------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_dispatcher_run_chunk_batch_matches(backend):
    rng = random.Random(47)
    automaton = _automaton()
    config = ScanConfig(backend=backend, num_shards=3)
    dispatcher = Dispatcher(automaton, config)
    streams = _random_streams(rng, 6)
    plans = [_tick_chunks(rng, data) for data in streams]

    solo_states = [dispatcher.initial_states() for _ in streams]
    oracle = [[] for _ in streams]
    for row, plan in enumerate(plans):
        for chunk in plan:
            oracle[row].extend(
                dispatcher.run_chunk(chunk, solo_states[row]).reports
            )

    states = [dispatcher.initial_states() for _ in streams]
    got = [[] for _ in streams]
    for tick in range(max(len(plan) for plan in plans)):
        chunks = [plan[tick] if tick < len(plan) else b"" for plan in plans]
        for row, result in enumerate(
            dispatcher.run_chunk_batch(chunks, states)
        ):
            got[row].extend(result.reports)

    for row in range(len(streams)):
        assert _keys(got[row]) == _keys(oracle[row]), f"row {row}"


def test_dispatcher_run_chunk_batch_validates():
    dispatcher = Dispatcher(_automaton(), ScanConfig(num_shards=2))
    states = dispatcher.initial_states()
    with pytest.raises(SimulationError):
        dispatcher.run_chunk_batch([b"x"], [])
    with pytest.raises(SimulationError):
        dispatcher.run_chunk_batch([b"x"], [states[:1]])


# -- service level ---------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_scan_many_batched_matches_sequential(backend):
    rng = random.Random(61)
    automaton = _automaton()
    streams = {
        f"s{i}": data for i, data in enumerate(_random_streams(rng, 7, 500))
    }
    with MatchingService(
        ScanConfig(backend=backend, batch_max_rows=1)
    ) as sequential, MatchingService(
        ScanConfig(backend=backend, batch_max_rows=3, chunk_size=64)
    ) as batched:
        seq = sequential.scan_many(automaton, streams, chunk_size=64)
        bat = batched.scan_many(automaton, streams, chunk_size=64)
        for name in streams:
            assert _keys(bat[name].reports) == _keys(seq[name].reports), name
            assert bat[name].stats.num_cycles == seq[name].stats.num_cycles
            assert bat[name].stats.num_reports == seq[name].stats.num_reports
            assert bat[name].truncated == seq[name].truncated
        # shrinking budgets: the global cap trims identically
        seq = sequential.scan_many(
            automaton, streams, chunk_size=64, max_reports=3
        )
        bat = batched.scan_many(
            automaton, streams, chunk_size=64, max_reports=3
        )
        for name in streams:
            assert _keys(bat[name].reports) == _keys(seq[name].reports), name
            assert bat[name].truncated == seq[name].truncated


# -- scheduler / server level ---------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_feed_session_batch_matches_solo_feeds(backend):
    rng = random.Random(83)
    automaton = _automaton()
    streams = _random_streams(rng, 5, 400)
    with MatchingService(ScanConfig(backend=backend)) as solo_svc:
        solo = [
            solo_svc.open_session(automaton, f"solo{i}")
            for i in range(len(streams))
        ]
        with MatchingService(ScanConfig(backend=backend)) as batch_svc:
            batched = [
                batch_svc.open_session(automaton, f"batch{i}")
                for i in range(len(streams))
            ]
            dispatcher = batched[0].dispatcher
            cursors = [0] * len(streams)
            while any(c < len(s) for c, s in zip(cursors, streams)):
                entries, expect = [], []
                for i, session in enumerate(batched):
                    if cursors[i] >= len(streams[i]):
                        continue
                    size = rng.randrange(1, 40)
                    chunk = streams[i][cursors[i] : cursors[i] + size]
                    cursors[i] += len(chunk)
                    entries.append((session, chunk))
                    expect.append(solo[i].feed(chunk))
                outcomes = feed_session_batch(dispatcher, entries)
                for (reports, exc), solo_reports in zip(outcomes, expect):
                    assert exc is None
                    assert _keys(reports) == _keys(solo_reports)
            for a, b in zip(solo, batched):
                assert _keys(a.reports) == _keys(b.reports)
                assert a.position == b.position


def test_session_absorb_rejects_closed_session():
    """absorb() enforces the same closed check feed() does — the
    batched path must not sneak results into a closed stream."""
    automaton = _automaton()
    with MatchingService(ScanConfig()) as service:
        session = service.open_session(automaton, "s")
        dispatcher = session.dispatcher
        result = dispatcher.run_chunk(b"abcddx", dispatcher.initial_states())
        session.close()
        before = len(session.reports)
        with pytest.raises(SimulationError, match="closed"):
            session.absorb(b"abcddx", result)
        assert len(session.reports) == before


def test_feed_session_batch_skips_closed_sessions():
    """A closed session in a batch gets the solo-feed error and its
    shard states stay untouched; live rows are unaffected."""
    automaton = _automaton()
    chunk = b"abcddx123zfoobar"
    with MatchingService(ScanConfig()) as svc:
        expected = _keys(svc.open_session(automaton, "ref").feed(chunk))
    with MatchingService(ScanConfig()) as svc:
        live = svc.open_session(automaton, "live")
        dead = svc.open_session(automaton, "dead")
        dead.feed(b"abcd")
        dead.close()
        position = dead.position
        frozen = [_active(state) for state in dead.shard_states]
        outcomes = feed_session_batch(
            live.dispatcher, [(dead, chunk), (live, chunk)]
        )
        dead_reports, dead_exc = outcomes[0]
        assert dead_reports == []
        assert isinstance(dead_exc, SimulationError)
        assert "closed" in str(dead_exc)
        live_reports, live_exc = outcomes[1]
        assert live_exc is None
        assert _keys(live_reports) == expected
        assert dead.position == position
        assert [_active(state) for state in dead.shard_states] == frozen


def test_batch_scheduler_propagates_closed_session_error():
    """Submitting a closed session's feed resolves with the solo-feed
    SimulationError instead of corrupting the batch."""
    automaton = _automaton()
    chunk = b"abcddx123z"
    with MatchingService(ScanConfig()) as svc:
        expected = _keys(svc.open_session(automaton, "ref").feed(chunk))

    async def drive():
        with ThreadPoolExecutor(max_workers=1) as executor:
            scheduler = BatchScheduler(executor, max_rows=2)
            with MatchingService(ScanConfig()) as service:
                live = service.open_session(automaton, "live")
                dead = service.open_session(automaton, "dead")
                dead.close()
                dispatcher = live.dispatcher
                return await asyncio.gather(
                    scheduler.submit(dispatcher, dead, chunk),
                    scheduler.submit(dispatcher, live, chunk),
                    return_exceptions=True,
                )

    dead_result, live_result = asyncio.run(drive())
    assert isinstance(dead_result, SimulationError)
    assert "closed" in str(dead_result)
    assert _keys(live_result) == expected


class SteppedExecutor:
    """An executor whose jobs run only when the test steps them, so the
    scheduler's busy/idle transitions are driven by hand, not by time."""

    def __init__(self):
        self.held = []  # (future, fn, args), oldest first

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        self.held.append((future, fn, args))
        return future

    def rows(self):
        """Row count of every held ``feed_session_batch`` job."""
        return [len(args[1]) for _, _, args in self.held]

    def step(self, cancel=False):
        """Run (or cancel) the oldest held job on the calling thread."""
        future, fn, args = self.held.pop(0)
        if cancel:
            assert future.cancel()
            return
        future.set_running_or_notify_cancel()
        try:
            future.set_result(fn(*args))
        except Exception as exc:  # noqa: BLE001
            future.set_exception(exc)


class FailOnce:
    """A dispatcher whose first batched step raises."""

    def __init__(self, inner):
        self.inner = inner
        self.failed = False

    def run_chunk_batch(self, *args, **kwargs):
        if not self.failed:
            self.failed = True
            raise RuntimeError("kernel fell over")
        return self.inner.run_chunk_batch(*args, **kwargs)


SCHEDULER_DATA = b"abcddx123zfoobar" * 3


def _waits_recorded():
    """Observations so far in the ``repro_batch_wait_seconds`` histogram."""
    family = default_registry().collect()["repro_batch_wait_seconds"]
    return sum(sample["count"] for sample in family["samples"].values())


def _drive_scheduler(scenario, *, max_rows=64, sessions=4):
    """Run ``scenario(scheduler, executor, sessions, submit)`` on a loop
    with a :class:`SteppedExecutor`; ``submit(session, dispatcher=None)``
    starts one feed of ``SCHEDULER_DATA`` and returns its task, already
    advanced to where ``BatchScheduler.submit`` awaits.  Returns what the
    scenario returns, the solo-feed reference, and the final stats
    (checked: one reason per batch, one row per feed)."""
    automaton = _automaton()
    with MatchingService(ScanConfig()) as svc:
        reference = _keys(
            svc.open_session(automaton, "ref").feed(SCHEDULER_DATA)
        )
    fed = []
    waits_before = _waits_recorded()

    async def drive():
        executor = SteppedExecutor()
        scheduler = BatchScheduler(executor, max_rows=max_rows)
        with MatchingService(ScanConfig()) as service:
            opened = [
                service.open_session(automaton, f"s{i}")
                for i in range(sessions)
            ]

            async def submit(session, dispatcher=None):
                task = asyncio.ensure_future(
                    scheduler.submit(
                        dispatcher or session.dispatcher,
                        session,
                        SCHEDULER_DATA,
                    )
                )
                fed.append(task)
                await asyncio.sleep(0)  # runs the task up to its await
                return task

            out = await scenario(scheduler, executor, opened, submit)
            assert not executor.held  # the scenario stepped every job
            return out, scheduler.stats()

    out, stats = asyncio.run(drive())
    assert sum(stats["flush_reasons"].values()) == stats["batches"]
    assert stats["rows"] == len(fed)
    assert stats["flush_reasons"]["max_delay"] == 0
    if default_registry().enabled:  # every feed's submit-to-flush wait
        assert _waits_recorded() - waits_before == len(fed)
    return out, reference, stats


async def _finish(task):
    return _keys(await asyncio.wait_for(task, timeout=5))


def test_flush_reason_names_the_harness_reads_are_kept():
    """benchmarks/e2e builds its totals from FLUSH_REASONS and indexes
    these names in the ``stats`` frame; new reasons go at the end."""
    from repro.service.batching import FLUSH_REASONS

    kept = ("rows_full", "max_delay", "immediate", "drain")
    assert FLUSH_REASONS[: len(kept)] == kept
    stats = BatchScheduler(SteppedExecutor(), max_rows=2).stats()
    assert set(kept) <= set(stats["flush_reasons"])
    assert set(stats["flush_reasons"]) == set(FLUSH_REASONS)


def test_batch_scheduler_lone_feed_flushes_immediately():
    """A feed whose dispatcher is idle reaches the executor inside
    submit — no timer, no wait — and counts as 'immediate'."""

    async def scenario(scheduler, executor, sessions, submit):
        task = await submit(sessions[0])
        assert executor.rows() == [1]  # already handed over
        executor.step()
        return await _finish(task)

    got, reference, stats = _drive_scheduler(scenario)
    assert got == reference
    assert stats["batches"] == 1
    assert stats["flush_reasons"]["immediate"] == 1


def test_batch_scheduler_backlog_flushes_once_in_submit_order():
    """k feeds arriving behind a running batch park, then run as ONE
    batch of k rows, in submit order, the moment it completes."""

    async def scenario(scheduler, executor, sessions, submit):
        tasks = [await submit(session) for session in sessions]
        assert executor.rows() == [1]  # three parked behind the first
        assert not any(task.done() for task in tasks)
        executor.step()
        first = await _finish(tasks[0])
        assert executor.rows() == [3]
        entries = executor.held[0][2][1]
        assert [s.name for s, _ in entries] == ["s1", "s2", "s3"]
        assert not any(task.done() for task in tasks[1:])
        executor.step()
        return [first] + [await _finish(task) for task in tasks[1:]]

    got, reference, stats = _drive_scheduler(scenario)
    assert got == [reference] * 4
    assert stats["batches"] == 2
    assert stats["flush_reasons"]["immediate"] == 1
    assert stats["flush_reasons"]["backlog"] == 1


def test_batch_scheduler_rows_full_does_not_wait_for_the_running_batch():
    """A parked group that reaches max_rows flushes at once, beside the
    batch still in flight; what parks after it is the next backlog."""

    async def scenario(scheduler, executor, sessions, submit):
        tasks = [await submit(session) for session in sessions[:3]]
        assert executor.rows() == [1, 2]  # nothing was stepped yet
        tasks.append(await submit(sessions[3]))
        assert executor.rows() == [1, 2]  # parked: two batches running
        executor.step()
        await _finish(tasks[0])
        assert executor.rows() == [2, 1]  # a completion frees the backlog
        executor.step()
        executor.step()
        return [await _finish(task) for task in tasks]

    got, reference, stats = _drive_scheduler(scenario, max_rows=2)
    assert got == [reference] * 4
    assert stats["flush_reasons"]["immediate"] == 1
    assert stats["flush_reasons"]["rows_full"] == 1
    assert stats["flush_reasons"]["backlog"] == 1


def test_batch_scheduler_close_flushes_parked_group_and_stops_parking():
    """close() while busy: the parked group flushes as 'drain', and
    feeds racing in behind it flush at once, busy dispatcher or not."""

    async def scenario(scheduler, executor, sessions, submit):
        running = await submit(sessions[0])
        parked = await submit(sessions[1])
        assert executor.rows() == [1]
        scheduler.close()
        assert executor.rows() == [1, 1]
        late = await submit(sessions[2])
        assert executor.rows() == [1, 1, 1]  # the first is still running
        for _ in range(3):
            executor.step()
        return [await _finish(task) for task in (running, parked, late)]

    got, reference, stats = _drive_scheduler(scenario)
    assert got == [reference] * 3
    assert stats["flush_reasons"]["drain"] == 1
    assert stats["flush_reasons"]["immediate"] == 2
    assert stats["flush_reasons"]["backlog"] == 0


def test_batch_scheduler_dispatchers_never_block_each_other():
    """Busy is per dispatcher: a batch running for one ruleset parks
    nothing that belongs to another."""
    other = compile_regex_set({"x": "xyz+"}, name="other-ruleset")

    async def scenario(scheduler, executor, sessions, submit):
        with MatchingService(ScanConfig()) as service:
            stranger = service.open_session(other, "stranger")
            assert stranger.dispatcher is not sessions[0].dispatcher
            held = await submit(sessions[0])
            free = await submit(stranger)
            assert executor.rows() == [1, 1]  # both immediate
            behind = await submit(sessions[1])
            assert executor.rows() == [1, 1]  # parks behind its own only
            executor.held.reverse()  # the stranger's batch finishes first
            executor.step()
            assert await _finish(free) == []
            assert executor.rows() == [1]  # ... and releases nothing
            executor.step()
            first = await _finish(held)
            executor.step()
            return [first, await _finish(behind)]

    got, reference, stats = _drive_scheduler(scenario)
    assert got == [reference] * 2
    assert stats["flush_reasons"]["immediate"] == 2
    assert stats["flush_reasons"]["backlog"] == 1


@pytest.mark.parametrize("failure", ["raises", "cancelled"])
def test_batch_scheduler_failed_batch_still_releases_its_backlog(failure):
    """Completion is the only thing that frees a backlog, so a batch
    that raises (or whose executor job is cancelled) must still free
    it: the failed group gets the error, the parked group runs and
    matches the solo reference."""

    async def scenario(scheduler, executor, sessions, submit):
        dispatcher = sessions[0].dispatcher
        if failure == "raises":
            dispatcher = FailOnce(dispatcher)
        tasks = [
            await submit(session, dispatcher) for session in sessions[:3]
        ]
        assert executor.rows() == [1]
        executor.step(cancel=failure == "cancelled")
        first = (await asyncio.gather(tasks[0], return_exceptions=True))[0]
        assert executor.rows() == [2]  # the backlog was released
        executor.step()
        return first, [await _finish(task) for task in tasks[1:]]

    (first, parked), reference, stats = _drive_scheduler(scenario)
    if failure == "raises":
        assert isinstance(first, RuntimeError)
        assert "fell over" in str(first)
    else:
        assert isinstance(first, asyncio.CancelledError)
    assert parked == [reference] * 2
    assert stats["flush_reasons"]["backlog"] == 1


def test_server_drain_releases_feed_parked_behind_a_running_batch(
    monkeypatch,
):
    """End-to-end drain race: a feed parked behind a batch that is
    still running resolves correctly — and without waiting for that
    batch — when another client triggers shutdown."""
    import threading
    import time

    from repro.service import BackgroundServer, MatchingClient, batching

    automaton = _automaton()
    data = b"abcddx123zfoobarbaz" * 4
    with MatchingService(ScanConfig()) as svc:
        expected = _keys(svc.open_session(automaton, "ref").feed(data))

    started, gate = threading.Event(), threading.Event()
    real = batching.feed_session_batch

    def held_first(dispatcher, entries):
        if not started.is_set():
            started.set()
            assert gate.wait(30)
        return real(dispatcher, entries)

    monkeypatch.setattr(batching, "feed_session_batch", held_first)
    got, errors = {}, []
    # the sparse kernel: only feeds that do not step inline reach the
    # batch scheduler this test holds
    config = ScanConfig(backend="sparse", batch_max_rows=64)
    with BackgroundServer(config=config, executor_workers=2) as bg:

        def worker(name):
            try:
                with MatchingClient(port=bg.port) as client:
                    handle = client.register(RULES)
                    session = client.open_session(handle, name)
                    got[name] = _keys(session.feed(data))
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        running = threading.Thread(target=worker, args=("running",))
        running.start()
        assert started.wait(30)
        parked = threading.Thread(target=worker, args=("parked",))
        parked.start()
        scheduler = bg.server._batcher
        deadline = time.monotonic() + 30
        while not any(lane.entries for lane in scheduler._lanes.values()):
            assert time.monotonic() < deadline, "the feed never parked"
            time.sleep(0.005)
        with MatchingClient(port=bg.port) as client:
            client.shutdown()
        parked.join(30)  # the drain flush runs beside the held batch
        assert not parked.is_alive()
        assert running.is_alive()
        gate.set()
        running.join(30)
        assert not running.is_alive()
    assert not errors, errors
    assert got == {"running": expected, "parked": expected}
    stats = scheduler.stats()
    assert stats["batches"] == stats["rows"] == 2
    assert stats["flush_reasons"]["immediate"] == 1
    assert stats["flush_reasons"]["drain"] == 1


def test_batch_scheduler_coalesces_and_matches():
    """Concurrent submits resolve with the same reports as solo feeds."""
    automaton = _automaton()
    rng = random.Random(97)
    streams = _random_streams(rng, 6, 300)
    with MatchingService(ScanConfig()) as solo_svc:
        expected = []
        for i, data in enumerate(streams):
            session = solo_svc.open_session(automaton, f"s{i}")
            expected.append(_keys(session.feed(data)))

    async def drive():
        with ThreadPoolExecutor(max_workers=2) as executor:
            scheduler = BatchScheduler(executor, max_rows=4)
            with MatchingService(ScanConfig()) as service:
                sessions = [
                    service.open_session(automaton, f"s{i}")
                    for i in range(len(streams))
                ]
                dispatcher = sessions[0].dispatcher
                jobs = [
                    scheduler.submit(dispatcher, session, data)
                    for session, data in zip(sessions, streams)
                ]
                reports = await asyncio.gather(*jobs)
                return [_keys(r) for r in reports], scheduler.stats()

    got, stats = asyncio.run(drive())
    assert got == expected
    assert stats["enabled"] is True
    assert stats["rows"] == len(streams)
    assert stats["batches"] < len(streams)  # something actually coalesced
    assert stats["flush_reasons"]["rows_full"] >= 1
    assert sum(stats["flush_reasons"].values()) == stats["batches"]


def test_server_batched_feeds_match_unbatched():
    """The full wire path: batched server == batching-disabled server."""
    from repro.service import BackgroundServer, MatchingClient

    rng = random.Random(3)
    streams = {
        f"c{i}": bytes(rng.choice(ALPHABET) for _ in range(240))
        for i in range(4)
    }

    def run(batch_rows):
        import threading

        config = ScanConfig(batch_max_rows=batch_rows)
        out, errors = {}, []
        with BackgroundServer(config=config, executor_workers=4) as bg:
            def worker(name, data):
                try:
                    with MatchingClient(port=bg.port) as client:
                        handle = client.register(RULES)
                        session = client.open_session(handle, name)
                        collected = []
                        for start in range(0, len(data), 48):
                            collected.extend(
                                session.feed(data[start : start + 48])
                            )
                        session.close()
                        out[name] = _keys(collected)
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [
                threading.Thread(target=worker, args=item)
                for item in streams.items()
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
            with MatchingClient(port=bg.port) as client:
                stats = client.stats()
        assert not errors, errors
        return out, stats

    batched, batched_stats = run(8)
    solo, solo_stats = run(1)
    assert batched == solo
    assert batched_stats["batching"]["enabled"] is True
    assert batched_stats["batching"]["rows"] >= len(streams)
    assert solo_stats["batching"] == {"enabled": False}


# -- the inline feed path ---------------------------------------------------


@pytest.fixture
def feed_threads(monkeypatch):
    """The thread that ran each served ``feed_session_batch`` call."""
    threads = []
    real = batching.feed_session_batch

    def recording(dispatcher, entries):
        threads.append(threading.current_thread())
        return real(dispatcher, entries)

    monkeypatch.setattr(batching, "feed_session_batch", recording)
    return threads


def _serve_one_feed(monkeypatch, config, chunk, **open_options):
    """Feed ``chunk`` into a fresh session on a fresh server.  Returns
    the reports, the server's loop thread, the executor jobs submitted
    during the feed, and the ``batching`` block of the stats frame."""
    submitted = []
    with BackgroundServer(config=config, executor_workers=2) as bg:
        executor = bg.server._executor
        real_submit = executor.submit

        def counting_submit(fn, *args, **kwargs):
            submitted.append(fn)
            return real_submit(fn, *args, **kwargs)

        with MatchingClient(port=bg.port) as client:
            handle = client.register(RULES)
            session = client.open_session(handle, "s", **open_options)

            def no_compile(*args, **kwargs):
                raise AssertionError("a feed compiled a shard engine")

            # open_session built the engines; no feed may build one
            monkeypatch.setattr(sharding, "_build_engine", no_compile)
            monkeypatch.setattr(executor, "submit", counting_submit)
            reports = session.feed(chunk)
            stats = client.stats()["batching"]
        return _keys(reports), bg._thread, submitted, stats


def _feed_chunk(size):
    return (b"abcddx123zfoobarbaz q nd" * (size // 24 + 1))[:size]


@pytest.mark.skipif(not native_available(), reason="needs the C loop")
@pytest.mark.parametrize(
    "backend, batch_rows",
    [
        pytest.param("native", 64, id="64"),
        pytest.param("native", 1, id="1"),
        pytest.param("auto", 64, id="auto"),  # auto takes the C loop
    ],
)
def test_idle_native_feed_steps_inline_on_the_loop(
    monkeypatch, feed_threads, backend, batch_rows
):
    """A 512 B feed on a C-loop session whose ruleset is idle runs on
    the event-loop thread and never reaches the executor; it still
    counts as one 'immediate' flush of one row.  batch_max_rows=1
    only turns coalescing off."""
    chunk = _feed_chunk(512)
    config = ScanConfig(backend=backend, batch_max_rows=batch_rows)
    reports, loop_thread, submitted, stats = _serve_one_feed(
        monkeypatch, config, chunk
    )
    assert feed_threads == [loop_thread]
    assert submitted == []
    assert reports == _keys(oracle_run(_automaton(), chunk).reports)
    if batch_rows == 1:
        assert stats == {"enabled": False}
    else:
        assert stats["batches"] == stats["rows"] == 1
        assert stats["flush_reasons"]["immediate"] == 1


@pytest.mark.parametrize(
    "config, size, open_options",
    [
        (ScanConfig(backend="native"), 512, {"hardware_ledger": True}),
        (ScanConfig(backend="sparse"), 512, {}),
        (ScanConfig(backend="native"), INLINE_FEED_BYTES + 1, {}),
    ],
    ids=["ledgered", "sparse", "4097B"],
)
def test_other_feeds_run_on_an_executor_thread(
    monkeypatch, feed_threads, config, size, open_options
):
    """A ledger probe, the sparse kernel, or a chunk past
    INLINE_FEED_BYTES keeps the feed on the thread pool."""
    chunk = _feed_chunk(size)
    reports, loop_thread, submitted, stats = _serve_one_feed(
        monkeypatch, config, chunk, **open_options
    )
    [thread] = feed_threads
    assert thread is not loop_thread
    assert thread.name.startswith("repro-server_")
    assert len(submitted) == 1
    assert reports == _keys(oracle_run(_automaton(), chunk).reports)
    assert stats["flush_reasons"]["immediate"] == 1


@pytest.mark.parametrize("seed", [5, 23])
def test_inline_and_executor_feeds_match_the_oracle(seed):
    """Random splits — 1-byte chunks, small ones, ~512 B and some past
    INLINE_FEED_BYTES, so one stream crosses both paths on a native
    server — give byte-identical reports on native and sparse servers,
    equal to the naive oracle's."""
    rng = random.Random(seed)
    data = bytes(rng.choice(ALPHABET) for _ in range(12_000))
    chunks = [data[i : i + 1] for i in range(48)]
    start = len(chunks)
    while start < len(data):
        size = rng.choice(
            [1, rng.randrange(2, 64), rng.randrange(400, 600), 4096, 4097]
        )
        chunks.append(data[start : start + size])
        start += size
    expected = _keys(oracle_run(_automaton(), data).reports)
    for backend in ("native", "sparse"):
        config = ScanConfig(backend=backend)
        with BackgroundServer(config=config) as bg:
            with MatchingClient(port=bg.port) as client:
                session = client.open_session(client.register(RULES), "s")
                got = [key for c in chunks for key in _keys(session.feed(c))]
        assert got == expected, backend


def test_inline_and_executor_feeds_fail_alike():
    """A closed session and the strict report cap give the same error
    frames whether the feed steps inline (native) or on the executor
    (sparse); the strict stream stays usable afterwards."""
    outcomes = {}
    for backend in ("native", "sparse"):
        with BackgroundServer(config=ScanConfig(backend=backend)) as bg:
            with MatchingClient(port=bg.port) as client:
                handle = client.register(RULES)
                strict = client.open_session(
                    handle, "strict", max_reports=2, on_truncation="error"
                )
                with pytest.raises(SimulationError) as truncated:
                    strict.feed(_feed_chunk(512))
                after = _keys(strict.feed(b"abcddx"))
                gone = client.open_session(handle, "gone")
                # closed under the connection's feet: the scheduler's
                # own closed-session check answers, not the lookup
                [served] = [
                    s
                    for name, s in bg.server.service.sessions.items()
                    if name.endswith("/gone")
                ]
                served.closed = True
                with pytest.raises(RemoteError) as closed:
                    gone.feed(b"abc")
        outcomes[backend] = [
            (type(e.value), str(e.value), getattr(e.value, "code", None))
            for e in (truncated, closed)
        ] + [after, strict.position]
    assert outcomes["native"] == outcomes["sparse"]
    assert "kept-reports cap" in outcomes["native"][0][1]
    assert "closed" in outcomes["native"][1][1]


# -- config syntax ---------------------------------------------------------


def test_scan_config_batch_fields_validate():
    assert ScanConfig().batch_max_rows == 64
    ScanConfig(batch_max_rows=1)  # legal bound
    with pytest.raises(ConfigError):
        ScanConfig(batch_max_rows=0)
    with pytest.raises(ConfigError):
        ScanConfig(batch_max_rows=True)
    # round-trips through the serialized forms like any other field
    cfg = ScanConfig(batch_max_rows=8)
    back = ScanConfig.from_dict(cfg.to_dict())
    assert back.batch_max_rows == 8
    # the delay knob is gone (the scheduler never waits on a timer):
    # naming it is the ordinary unknown-option error
    assert "batch_max_delay_ms" not in cfg.to_dict()
    with pytest.raises(ConfigError, match="unknown scan options"):
        ScanConfig.from_dict({"batch_max_delay_ms": 2.0})
