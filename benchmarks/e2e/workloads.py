"""The four workloads: rulesets, seeded blocks, references, phase plan.

Each workload was chosen because a different layer dominates its cost,
so that an optimization of one layer has a workload that shows it and
one that must not move (see README.md for the prediction table).
"""

from __future__ import annotations

import os
import random
import sys
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path

from measure import report_keys

REPO_ROOT = Path(__file__).resolve().parents[2]

#: seconds one run measures (``run_seconds`` in BENCHMARK.json); the
#: driver's budget of 4 + 22 x 4 runs in 3420 s caps a whole run, set-up
#: included, near 35 s — so every phase is the issue's 8/8/12/4 s plan
#: shortened by this one constant
RUN_SECONDS = 20

#: share of the run each phase measures for; lib/scan/feed are split
#: into :data:`ROUNDS` interleaved rounds, update runs once at the end
PHASE_SHARES = {"lib": 0.25, "scan": 0.25, "feed": 0.375, "update": 0.125}
ROUNDS = 3

#: fresh topologies started per run; ``setup_s`` is their median
SETUP_REPEATS = 3

#: closed-loop connections (and generator threads) of the feed phase
CONNECTIONS = min(os.cpu_count() or 1, 4)

FEED_BYTES = 512

#: report code of the pattern the update phase adds and removes
HOT_CODE = "bench-hot"

#: the 4-regex ruleset of ``benchmarks/bench_server.py`` (31 states)
TINY_RULES = {
    "shell": r"/bin/(sh|bash)",
    "hex-blob": r"0x[0-9a-f]{4}",
    "beacon": r"PING[0-9]+PONG",
    "paper": "(a|b)e*cd+",
}

SNORT_SCALE = 1.0 / 32.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: "tiny" (TINY_RULES) or "snort" (Snort at SNORT_SCALE)
    ruleset: str
    #: "matching" (benchmark_input walks the ruleset) or "random" bytes
    block: str
    block_bytes: int
    #: ``--backend`` of the served topology and the library service;
    #: None is the out-of-the-box default (no flag, ``ScanConfig()``)
    backend: str | None
    #: True: ``repro route`` over two ``repro serve`` nodes, replication 2
    fleet: bool = False
    #: streams per scan request; > 1 drives ``scan_many`` with
    #: ``FEED_BYTES`` per stream
    streams: int = 1


WORKLOADS = (
    Workload(
        name="tiny-dense",
        why="31 states, 27% of bytes report: Report objects, merge, JSON "
        "and the 2 ms batch wait dominate; the kernel is ~3%",
        ruleset="tiny",
        block="matching",
        block_bytes=64 * 1024,
        backend="native",
    ),
    Workload(
        name="snort-quiet",
        why="2627 states / 42 words on random bytes, no reports: the C "
        "loop is ~80% of a scan, so kernel work shows here",
        ruleset="snort",
        block="random",
        block_bytes=64 * 1024,
        backend="native",
    ),
    Workload(
        name="snort-default",
        why="Snort with no backend flag and 32 x 512 B scan_many: what "
        "an IDS user gets by default (auto -> Python sparse), batched",
        ruleset="snort",
        block="matching",
        block_bytes=16 * 1024,
        backend=None,
        streams=32,
    ),
    Workload(
        name="fleet-hotswap",
        why="tiny ruleset, no reports, via repro route over 2 nodes: "
        "framing, hops and checkpoints remain; updates fan out beside feeds",
        ruleset="tiny",
        block="random",
        block_bytes=64 * 1024,
        backend="native",
        fleet=True,
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}


def build_ruleset(workload: Workload):
    """The workload's automaton (fixed: seeds vary inputs, not rules)."""
    if workload.ruleset == "tiny":
        from repro.automata import compile_regex_set

        return compile_regex_set(TINY_RULES, name="e2e-tiny")
    from repro.workloads import generate, profile_of

    return generate(profile_of("Snort"), scale=SNORT_SCALE)


def build_block(workload: Workload, automaton, seed: int) -> bytes:
    """One seeded block; phases tile it, never generate megabytes."""
    if workload.block == "random":
        return random.Random(seed).randbytes(workload.block_bytes)
    from repro.workloads import benchmark_input

    return benchmark_input(
        automaton, workload.block_bytes, seed=seed, injection_rate=0.05
    )


def hot_pattern(block: bytes) -> str:
    """A literal two-byte pattern that occurs in ``block`` (its middle
    two bytes), so an update visibly changes what a scan reports."""
    mid = len(block) // 2
    return "".join(f"\\x{byte:02x}" for byte in block[mid : mid + 2])


@dataclass
class Inputs:
    """Everything a run needs, made from the seed before timing starts."""

    workload: Workload
    seed: int
    automaton: object
    block: bytes
    #: ``scan_many`` request of the workload (empty when ``streams == 1``)
    streams: dict[str, bytes]
    #: reference ``(cycle, state_id, code)`` keys of one block scan
    block_keys: list
    #: reference keys per stream of the ``scan_many`` request
    stream_keys: dict[str, list]
    #: the update phase's added pattern and the keys it adds to a block
    hot_pattern: str
    hot_keys: list

    @property
    def config_kwargs(self) -> dict:
        backend = self.workload.backend
        return {} if backend is None else {"backend": backend}

    def prefix_keys(self, keys: list, position: int) -> list:
        """The part of sorted ``keys`` reported before ``position``."""
        return keys[: bisect_left(keys, (position, -1, ""))]


def _sparse_keys(automaton, data: bytes) -> list:
    from repro.sim.engine import Engine

    return report_keys(Engine(automaton, backend="sparse").run(data).reports)


def prepare(workload: Workload, seed: int) -> Inputs:
    """Build ruleset, block and references; cross-check the reference
    kernel against the naive oracle on the first 4 KB."""
    from repro.automata import compile_regex_set

    automaton = build_ruleset(workload)
    block = build_block(workload, automaton, seed)
    block_keys = _sparse_keys(automaton, block)

    sys.path.insert(0, str(REPO_ROOT / "tests"))
    try:
        from oracle import oracle_run
    finally:
        sys.path.pop(0)
    head = 4096
    oracle_keys = report_keys(oracle_run(automaton, block[:head]).reports)
    if oracle_keys != block_keys[: bisect_left(block_keys, (head, -1, ""))]:
        raise RuntimeError(
            f"{workload.name}: sparse reference disagrees with tests/oracle.py"
        )

    streams: dict[str, bytes] = {}
    stream_keys: dict[str, list] = {}
    if workload.streams > 1:
        for index in range(workload.streams):
            name = f"s{index:02d}"
            streams[name] = block[index * FEED_BYTES : (index + 1) * FEED_BYTES]
            stream_keys[name] = _sparse_keys(automaton, streams[name])

    pattern = hot_pattern(block)
    hot = compile_regex_set({HOT_CODE: pattern}, name="e2e-hot")
    # apply_update appends the added component after the base states
    offset = len(automaton)
    hot_keys = [
        (cycle, state_id + offset, code)
        for cycle, state_id, code in _sparse_keys(hot, block)
    ]
    return Inputs(
        workload=workload,
        seed=seed,
        automaton=automaton,
        block=block,
        streams=streams,
        block_keys=block_keys,
        stream_keys=stream_keys,
        hot_pattern=pattern,
        hot_keys=hot_keys,
    )
