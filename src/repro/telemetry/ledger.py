"""The hardware ledger: modeled CAMA cost attached to serving traffic.

The paper's central claim is an energy/latency model (§VIII.C, Fig. 11
/ Fig. 12); the serving stack's central artifact is a scan result.
This module joins them: a :class:`HardwareLedger` is the modeled cost —
energy breakdown in pJ, cycle latency at the design's operated
frequency, and tile occupancy — of executing one scan (or one streamed
session) on the chosen CAMA design.

Accounting fidelity is the point, so the ledger does **not** reuse the
serving path's activity statistics (shards run without a placement,
and a sharded run's per-partition activity would not equal the
monolithic placement's anyway).  Instead :class:`LedgerProbe` runs a
*reference side-simulation*: the monolithic automaton on the sparse
kernel with the design build's placement and ``max_reports=0`` —
literally the accounting path of
``repro.experiments.fig12_energy_breakdown`` (see
``ExperimentContext.stats``), so a served scan's ledger matches the
offline experiment's numbers for the same workload exactly (the
differential test in ``tests/test_ledger.py`` asserts equality).  The
probe is resumable (chunk by chunk, folding partition-resolved
statistics through :meth:`TraceStats.accumulate`), which is what lets
streamed sessions carry a running ledger.

This is the opt-in, pay-for-what-you-ask half of telemetry, and it is
expensive: the probe re-runs the whole input on the Python sparse
kernel, so a ledgered scan runs ~900x slower than a plain one (0.033
vs 29.4 MB/s on Snort at 1/32 scale, 64 KB, native kernel, in-process,
2-vCPU x86 host).  It only exists when
``ScanConfig(hardware_ledger=True)`` asked for it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.designs import ALL_DESIGNS, DesignBuild, build_design
from repro.errors import ConfigError
from repro.sim.engine import Engine
from repro.sim.trace import TraceStats

__all__ = [
    "ALL_DESIGNS",
    "HardwareLedger",
    "LedgerAccumulator",
    "LedgerProbe",
    "check_ledger_design",
]

#: nominal state capacity of one partition (a local switch / SM array);
#: every modeled design provisions 256-position arrays (FCB-mode CAMA
#: switches hold 128, so occupancy is approximate there)
NOMINAL_PARTITION_STATES = 256


def check_ledger_design(design: str) -> str:
    """Validate a ledger design name (raises :class:`ConfigError`)."""
    if design not in ALL_DESIGNS:
        known = ", ".join(ALL_DESIGNS)
        raise ConfigError(
            f"unknown ledger design {design!r}; known: {known}"
        )
    return design


@dataclass(frozen=True)
class HardwareLedger:
    """Modeled hardware cost of one scan on one design.

    Energy fields are the Fig. 12 breakdown (absolute pJ over the whole
    scan); ``modeled_latency_s`` is ``num_cycles`` at the design's
    operated frequency (Table IV); ``tile_occupancy`` is the fraction
    of provisioned state slots actually holding states.
    """

    design: str
    num_cycles: int
    state_match_pj: float
    switch_pj: float
    wire_pj: float
    encoder_pj: float
    total_pj: float
    freq_ghz: float
    modeled_latency_s: float
    modeled_throughput_gbps: float
    num_partitions: int
    placed_states: int
    tile_occupancy: float
    counts: dict

    @property
    def per_cycle_pj(self) -> float:
        return self.total_pj / self.num_cycles if self.num_cycles else 0.0

    def fractions(self) -> dict[str, float]:
        """Fig. 12's stacked-bar fractions of the total."""
        total = self.total_pj or 1.0
        return {
            "state_match": self.state_match_pj / total,
            "switch_wire": (self.switch_pj + self.wire_pj) / total,
            "encoder": self.encoder_pj / total,
        }

    def to_dict(self) -> dict:
        return {
            "design": self.design,
            "num_cycles": self.num_cycles,
            "state_match_pj": self.state_match_pj,
            "switch_pj": self.switch_pj,
            "wire_pj": self.wire_pj,
            "encoder_pj": self.encoder_pj,
            "total_pj": self.total_pj,
            "per_cycle_pj": self.per_cycle_pj,
            "freq_ghz": self.freq_ghz,
            "modeled_latency_s": self.modeled_latency_s,
            "modeled_throughput_gbps": self.modeled_throughput_gbps,
            "num_partitions": self.num_partitions,
            "placed_states": self.placed_states,
            "tile_occupancy": self.tile_occupancy,
            "counts": dict(self.counts),
        }

    @classmethod
    def from_stats(cls, build: DesignBuild, stats: TraceStats) -> "HardwareLedger":
        """Fold partition-resolved statistics through the design's models."""
        energy = build.energy(stats)
        timing = build.timing
        freq = timing.freq_operated_ghz
        placed = len(build.placement.partition_of)
        provisioned = build.placement.num_partitions * NOMINAL_PARTITION_STATES
        return cls(
            design=build.design,
            num_cycles=stats.num_cycles,
            state_match_pj=energy.state_match_pj,
            switch_pj=energy.local_switch_pj + energy.global_switch_pj,
            wire_pj=energy.wire_pj,
            encoder_pj=energy.encoder_pj,
            total_pj=energy.total_pj,
            freq_ghz=freq,
            modeled_latency_s=stats.num_cycles / (freq * 1e9) if freq else 0.0,
            modeled_throughput_gbps=timing.throughput_gbps(),
            num_partitions=build.placement.num_partitions,
            placed_states=placed,
            tile_occupancy=placed / provisioned if provisioned else 0.0,
            counts=dict(build.counts),
        )

    def render(self) -> str:
        """Human-readable lines for CLI ``--ledger`` output."""
        fractions = self.fractions()
        return "\n".join(
            [
                f"ledger design={self.design}  cycles={self.num_cycles}",
                (
                    f"  energy: total={self.total_pj:.1f} pJ "
                    f"({self.per_cycle_pj:.3f} pJ/cycle) — "
                    f"state-match {100 * fractions['state_match']:.1f}% / "
                    f"switch+wire {100 * fractions['switch_wire']:.1f}% / "
                    f"encoder {100 * fractions['encoder']:.1f}%"
                ),
                (
                    f"  timing: {self.freq_ghz:.2f} GHz -> "
                    f"{self.modeled_latency_s * 1e6:.2f} us modeled latency, "
                    f"{self.modeled_throughput_gbps:.1f} Gbps line rate"
                ),
                (
                    f"  placement: {self.placed_states} states in "
                    f"{self.num_partitions} partitions "
                    f"({100 * self.tile_occupancy:.1f}% occupancy)"
                ),
            ]
        )


class LedgerProbe:
    """Resumable reference accounting for one automaton on one design.

    Feeds chunks through a monolithic sparse engine carrying the design
    build's placement — the exact accounting run of the Fig. 12
    experiment — and accumulates partition-resolved statistics, so
    :meth:`ledger` is available mid-stream at any chunk boundary.
    """

    def __init__(
        self,
        automaton,
        design: str = "CAMA-E",
        *,
        build: DesignBuild | None = None,
        engine: Engine | None = None,
    ) -> None:
        check_ledger_design(design)
        # pinned to the sparse kernel: it is the reference backend the
        # offline experiments collect activity with.  ``build`` and
        # ``engine`` let a caller (the service) reuse cached reference
        # material across probes — engines are stateless between runs,
        # so sharing one is safe.
        self.build = build if build is not None else build_design(design, automaton)
        if engine is None:
            engine = Engine(automaton, backend="sparse")
        elif engine.backend_name != "sparse":
            raise ConfigError(
                "the ledger probe needs the sparse reference kernel, got "
                f"{engine.backend_name!r}"
            )
        self.engine = engine
        self.state = self.engine.initial_state()
        self.stats = TraceStats(num_states=len(automaton))

    def feed(self, chunk: bytes) -> None:
        result = self.engine.run_chunk(
            chunk,
            self.state,
            placement=self.build.placement,
            max_reports=0,
        )
        self.stats.accumulate(result.stats)

    def run(self, data: bytes) -> "HardwareLedger":
        self.feed(data)
        return self.ledger()

    def ledger(self) -> "HardwareLedger":
        return HardwareLedger.from_stats(self.build, self.stats)


class LedgerAccumulator:
    """Running totals over many ledgers (the service/server stats frame).

    Callers synchronize externally (the service folds under its own
    lock); this object just adds.
    """

    def __init__(self) -> None:
        self.scans = 0
        self.cycles = 0
        self.total_pj = 0.0
        self.state_match_pj = 0.0
        self.switch_pj = 0.0
        self.wire_pj = 0.0
        self.encoder_pj = 0.0
        self.modeled_latency_s = 0.0

    def add(self, ledger: HardwareLedger) -> None:
        self.scans += 1
        self.cycles += ledger.num_cycles
        self.total_pj += ledger.total_pj
        self.state_match_pj += ledger.state_match_pj
        self.switch_pj += ledger.switch_pj
        self.wire_pj += ledger.wire_pj
        self.encoder_pj += ledger.encoder_pj
        self.modeled_latency_s += ledger.modeled_latency_s

    def to_dict(self) -> dict:
        return {
            "scans": self.scans,
            "cycles": self.cycles,
            "total_pj": self.total_pj,
            "state_match_pj": self.state_match_pj,
            "switch_pj": self.switch_pj,
            "wire_pj": self.wire_pj,
            "encoder_pj": self.encoder_pj,
            "modeled_latency_s": self.modeled_latency_s,
        }
