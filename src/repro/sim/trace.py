"""Activity statistics collected during simulation.

The paper's energy model is a function of *activity factors*: how many
partitions are enabled each cycle, how many CAM entries are enabled in
each (CAMA-E's selective precharge), how many switch rows are active,
and how often transitions cross partitions (global-switch traffic).
The engine fills a :class:`TraceStats` as it runs; the architecture
models consume only this summary, never the raw per-cycle sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class PartitionAssignment:
    """Maps every state to a partition (tile / state-matching bank).

    ``partition_of[s]`` is the partition id of state ``s``;
    ``num_partitions`` may exceed ``max(partition_of) + 1`` when some
    partitions hold no states of this automaton.  ``weights`` carries a
    per-state cost (CAMA: CAM entries per state) so the trace can
    accumulate enabled *entries*, the quantity CAMA-E's selective
    precharge energy depends on; it defaults to 1 per state.
    """

    partition_of: np.ndarray
    num_partitions: int
    weights: np.ndarray | None = None

    def __post_init__(self) -> None:
        if len(self.partition_of) and self.partition_of.max() >= self.num_partitions:
            raise ValueError("partition id out of range")
        if self.weights is not None and len(self.weights) != len(self.partition_of):
            raise ValueError("weights length must match partition_of")


@dataclass
class TraceStats:
    """Aggregated activity of one simulation run.

    All ``*_sum`` fields are sums over cycles; divide by ``num_cycles``
    for per-cycle averages.
    """

    num_states: int
    num_cycles: int = 0
    num_reports: int = 0
    #: sum over cycles of the number of enabled states (pre-match)
    enabled_states_sum: int = 0
    #: sum over cycles of the number of active states (post-match)
    active_states_sum: int = 0
    #: per-cycle history (kept small: two ints per cycle)
    enabled_per_cycle: list[int] = field(default_factory=list)
    active_per_cycle: list[int] = field(default_factory=list)

    # -- partition-resolved statistics (present when a placement is given)
    num_partitions: int = 0
    #: cycles in which each partition had >= 1 enabled state
    partition_enabled_cycles: np.ndarray | None = None
    #: cycles in which each partition had >= 1 active state (its local
    #: switch is accessed)
    partition_active_cycles: np.ndarray | None = None
    #: total enabled states per partition over all cycles
    partition_enabled_states_sum: np.ndarray | None = None
    #: total enabled *weight* (e.g. CAM entries) per partition over all cycles
    partition_enabled_weight_sum: np.ndarray | None = None
    #: total active states per partition over all cycles
    partition_active_states_sum: np.ndarray | None = None
    #: sum over cycles of partitions driving the global switch
    global_source_partitions_sum: int = 0
    #: sum over cycles of active states with a cross-partition successor
    global_crossing_states_sum: int = 0

    # -- sequential accumulation ------------------------------------------
    def accumulate(self, chunk: "TraceStats") -> "TraceStats":
        """Fold one chunk's statistics into this running stream total.

        Sequential semantics: the chunk continues the same stream
        through the same automaton, so cycle counts add and per-cycle
        histories concatenate.  Partition-resolved fields are all sums
        over cycles, so they add too — a chunked run with a placement
        accumulates to exactly the one-shot statistics (the hardware
        ledger of a streamed session depends on this).  Returns
        ``self`` for chaining.
        """
        if self.num_states != chunk.num_states:
            raise ValueError(
                "cannot accumulate stats across different automata"
            )
        self.num_cycles += chunk.num_cycles
        self.num_reports += chunk.num_reports
        self.enabled_states_sum += chunk.enabled_states_sum
        self.active_states_sum += chunk.active_states_sum
        self.enabled_per_cycle.extend(chunk.enabled_per_cycle)
        self.active_per_cycle.extend(chunk.active_per_cycle)
        if chunk.num_partitions:
            if self.num_partitions == 0:
                # first partition-resolved chunk: adopt its shape
                self.num_partitions = chunk.num_partitions
                self.partition_enabled_cycles = np.zeros(
                    chunk.num_partitions, dtype=np.int64
                )
                self.partition_active_cycles = np.zeros(
                    chunk.num_partitions, dtype=np.int64
                )
                self.partition_enabled_states_sum = np.zeros(
                    chunk.num_partitions, dtype=np.int64
                )
                self.partition_enabled_weight_sum = np.zeros(
                    chunk.num_partitions, dtype=np.float64
                )
                self.partition_active_states_sum = np.zeros(
                    chunk.num_partitions, dtype=np.int64
                )
            elif self.num_partitions != chunk.num_partitions:
                raise ValueError(
                    "cannot accumulate stats across different placements"
                )
            self.partition_enabled_cycles += chunk.partition_enabled_cycles
            self.partition_active_cycles += chunk.partition_active_cycles
            self.partition_enabled_states_sum += (
                chunk.partition_enabled_states_sum
            )
            self.partition_enabled_weight_sum += (
                chunk.partition_enabled_weight_sum
            )
            self.partition_active_states_sum += (
                chunk.partition_active_states_sum
            )
            self.global_source_partitions_sum += (
                chunk.global_source_partitions_sum
            )
            self.global_crossing_states_sum += chunk.global_crossing_states_sum
        return self

    # -- derived averages -------------------------------------------------
    def avg_enabled_states(self) -> float:
        return self.enabled_states_sum / self.num_cycles if self.num_cycles else 0.0

    def avg_active_states(self) -> float:
        return self.active_states_sum / self.num_cycles if self.num_cycles else 0.0

    def avg_enabled_states_per_enabled_partition(self) -> float:
        """Average enabled-state count in partitions that are enabled —
        the selective-precharge factor of CAMA-E."""
        if self.partition_enabled_cycles is None:
            return 0.0
        total_cycles = float(self.partition_enabled_cycles.sum())
        if not total_cycles:
            return 0.0
        return float(self.partition_enabled_states_sum.sum()) / total_cycles

    def report_rate(self) -> float:
        return self.num_reports / self.num_cycles if self.num_cycles else 0.0
