"""Report records emitted by automata simulation.

Every layer carries reports in columnar form — a :class:`ReportBatch`
of parallel ``cycle`` / ``state_id`` int64 arrays plus the ruleset's
per-state report-code table, the shape of CAMA's output buffer (state
id and cycle per entry, drained in bulk, §VI.B).  A batch is also a
read-only ``Sequence[Report]``: a :class:`Report` is built only when an
item is read.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

#: reports a ReportBatch repr shows before eliding the rest
_REPR_ITEMS = 6


@dataclass(frozen=True, order=True)
class Report:
    """One report event: ``state_id`` fired at input offset ``cycle``.

    ``cycle`` is the 0-based index of the input symbol that produced the
    report. ``code`` carries the ANML report code when one exists.
    """

    cycle: int
    state_id: int
    code: str | None = None


@dataclass(eq=False, repr=False, slots=True)
class ReportBatch(Sequence):
    """Recorded reports as two parallel int64 arrays plus the code table.

    Report ``i`` is ``state_ids[i]`` firing at stream offset
    ``cycles[i]``, with code ``codes[state_ids[i]]`` — ``codes`` is the
    ruleset's per-state report-code table, held by reference, never
    copied per report (a batch decoded off the wire holds a
    ``{state_id: code}`` map of just the states that fired).  Kernels
    emit batches ordered by ``(cycle, state_id)``.  As a
    ``Sequence[Report]`` a batch supports ``len``, indexing (a
    :class:`Report`), slicing (a batch), iteration and ``==`` against
    any sequence of reports.  Batches are read-only by contract; only
    the shared :data:`EMPTY_REPORTS` enforces it, since a kernel builds
    a batch per stream row and chunk and a frozen dataclass costs three
    times as much to build.
    """

    cycles: np.ndarray
    state_ids: np.ndarray
    codes: Sequence

    @staticmethod
    def concat(batches) -> "ReportBatch":
        """One batch of ``batches`` in order, which must share a code
        table (chunks of one stream through one engine or dispatcher).
        Empty batches are skipped; one non-empty batch is returned as
        is, none gives :data:`EMPTY_REPORTS`."""
        parts = list(filter(len, batches))
        if len(parts) <= 1:
            return parts[0] if parts else EMPTY_REPORTS
        return ReportBatch(
            np.concatenate([batch.cycles for batch in parts]),
            np.concatenate([batch.state_ids for batch in parts]),
            parts[0].codes,
        )

    def __len__(self) -> int:
        return len(self.state_ids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return ReportBatch(
                self.cycles[index], self.state_ids[index], self.codes
            )
        state = int(self.state_ids[index])
        return Report(int(self.cycles[index]), state, self.codes[state])

    def __iter__(self):
        if not len(self.state_ids):
            return iter(())
        states = self.state_ids.tolist()
        codes = map(self.codes.__getitem__, states)
        return map(Report, self.cycles.tolist(), states, codes)

    def __eq__(self, other) -> bool:
        if isinstance(other, (str, bytes)) or not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(
            mine == theirs for mine, theirs in zip(self, other)
        )

    def __repr__(self) -> str:
        shown = ", ".join(repr(report) for report in self[:_REPR_ITEMS])
        if len(self) > _REPR_ITEMS:
            shown += f", ... {len(self) - _REPR_ITEMS} more"
        return f"ReportBatch([{shown}])"


_NO_IDS = np.empty(0, dtype=np.int64)
_NO_IDS.flags.writeable = False


class _SharedBatch(ReportBatch):
    """The type of :data:`EMPTY_REPORTS`, which refuses to be rebound."""

    __slots__ = ()

    def __init__(self) -> None:
        for name in ("cycles", "state_ids"):
            object.__setattr__(self, name, _NO_IDS)
        object.__setattr__(self, "codes", ())

    def __setattr__(self, name, value) -> None:
        raise AttributeError("the shared empty report batch is read-only")

    def __reduce__(self) -> str:
        return "EMPTY_REPORTS"  # pickles and copies as the one instance


#: the one batch of every chunk that recorded nothing: shared and
#: immutable, so the zero-report path allocates nothing
EMPTY_REPORTS = _SharedBatch()


class ReportBuffer:
    """One run's recorded reports, appended cycle by cycle under an
    exact cap — the kernels' side of a :class:`ReportBatch`.

    ``room`` is what the cap still allows; ``truncated`` turns True when
    at least one report was dropped (the cap never overshoots by the
    rest of a cycle's simultaneous firings).
    """

    __slots__ = ("codes", "room", "truncated", "_parts")

    def __init__(self, codes: Sequence, cap: int) -> None:
        self.codes = codes
        self.room = cap
        self.truncated = False
        self._parts: list[ReportBatch] = []

    def append(self, cycle: int, firing: np.ndarray) -> None:
        """Record the ``firing`` states' reports at ``cycle``."""
        self.extend(np.full(len(firing), cycle, dtype=np.int64), firing)

    def extend(self, cycles: np.ndarray, states: np.ndarray) -> None:
        """Record parallel ``(cycle, state)`` arrays, owned from now on."""
        if len(states) > self.room:
            self.truncated = True
            cycles, states = cycles[: self.room], states[: self.room]
        if len(states):
            self.room -= len(states)
            self._parts.append(ReportBatch(cycles, states, self.codes))

    def batch(self) -> ReportBatch:
        """Everything recorded, as one batch."""
        return ReportBatch.concat(self._parts)


def report_positions(reports) -> set[tuple[int, int]]:
    """Reduce reports to a set of (cycle, state_id) pairs."""
    return {(r.cycle, r.state_id) for r in reports}


def report_codes_at(reports) -> set[tuple[int, str | None]]:
    """Reduce reports to (cycle, code) pairs — the view transforms must
    preserve even when state identity changes."""
    return {(r.cycle, r.code) for r in reports}
