"""Input/output buffer models (paper §VI.B).

CAMA stages input symbols in a 128-entry buffer and reports in a
64-entry output buffer; each buffer raises a CPU interrupt when it runs
empty (input) or full (output).  The paper sizes the output buffer so
its interrupt rate hides behind the input's on report rates below ~0.5
reports/cycle.  These models turn a simulation's report pattern into
interrupt counts so that sizing argument can be reproduced.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError

INPUT_BUFFER_ENTRIES = 128
OUTPUT_BUFFER_ENTRIES = 64


@dataclass(frozen=True)
class BufferActivity:
    """Interrupt behaviour of one run."""

    input_interrupts: int
    output_interrupts: int
    #: True when output interrupts never exceed input interrupts, i.e.
    #: report draining hides behind input refills (the paper's goal).
    output_hidden: bool


def input_interrupts(num_symbols: int, capacity: int = INPUT_BUFFER_ENTRIES) -> int:
    """Number of refill interrupts to stream ``num_symbols`` symbols."""
    if capacity <= 0:
        raise SimulationError("input buffer capacity must be positive")
    return -(-num_symbols // capacity)


def output_interrupts(
    num_reports: int, capacity: int = OUTPUT_BUFFER_ENTRIES
) -> int:
    """Number of buffer-full interrupts produced by ``num_reports``.

    Every report occupies one entry (active state id, partition id,
    symbol, cycle — §VI.B); the buffer flushes to the CPU when full.
    """
    if capacity <= 0:
        raise SimulationError("output buffer capacity must be positive")
    return num_reports // capacity


def buffer_activity(
    num_symbols: int,
    num_reports: int,
    *,
    input_capacity: int = INPUT_BUFFER_ENTRIES,
    output_capacity: int = OUTPUT_BUFFER_ENTRIES,
) -> BufferActivity:
    """Model both buffers for one run."""
    inputs = input_interrupts(num_symbols, input_capacity)
    outputs = output_interrupts(num_reports, output_capacity)
    return BufferActivity(
        input_interrupts=inputs,
        output_interrupts=outputs,
        output_hidden=outputs <= inputs,
    )
