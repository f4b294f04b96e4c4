"""Extra experiment: output-report characterization (paper §VI.B).

The paper sizes CAMA's 64-entry output buffer citing Wadden et al.'s
observation that 10 of 12 ANMLZoo benchmarks average < 0.5 reports per
cycle, which lets output interrupts hide behind the 128-entry input
buffer's refill interrupts.  This harness measures the report rate and
the interrupt balance per benchmark — the reproduction of that sizing
argument.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentContext, ExperimentTable
from repro.sim.buffers import buffer_activity


def run(ctx: ExperimentContext) -> ExperimentTable:
    rows = []
    hidden_count = 0
    for name in ctx.benchmarks:
        engine = ctx.engine(name)
        data = ctx.stream(name)
        result = engine.run(data)
        activity = buffer_activity(len(data), result.stats.num_reports)
        hidden_count += activity.output_hidden
        rows.append(
            [
                name,
                round(result.stats.report_rate(), 4),
                result.stats.num_reports,
                activity.input_interrupts,
                activity.output_interrupts,
                "yes" if activity.output_hidden else "no",
            ]
        )
    notes = (
        f"Output interrupts hidden behind input interrupts on "
        f"{hidden_count}/{len(rows)} benchmarks (the paper's sizing "
        "argument holds whenever the report rate stays below ~0.5/cycle)."
    )
    return ExperimentTable(
        experiment="Extra — report rates and buffer interrupts (§VI.B)",
        headers=[
            "benchmark",
            "reports/cycle",
            "reports",
            "input irq",
            "output irq",
            "hidden",
        ],
        rows=rows,
        notes=notes,
    )
