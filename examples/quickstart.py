"""Quickstart: the repro.api front door, then the layers underneath.

    python examples/quickstart.py

Walks the paper's running example (Fig. 1) through the public API:
regex -> ``Ruleset.compile`` -> scan / save / load, then drops one
level to the CAMA machine (encoding selection -> CAM compression ->
fabric mapping) and cross-checks it against the reference simulator.
"""

import tempfile
from pathlib import Path

from repro.api import CompileConfig, Ruleset, ScanConfig
from repro.core import CamaMachine, compile_automaton
from repro.sim import report_positions


def main() -> None:
    # 1. A small rule set, including the paper's (a|b)e*cd+ example.
    rules = {
        "paper": "(a|b)e*cd+",
        "hex": r"0x[0-9a-f]{2,4}",
        "word": r"c(at|ow|amel)s?",
    }
    data = b"the cats saw 0x1f44 cows by aecddd river"

    # 2. The one-call path: compile under typed configs, scan.
    handle = Ruleset.from_regexes(rules, name="quickstart").compile(
        CompileConfig(backend="auto"),
        scan=ScanConfig(chunk_size=16),  # deliberately tiny: streaming
    )
    result = handle.scan(data)
    print(f"automaton: {handle.automaton}")
    print(f"\ninput: {data.decode()!r}")
    for report in result.reports:
        print(
            f"  matched rule {report.code!r} ending at byte {report.cycle} "
            f"({data[max(0, report.cycle - 9) : report.cycle + 1].decode()!r})"
        )

    # 3. Compile once, load anywhere: the artifact round trip.
    with tempfile.TemporaryDirectory() as tmp:
        path = handle.save(Path(tmp) / "quickstart.cama")
        warm = Ruleset.from_artifact(path).compile()
        again = warm.scan(data)
        assert report_positions(again.reports) == report_positions(
            result.reports
        )
        print(
            f"\nartifact: {path.stat().st_size} bytes, "
            f"key {handle.key[:16]}..., reloaded scan identical"
        )
        warm.close()
    handle.close()

    # 4. One level down: the CAMA program (encoding selection + negation
    #    optimization + mapping) and the CAM-level machine; its reports
    #    must agree with the reference simulator behind handle.scan.
    program = compile_automaton(handle.automaton)
    for key, value in program.summary().items():
        print(f"  {key:16s} {value}")
    machine = CamaMachine(program, variant="E").run(data)
    assert report_positions(machine.reports) == report_positions(
        result.reports
    )
    print(
        f"\nCAM activity: {machine.activity.avg_entries_enabled():.1f} "
        f"entries precharged per cycle (of {program.total_entries} total) — "
        "this sparsity is what CAMA-E's selective precharge exploits."
    )


if __name__ == "__main__":
    main()
