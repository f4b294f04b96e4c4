"""Tests for the command-line interface."""

import pytest

from repro.__main__ import load_automaton, main
from repro.automata import dumps_anml, dumps_mnrl, glushkov_nfa
from repro.errors import ReproError
from repro.sim.backends.native import native_available


@pytest.fixture()
def anml_file(tmp_path):
    path = tmp_path / "rules.anml"
    path.write_text(dumps_anml(glushkov_nfa("(a|b)e*cd+", report_code="m")))
    return path


@pytest.fixture()
def regex_file(tmp_path):
    path = tmp_path / "rules.regex"
    path.write_text("# comment\nabc\nx+y\n\n")
    return path


@pytest.fixture()
def input_file(tmp_path):
    path = tmp_path / "input.bin"
    path.write_bytes(b"aecdabcxxy" * 40)
    return path


class TestLoaders:
    def test_load_anml(self, anml_file):
        assert len(load_automaton(str(anml_file))) == 5

    def test_load_mnrl(self, tmp_path):
        path = tmp_path / "rules.mnrl"
        path.write_text(dumps_mnrl(glushkov_nfa("abc")))
        assert len(load_automaton(str(path))) == 3

    def test_load_regex_list(self, regex_file):
        nfa = load_automaton(str(regex_file))
        assert len(nfa) == 5  # abc (3) + x+y (2)

    def test_missing_file(self):
        with pytest.raises(ReproError, match="no such file"):
            load_automaton("/nonexistent.anml")

    def test_unknown_extension(self, tmp_path):
        path = tmp_path / "rules.yaml"
        path.write_text("x")
        with pytest.raises(ReproError, match="unrecognized"):
            load_automaton(str(path))


class TestCommands:
    def test_compile(self, anml_file, capsys):
        assert main(["compile", str(anml_file)]) == 0
        out = capsys.readouterr().out
        assert "cam_entries" in out

    def test_compile_with_optimize(self, regex_file, capsys):
        assert main(["compile", str(regex_file), "--optimize"]) == 0
        assert "optimized:" in capsys.readouterr().out

    def test_compile_timings(self, anml_file, capsys):
        assert main(["compile", str(anml_file), "--timings"]) == 0
        out = capsys.readouterr().out
        for name in ("parse", "encode", "map", "kernel", "total"):
            assert name in out

    def test_compile_out_and_inspect(self, regex_file, tmp_path, capsys):
        artifact = tmp_path / "rules.npz"
        assert main(["compile", str(regex_file), "--out", str(artifact)]) == 0
        assert artifact.exists()
        assert "artifact:" in capsys.readouterr().out
        assert main(["inspect", str(artifact), "--verify"]) == 0
        out = capsys.readouterr().out
        assert "ruleset_fingerprint" in out
        assert "content verified" in out

    def test_inspect_rejects_non_artifact(self, tmp_path, capsys):
        path = tmp_path / "bogus.npz"
        path.write_bytes(b"not an npz")
        assert main(["inspect", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_compile_stride2(self, regex_file, capsys):
        assert main(["compile", str(regex_file), "--stride", "2"]) == 0
        assert "2-strided" in capsys.readouterr().out

    def test_scan_artifact_cache_warms_across_invocations(
        self, anml_file, input_file, tmp_path, capsys
    ):
        cache = tmp_path / "cache"
        args = [
            "scan",
            str(anml_file),
            str(input_file),
            "--artifact-cache",
            str(cache),
            "--max-reports",
            "5",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert any(cache.glob("*.npz")), "scan should populate the cache"
        assert main(args) == 0
        second = capsys.readouterr().out
        cold = [l for l in first.splitlines() if l.startswith("cycle=")]
        warm = [l for l in second.splitlines() if l.startswith("cycle=")]
        assert cold == warm

    def test_run(self, anml_file, input_file, capsys):
        assert main(["run", str(anml_file), str(input_file)]) == 0
        out = capsys.readouterr().out
        assert "reports over" in out
        assert "code=m" in out

    def test_run_with_limit(self, anml_file, input_file, capsys):
        assert main(["run", str(anml_file), str(input_file), "--limit", "4"]) == 0
        assert "4 cycles" in capsys.readouterr().out

    def test_scan(self, anml_file, input_file, capsys):
        assert (
            main(
                [
                    "scan",
                    str(anml_file),
                    str(input_file),
                    "--chunk-size",
                    "64",
                    "--shards",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "MB/s" in out
        assert "code=m" in out

    def test_scan_ledger_and_trace(self, anml_file, input_file, capsys):
        assert (
            main(
                [
                    "scan",
                    str(anml_file),
                    str(input_file),
                    "--ledger",
                    "--ledger-design",
                    "CAMA-T",
                    "--trace",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "ledger design=CAMA-T" in out
        assert "pJ/cycle" in out and "occupancy" in out
        assert "trace " in out
        assert "- service.scan" in out
        assert "- ledger.probe" in out

    def test_scan_matches_run_reports(self, anml_file, input_file, capsys):
        main(["run", str(anml_file), str(input_file), "--max-reports", "10"])
        run_out = capsys.readouterr().out.splitlines()
        main(
            [
                "scan",
                str(anml_file),
                str(input_file),
                "--chunk-size",
                "7",
                "--max-reports",
                "10",
            ]
        )
        scan_out = capsys.readouterr().out.splitlines()
        assert run_out[:10] == scan_out[:10]

    @pytest.mark.parametrize("backend", ["sparse", "native", "auto"])
    def test_run_backend_flag(self, anml_file, input_file, capsys, backend):
        assert (
            main(
                ["run", str(anml_file), str(input_file), "--backend", backend]
            )
            == 0
        )
        assert "backend " in capsys.readouterr().out

    def test_backend_choice_identical_reports(self, anml_file, input_file, capsys):
        outputs = []
        for backend in ("sparse", "native"):
            main(
                [
                    "scan",
                    str(anml_file),
                    str(input_file),
                    "--backend",
                    backend,
                    "--max-reports",
                    "15",
                ]
            )
            lines = capsys.readouterr().out.splitlines()
            outputs.append([l for l in lines if not l.startswith("#")])
            # the kernel that ran: "native" is sparse without the C loop
            ran = "native" if backend == "native" and native_available() else "sparse"
            assert f"backend {ran}" in lines[-1]
        assert outputs[0] == outputs[1]

    def test_scan_max_kept_reports_controls_recording(
        self, anml_file, input_file, capsys
    ):
        # recording cap comes from --max-kept-reports, not --max-reports
        assert (
            main(
                [
                    "scan",
                    str(anml_file),
                    str(input_file),
                    "--max-kept-reports",
                    "5",
                    "--max-reports",
                    "3",
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert len([l for l in captured.out.splitlines() if l.startswith("cycle=")]) == 3
        assert "kept-reports cap (5)" in captured.err

    def test_scan_strict_reports_errors_on_truncation(
        self, anml_file, input_file, capsys
    ):
        code = main(
            [
                "scan",
                str(anml_file),
                str(input_file),
                "--max-kept-reports",
                "2",
                "--strict-reports",
            ]
        )
        assert code == 1
        assert "kept-reports cap" in capsys.readouterr().err

    def test_run_strict_reports_errors_on_truncation(
        self, anml_file, input_file, capsys
    ):
        code = main(
            [
                "run",
                str(anml_file),
                str(input_file),
                "--max-kept-reports",
                "1",
                "--strict-reports",
            ]
        )
        assert code == 1
        assert "kept-reports cap" in capsys.readouterr().err

    def test_evaluate(self, anml_file, input_file, capsys):
        assert main(["evaluate", str(anml_file), str(input_file)]) == 0
        out = capsys.readouterr().out
        for design in ("CAMA-E", "CAMA-T", "CA", "eAP"):
            assert design in out

    def test_error_path_returns_nonzero(self, capsys):
        assert main(["compile", "/nonexistent.anml"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_experiments_subset(self, tmp_path, capsys):
        assert (
            main(
                [
                    "experiments",
                    "--only",
                    "table4",
                    "--out",
                    str(tmp_path / "results"),
                ]
            )
            == 0
        )
        assert (tmp_path / "results" / "table4.csv").exists()
