"""CLI contract: exit codes, output formats, byte-level determinism."""
import json
import os
import re
from contextlib import redirect_stderr
from pathlib import Path

import pytest

from relfacts import cli
from relfacts.cli import build_parser, main
from relfacts.scenarios import MAX_SHOTS


class TestRunCommand:
    def test_lmz_text(self, capsys):
        rc = main(["run", "lmz"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("command: run lmz --shots 0 --seed 0 --tolerance 1e-09")
        assert "verdict: PASS" in out
        assert "constraint certifications:" in out

    def test_lmz_json(self, capsys):
        rc = main(["run", "lmz", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["schema_version"] == "1"
        assert doc["verdict"] == "PASS"
        assert doc["config"]["bob_mode"] == "lmz-lifted"
        assert len(doc["results"]["constraints"]) == 8
        assert doc["results"]["cpl"]["premise_certified"] is True
        assert doc["timing"] == {}

    def test_cdr_single_experiment(self, capsys):
        rc = main(["run", "cdr", "--experiment", "2", "--shots", "50",
                   "--seed", "7", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["config"]["experiment_id"] == 2
        assert doc["results"]["restoration"]["kind"] == "memory"
        assert doc["results"]["coexisting_records"]["records_match_constraint"] is True

    def test_cdr_all_experiments(self, capsys):
        rc = main(["run", "cdr", "--experiment", "all", "--shots", "25",
                   "--seed", "7", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["config"]["experiment_id"] == "all"
        assert len(doc["results"]["experiments"]) == 4
        assert [e["experiment_id"] for e in doc["results"]["experiments"]] == [1, 2, 3, 4]

    def test_identical_flags_identical_bytes(self, tmp_path):
        jobs = (
            ["run", "lmz", "--shots", "40", "--seed", "11"],
            ["run", "cdr", "--experiment", "all", "--shots", "40", "--seed", "11"],
        )
        for fmt in ("json", "text"):
            for i, argv in enumerate(jobs):
                paths = [tmp_path / f"{fmt}-{i}-{run}.out" for run in (1, 2)]
                for path in paths:
                    rc = main(argv + ["--format", fmt, "--out", str(path)])
                    assert rc == 0
                assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_out_file_suppresses_stdout(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        rc = main(["run", "lmz", "--format", "json", "--out", str(path)])
        assert rc == 0
        assert capsys.readouterr().out == ""
        assert json.loads(path.read_text())["verdict"] == "PASS"

    def test_max_shots_passes(self, capsys):
        rc = main(["run", "lmz", "--shots", str(MAX_SHOTS)])
        out = capsys.readouterr().out
        assert rc == 0
        # Four record tallies and the two-time agreement's two variants.
        tallies = out.split("sampled record products:\n")[1].splitlines()[2:]
        assert [row.split()[4:] for row in tallies] == [[str(MAX_SHOTS), "0", "yes"]] * 4
        assert f"matches {MAX_SHOTS}/{MAX_SHOTS}" in out
        assert "verdict: PASS" in out

    def test_unreachable_tolerance_fails(self, capsys):
        rc = main(["run", "lmz", "--tolerance", "1e-18"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "verdict: FAIL" in out


@pytest.mark.parametrize("argv", [
    ["run", "lmz", "--shots", "20"],
    ["run", "cdr", "--experiment", "all", "--shots", "20"],
    ["run", "cdr", "--experiment", "3"],
    ["check-assignments", "--builtin", "ghz"],
    ["check-assignments", "--constraints", "tests/data/planted-20-sat.txt"],
    ["verify", "--all"],
])
def test_reports_carry_no_operation_counts(argv, tmp_path, monkeypatch):
    # JSON keeps an empty "timing" object; text ends on its last content
    # line, with no timing line.
    monkeypatch.chdir(Path(__file__).resolve().parent.parent)
    paths = {fmt: tmp_path / f"report.{fmt}" for fmt in ("json", "text")}
    with open(os.devnull, "w") as devnull, redirect_stderr(devnull):
        for fmt, path in paths.items():
            assert main(argv + ["--format", fmt, "--out", str(path)]) == 0
    assert json.loads(paths["json"].read_text())["timing"] == {}
    text = paths["text"].read_text()
    assert text.endswith("\n") and not text.endswith("\n\n")
    assert not any(line.startswith("timing") for line in text.splitlines())


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["run", "lmz", "--experiment", "1"],
        ["run", "cdr"],
        ["run", "lmz", "--shots", "-5"],
        ["run", "lmz", "--tolerance", "0"],
        ["run", "lmz", "--seed", "-1"],
        ["check-assignments"],
        ["check-assignments", "--builtin", "ghz", "--constraints", "somefile"],
        ["check-assignments", "--constraints", "/definitely/not/a/file"],
        ["run", "lmz", "--tolerance", "0.5"],
        ["run", "cdr", "--experiment", "all", "--tolerance", "3"],
        ["run", "lmz", "--tolerance", "inf"],
        ["run", "lmz", "--shots", str(MAX_SHOTS + 1)],
        ["run", "cdr", "--experiment", "all", "--seed", str(2**64)],
    ])
    def test_returns_2(self, argv, capsys):
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        [],
        ["run"],
        ["run", "bogus"],
        ["run", "lmz", "--experiment", "5"],
        ["run", "lmz", "--format", "yaml"],
        ["check-assignments", "--builtin", "unknown"],
    ])
    def test_argparse_rejections_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["run", "lmz"],
        ["check-assignments", "--builtin", "ghz"],
        ["verify", "--all"],
    ])
    def test_unwritable_out_returns_2(self, argv, tmp_path, capsys):
        path = tmp_path / "missing" / "report.txt"
        assert main(argv + ["--out", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: cannot write {path}:" in captured.err
        assert not path.parent.exists()


class TestParserMemo:
    """main builds one parser per process and reuses it across commands."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []

        def counted():
            calls.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        yield calls
        cli._parser.cache_clear()

    def test_one_build_and_no_state_leaks(self, builds, capsys):
        assert main(["run", "lmz"]) == 0
        first = capsys.readouterr().out
        # A leaked --experiment would make the next `run lmz` exit 2.
        assert main(["run", "cdr", "--experiment", "2"]) == 0
        assert main(["run", "lmz"]) == 0
        with pytest.raises(SystemExit) as info:
            main(["run", "lmz", "--format", "yaml"])
        assert info.value.code == 2
        assert main(["run", "cdr"]) == 2
        assert main(["check-assignments", "--builtin", "ghz"]) == 0
        capsys.readouterr()
        assert main(["run", "lmz"]) == 0
        assert capsys.readouterr().out == first
        assert len(builds) == 1

    def test_build_parser_returns_a_new_parser(self):
        assert build_parser() is not build_parser()


class TestCheckAssignments:
    def test_builtin_record_system(self, capsys):
        rc = main(["check-assignments", "--builtin", "ghz", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["verdict"] == "PASS"
        assert doc["results"]["solve"]["satisfiable"] is False
        assert doc["results"]["solve"]["certificate"] == [1, 2, 3, 4]
        assert doc["results"]["enumeration"] == {"count": 0, "tested": 64}
        assert doc["results"]["product_identity"]["is_contradiction"] is True

    def test_builtin_text_mentions_contradiction(self, capsys):
        rc = main(["check-assignments", "--builtin", "ghz"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "satisfiable: no" in out
        assert "contradiction" in out
        assert "0 of 64" in out

    def test_constraint_file_satisfiable(self, tmp_path, capsys):
        path = tmp_path / "system.txt"
        path.write_text("# toy system\nx*y = -1\ny = 1\n")
        rc = main(["check-assignments", "--constraints", str(path),
                   "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["results"]["solve"]["satisfiable"] is True
        assert doc["results"]["solve"]["witness"] == {"x": -1, "y": 1}
        assert doc["config"]["constraints_path"] == str(path)

    def test_constraint_file_unsatisfiable_still_passes(self, tmp_path, capsys):
        path = tmp_path / "system.txt"
        path.write_text("x = 1\nx = -1\n")
        rc = main(["check-assignments", "--constraints", str(path),
                   "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0  # the analysis itself is sound; UNSAT is a finding
        assert doc["results"]["solve"]["certificate"] == [1, 2]

    def test_comment_only_file_is_the_empty_system(self, tmp_path, capsys):
        path = tmp_path / "system.txt"
        path.write_text("# no constraints yet\n\n")
        argv = ["check-assignments", "--constraints", str(path)]
        assert main(argv + ["--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["results"]["solve"]["satisfiable"] is True
        assert doc["results"]["solve"]["witness"] == {}
        assert doc["results"]["enumeration"] == {"count": 1, "tested": 1}
        assert main(argv + ["--format", "text"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "satisfiable: yes (1 of 1 assignments)" in lines
        assert "constraints: none" in lines
        assert "witness: (empty assignment)" in lines
        assert [line for line in lines if line != line.rstrip()] == []

    def test_parse_error_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("x = 1\nx*y\n")
        rc = main(["check-assignments", "--constraints", str(path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "line 2" in err

    def test_determinism(self, tmp_path):
        paths = [tmp_path / f"chk-{i}.json" for i in (1, 2)]
        for path in paths:
            assert main(["check-assignments", "--builtin", "ghz",
                         "--format", "json", "--out", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestVerifyCommand:
    def test_full_sweep_passes(self, tmp_path, capsys):
        path = tmp_path / "verify.json"
        rc = main(["verify", "--all", "--format", "json", "--out", str(path)])
        err = capsys.readouterr().err
        assert rc == 0
        assert "acceptance sweep took" in err
        doc = json.loads(path.read_text())
        assert doc["verdict"] == "PASS"
        assert doc["results"]["all_passed"] is True
        assert len(doc["results"]["checks"]) == 10
        assert [row["id"] for row in doc["results"]["checks"]] == list(range(1, 11))
        assert all(row["passed"] for row in doc["results"]["checks"])

    def test_per_check_times_stay_out_of_the_report(self, tmp_path, capsys):
        paths = [tmp_path / f"verify-{i}.json" for i in (1, 2)]
        argv = ["verify", "--all", "--format", "json", "--out"]
        with open(os.devnull, "w") as devnull, redirect_stderr(devnull):
            assert main(argv + [str(paths[0])]) == 0
        assert main(argv + [str(paths[1])]) == 0
        err = capsys.readouterr().err
        assert paths[0].read_bytes() == paths[1].read_bytes()
        ids = re.findall(r"^  check (\d\d): \d+\.\d{3} s  \S", err, re.MULTILINE)
        assert ids == [f"{i:02d}" for i in range(1, 11)]
        # Each piece of evidence is timed once, on its own line, just before
        # the first check that reads it; a check line times only its judge.
        labels = re.findall(
            r"^  (evidence \w+|check \d\d): \d+\.\d{3} s", err, re.MULTILINE)
        assert labels == [
            "evidence lmz", "evidence cdr", "check 01", "evidence monomials",
            "check 02", "evidence ghz_analysis", "check 03",
            "evidence subsystems", "check 04", "check 05",
            "evidence round_trips", "check 06", "check 07", "check 08",
            "evidence reruns", "check 09", "check 10"]
