"""Self-test of the benchmark: short runs of every workload, repeatable
traced counts, an oracle that rejects tampered reports, and a refusal to
run without the package. Run with `python3 -m pytest perfbench` from the
repository root (about a minute)."""
from __future__ import annotations

import itertools
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402
import workloads  # noqa: E402
from oracle import OracleError, OutputOracle  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _bench(*args, cwd=run.ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_metric_names_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.BUILDERS)


@pytest.mark.parametrize("workload", sorted(workloads.BUILDERS))
def test_smoke_run(workload):
    result = _result(_bench("--workload", workload, "--seed", "5", "--seconds", "1",
                            "--trace", "0"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(workloads.BUILDERS))
def test_traced_counts_repeat(workload):
    args = ("--workload", workload, "--seed", "9", "--seconds", "1", "--trace", "1")
    first, second = _result(_bench(*args)), _result(_bench(*args))
    assert first["correct"] and set(first["metrics"]) == set(run.PER_LAYER)
    counts = [name for name, unit in run.PER_LAYER.items() if unit in ("count", "B")]
    assert {n: first["metrics"][n] for n in counts} == {n: second["metrics"][n] for n in counts}
    assert first["metrics"]["report.bytes"]["value"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "exact", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_planted_answers_hold_by_brute_force():
    rng = random.Random(3)
    for n, satisfiable in itertools.product((6, 8, 10), (True, False)):
        system = workloads.planted_system(rng, n, satisfiable)
        names = sorted({v for variables, _ in system for v in variables})
        assert len(names) == n and len(system) == n
        solutions = 0
        for values in itertools.product((1, -1), repeat=n):
            assignment = dict(zip(names, values))
            solutions += all(
                _product(assignment, variables) == rhs for variables, rhs in system)
        assert (solutions > 0) == satisfiable


def _product(assignment, variables) -> int:
    product = 1
    for v in variables:
        product *= assignment[v]
    return product


# -- the oracle on real and tampered reports --------------------------------


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    """report(command) -> bytes that relfacts writes for it."""
    cli = run.import_cli()
    out = tmp_path_factory.mktemp("reports") / "report.out"

    def produce(command) -> bytes:
        assert cli.main([*command.argv, "--out", str(out)]) == 0
        return out.read_bytes()

    return produce


def _rejects(command, data: bytes, exit_code: int = 0) -> bool:
    try:
        OutputOracle().check(command, exit_code, data)
    except OracleError:
        return True
    return False


LMZ_JSON = workloads.run_command("lmz", None, 200, 4, "json")
LMZ_TEXT = workloads.run_command("lmz", None, 200, 4, "text")
CDR_TEXT = workloads.run_command("cdr", "all", 200, 4, "text")
GHZ_JSON = workloads.Command(("check-assignments", "--builtin", "ghz", "--format", "json"),
                             "check", {"constraints": workloads.GHZ_SYSTEM,
                                       "satisfiable": False})
VERIFY_JSON = workloads.Command(("verify", "--all", "--format", "json"), "verify")
VERIFY_TEXT = workloads.Command(("verify", "--all", "--format", "text"), "verify")


def _edit_json(data: bytes, edit) -> bytes:
    doc = json.loads(data)
    edit(doc)
    return json.dumps(doc).encode()


def test_oracle_accepts_untouched_reports(report):
    for command in (LMZ_JSON, LMZ_TEXT, CDR_TEXT, GHZ_JSON, VERIFY_TEXT):
        assert OutputOracle().check(command, 0, report(command)) >= 0


def test_oracle_rejects_tampered_run_reports(report):
    data = report(LMZ_JSON)

    def flip_sign(doc):
        row = doc["results"]["constraints"][1]
        row["expectation"] = -row["expectation"]

    def add_violation(doc):
        doc["results"]["constraints"][5]["violations"] = 1

    def sampling_violation(doc):
        doc["results"]["sampling"][0]["violations"] = 2

    def drop_record_row(doc):
        del doc["results"]["constraints"][7]

    for edit in (flip_sign, add_violation, sampling_violation, drop_record_row):
        assert _rejects(LMZ_JSON, _edit_json(data, edit)), edit.__name__
    fewer_shots = workloads.run_command("lmz", None, 300, 4, "json")
    assert _rejects(fewer_shots, data)
    assert _rejects(LMZ_JSON, data, exit_code=1)
    assert _rejects(LMZ_JSON, None)

    text = report(LMZ_TEXT).decode()
    negated = _edit_row(text, ["2", "operator"], 5, "+1")
    violated = _edit_row(text, ["1", "record"], 7, "7")
    failed = text.replace("verdict: PASS", "verdict: FAIL")
    for tampered in (negated, violated, failed):
        assert tampered != text
        assert _rejects(LMZ_TEXT, tampered.encode())


def _edit_row(text: str, key: list, column: int, value: str) -> str:
    """Set one cell of the first table row that starts with `key`."""
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        cells = line.split()
        if cells[:len(key)] == key:
            cells[column] = value
            lines[i] = "  ".join(cells) + "\n"
            return "".join(lines)
    raise AssertionError(f"no row {key}")


def test_oracle_rejects_tampered_parity_reports(report):
    data = report(GHZ_JSON)

    def short_certificate(doc):
        doc["results"]["solve"]["certificate"] = [1, 2, 3]

    def claims_sat(doc):
        doc["results"]["solve"].update(
            satisfiable=True, certificate=None,
            witness={v: 1 for v in ("A1", "A2", "A3", "B1", "B2", "B3")})

    for edit in (short_certificate, claims_sat):
        assert _rejects(GHZ_JSON, _edit_json(data, edit)), edit.__name__

    system = workloads.planted_system(random.Random(1), 8, True)
    sat = workloads.Command(("check-assignments", "--format", "json"), "check",
                            {"constraints": tuple(system), "satisfiable": True})
    witness = dict(_first_solution(system))
    good = json.dumps({"verdict": "PASS", "results": {"solve": {
        "satisfiable": True, "witness": witness, "certificate": None}}}).encode()
    assert OutputOracle().check(sat, 0, good) == 0
    broken = dict(witness, v1=-witness["v1"])
    bad = good.replace(json.dumps(witness).encode(), json.dumps(broken).encode())
    assert _rejects(sat, bad)


def _first_solution(system):
    names = sorted({v for variables, _ in system for v in variables})
    for values in itertools.product((1, -1), repeat=len(names)):
        assignment = dict(zip(names, values))
        if all(_product(assignment, variables) == rhs for variables, rhs in system):
            return assignment
    raise AssertionError("planted system has no solution")


def test_oracle_rejects_tampered_verify_reports(report):
    data = report(VERIFY_JSON)

    def fail_check(doc):
        doc["results"]["checks"][4]["passed"] = False

    assert OutputOracle().check(VERIFY_JSON, 0, data) == 0
    assert _rejects(VERIFY_JSON, _edit_json(data, fail_check))
    text = report(VERIFY_TEXT).decode()
    tampered = _edit_row(text, ["5"], -1, "FAIL")
    assert tampered != text and _rejects(VERIFY_TEXT, tampered.encode())


def test_oracle_rejects_changed_bytes_on_repeat(report):
    oracle = OutputOracle()
    data = report(LMZ_JSON)
    oracle.check(LMZ_JSON, 0, data)
    with pytest.raises(OracleError, match="different report bytes"):
        oracle.check(LMZ_JSON, 0, data.replace(b'"schema_version": "1"', b'"schema_version":"1"'))
