"""Every demo script runs to completion against the package, the
disturbance sweep prints the constraint table, the assignment search
lists what it claims, and a stopped mutation sweep leaves nothing behind."""
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from relfacts.parity import ghz_record_system

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ("assignment_search.py", "disturbance_sweep.py", "shot_convergence.py")


def run_script(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.parametrize("script", SCRIPTS)
def test_script_exits_zero(script):
    run_script(script)


def test_disturbance_sweep_prints_the_four_products_and_their_signs():
    lines = run_script("disturbance_sweep.py").splitlines()
    header = lines[lines.index("straight pipeline (Bob's steps in order):") + 1]
    assert header.split() == [
        "stage", "B1*B2*B3", "B1*A2*A3", "A1*B2*A3", "A1*A2*B3", "ledger"]
    assert ("expected signs once every record in the product exists: "
            "+1 -1 -1 -1") in lines


@pytest.mark.parametrize("drop", [1, 2, 3, 4])
def test_assignment_search_lists_the_subsystem_solutions(drop):
    system = ghz_record_system()
    lines = run_script("assignment_search.py", "--drop", str(drop)).splitlines()
    start = lines.index(f"dropping constraint ({drop}) leaves 8 solutions:")
    assert lines[start + 1].split() == list(system.universe)
    rows = [dict(zip(system.universe, map(int, line.split())))
            for line in lines[start + 2:]]
    assert len(rows) == 8
    assert len({tuple(row.values()) for row in rows}) == 8
    kept = [c for i, c in enumerate(system.constraints, 1) if i != drop]
    for row in rows:
        assert set(row.values()) <= {1, -1}
        for c in kept:
            assert math.prod(row[v] for v in c.variables) == c.rhs, (row, str(c))


def test_mutation_sweep_removes_its_copy_when_terminated(tmp_path):
    sweep = subprocess.Popen(
        [sys.executable, str(ROOT / "scripts" / "mutation_sweep.py"), "--modules", "cli"],
        cwd=ROOT, env=dict(os.environ, TMPDIR=str(tmp_path)),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        # pyproject.toml is copied last: the baseline commands start next.
        deadline = time.monotonic() + 60
        while not list(tmp_path.glob("relfacts-mutants-*/pyproject.toml")):
            assert sweep.poll() is None and time.monotonic() < deadline
            time.sleep(0.02)
        sweep.send_signal(signal.SIGTERM)
        assert sweep.wait(timeout=60) == 128 + signal.SIGTERM
    finally:
        if sweep.poll() is None:
            sweep.kill()
            sweep.wait()
    assert list(tmp_path.iterdir()) == []
