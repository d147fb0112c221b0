"""Every demo script runs to completion against the package, the
disturbance sweep prints the constraint table, and the assignment search
lists what it claims."""
import math
import os
import subprocess
import sys
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
