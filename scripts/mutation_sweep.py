#!/usr/bin/env python3
"""First-order mutation sweep over relfacts modules.

Each mutant changes one operator of one module: a comparison is swapped
(`<` <-> `<=`, `>` <-> `>=`, `==` <-> `!=`, `is` <-> `is not`, `in` <->
`not in`), an `and` becomes `or` or back, or a `not` is dropped. The
mutant is written into a temporary copy of `src/` and `tests/`, never into
the repository, and the reference commands below run against it, one
mutant at a time, in one fresh interpreter with PYTHONDONTWRITEBYTECODE=1
(a cached `.pyc` of a same-size mutant would otherwise be loaded in its
place). Every module, the unmutated baseline included, is written back
through `ast.unparse`, so outputs differ only by the mutation.

Each mutant lands in one class:

  exit       the run crashed or hung, or some command's exit code changed
             and every command that kept its exit code kept its output;
  tests      otherwise, `--tests` failed on the mutant;
  output     otherwise, some command kept its exit code and changed its
             output: a claim the report makes and no verdict checks;
  identical  every report byte and exit code held.

Commands are judged one by one, so one command's exit change does not
hide another command's silent output change.

`output` and `identical` are survivors and are listed one per line. The
sweep exits 1 if any `output` survivor remains; `identical` survivors are
listed for review and do not fail it. SIGTERM stops the sweep like
Ctrl-C: the running command is killed and the temporary copy removed. The
sweep takes minutes, so no test suite runs it to the end:

    python scripts/mutation_sweep.py --modules verify --tests tests/test_verify.py
"""
import argparse
import ast
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("scenarios", "verify", "parity", "observers", "pauli", "statevector",
           "report", "cli")
# Both flows at every combination of these flags: no shots, one shot and
# many; the default tolerance and the widest one accepted; two seeds.
FLAG_GRID = tuple(
    ["run", *flow, "--shots", str(shots), "--tolerance", tolerance,
     "--seed", str(seed), "--format", "json"]
    for flow in (["lmz"], ["cdr", "--experiment", "all"])
    for shots in (0, 1, 200) for tolerance in ("1e-9", "0.49") for seed in (0, 5))
COMMANDS = (
    ["verify", "--all", "--format", "json"],
    *FLAG_GRID,
    ["check-assignments", "--builtin", "ghz", "--format", "json"],
    ["check-assignments", "--constraints", "tests/data/planted-20-sat.txt",
     "--format", "json"],
    ["check-assignments", "--constraints", "tests/data/planted-20-unsat.txt",
     "--format", "json"],
)
TIMEOUT_SECONDS = 300

SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In, ast.And: ast.Or, ast.Or: ast.And,
}
SYMBOLS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
    ast.NotEq: "!=", ast.Is: "is", ast.IsNot: "is not", ast.In: "in",
    ast.NotIn: "not in", ast.And: "and", ast.Or: "or",
}

# Runs every command in one interpreter and prints [exit code, stdout] per
# command as JSON; stderr holds wall times and is dropped.
RUNNER = """
import contextlib, io, json, sys
from relfacts.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    except Exception as exc:
        code = "raised " + type(exc).__name__
    results.append([code, out.getvalue()])
json.dump(results, sys.stdout)
"""


class Mutator(ast.NodeTransformer):
    """Visits mutation sites in a fixed order; applies the one numbered
    `target` and records a description of every site it passes."""

    def __init__(self, target: int = -1):
        self.target = target
        self.sites = []

    def _site(self, node, text: str) -> bool:
        self.sites.append(f"line {node.lineno}: {text}")
        return len(self.sites) - 1 == self.target

    def visit_Compare(self, node):
        self.generic_visit(node)
        for i, op in enumerate(node.ops):
            swap = SWAPS[type(op)]
            if self._site(node, f"{SYMBOLS[type(op)]} -> {SYMBOLS[swap]}"):
                node.ops[i] = swap()
        return node

    def visit_BoolOp(self, node):
        self.generic_visit(node)
        swap = SWAPS[type(node.op)]
        if self._site(node, f"{SYMBOLS[type(node.op)]} -> {SYMBOLS[swap]}"):
            node.op = swap()
        return node

    def visit_UnaryOp(self, node):
        self.generic_visit(node)
        if isinstance(node.op, ast.Not) and self._site(node, "not dropped"):
            return node.operand
        return node


def mutant_source(source: str, target: int) -> tuple:
    """(source of mutant `target`, or of the unmutated module for -1,
    descriptions of every site)."""
    mutator = Mutator(target)
    tree = ast.fix_missing_locations(mutator.visit(ast.parse(source)))
    return ast.unparse(tree) + "\n", mutator.sites


def run_commands(copy: Path, env: dict):
    try:
        done = subprocess.run(
            [sys.executable, "-c", RUNNER, json.dumps(COMMANDS)], cwd=copy,
            env=env, capture_output=True, text=True, timeout=TIMEOUT_SECONDS)
    except subprocess.TimeoutExpired:
        return "timed out"
    if done.returncode != 0:
        return f"runner exited {done.returncode}"
    return [tuple(result) for result in json.loads(done.stdout)]


def tests_pass(copy: Path, env: dict, tests: list) -> bool:
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             *tests], cwd=copy, env=env, capture_output=True,
            timeout=TIMEOUT_SECONDS)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def classify(baseline: list, outcome, passes_tests) -> str:
    """The class of a mutant from its (exit code, output) per command: it
    reaches the tests whenever some command keeps its exit code and
    changes its output, whatever the other commands do."""
    if isinstance(outcome, str):
        return "exit"
    silent = any(code == base_code and out != base_out
                 for (code, out), (base_code, base_out) in zip(outcome, baseline))
    if not silent and outcome != baseline:
        return "exit"
    if not passes_tests():
        return "tests"
    return "output" if silent else "identical"


def sweep(module: str, copy: Path, env: dict, tests: list) -> tuple:
    """(class counts, survivor lines) of every mutant of one module."""
    path = copy / "src" / "relfacts" / f"{module}.py"
    original = (ROOT / "src" / "relfacts" / f"{module}.py").read_text()
    source, sites = mutant_source(original, -1)
    path.write_text(source)
    baseline = run_commands(copy, env)
    if isinstance(baseline, str) or (tests and not tests_pass(copy, env, tests)):
        raise SystemExit(f"{module}: the unmutated baseline fails ({baseline!r})")
    counts = dict.fromkeys(("exit", "tests", "output", "identical"), 0)
    survivors = []
    for target in range(len(sites)):
        path.write_text(mutant_source(original, target)[0])
        kind = classify(baseline, run_commands(copy, env),
                        lambda: not tests or tests_pass(copy, env, tests))
        counts[kind] += 1
        if kind in ("output", "identical"):
            survivors.append(f"{module}.py {sites[target]} ({kind})")
        print(f"  {module} {target + 1}/{len(sites)}: {kind}", file=sys.stderr)
    path.write_text(original)
    return counts, survivors


def _stop(signum, frame):
    # Unwinds like KeyboardInterrupt: subprocess.run kills its child and
    # the TemporaryDirectory removes the copy.
    raise SystemExit(128 + signum)


def main() -> int:
    signal.signal(signal.SIGTERM, _stop)
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument(
        "--modules", nargs="+", choices=MODULES, default=list(MODULES),
        help="package modules to mutate (default: all eight)")
    parser.add_argument(
        "--tests", nargs="*", default=[],
        help="test files, relative to the repository root, that must also "
             "pass for a mutant to survive")
    args = parser.parse_args()

    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    rows, survivors, changed_output = [], [], 0
    with tempfile.TemporaryDirectory(prefix="relfacts-mutants-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__")
        shutil.copytree(ROOT / "src", copy / "src", ignore=ignore)
        shutil.copytree(ROOT / "tests", copy / "tests", ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")
        env["PYTHONPATH"] = str(copy / "src")
        for module in args.modules:
            counts, found = sweep(module, copy, env, args.tests)
            rows.append((module, sum(counts.values()), *counts.values()))
            survivors += found
            changed_output += counts["output"]

    print("| module | mutants | changed an exit code | failed --tests "
          "| output changed, still PASS | output byte-identical |")
    print("|---|---|---|---|---|---|")
    for module, total, exits, tests, output, identical in rows:
        print(f"| {module} | {total} | {exits} | {tests} | {output} | {identical} |")
    print()
    print(f"survivors: {len(survivors)}")
    for line in survivors:
        print(f"  {line}")
    return 1 if changed_output else 0


if __name__ == "__main__":
    sys.exit(main())
