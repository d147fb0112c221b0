"""Workload definitions: the argv mix each workload cycles through, built
from the workload seed, and the parity constraint files it needs.

Every workload's cost is meant to be the same for every seed: the seed
picks `--seed` values, orders nothing that changes the mix, and fills the
parity systems with fresh variables and signs at fixed sizes. That keeps
runs on different seeds comparable, which the spread checks rely on.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

FORMATS = ("json", "text")
SAMPLED_SHOTS = 1_000_000
PARITY_SIZES = tuple(range(14, 21))
SEED_RANGE = 2 ** 32


@dataclass(frozen=True)
class Command:
    """One CLI invocation (without `--out`) and what its output must show.

    kind is "run", "check" or "verify". For "run", expect holds the
    experiment (None for lmz) and the shots; for "check", the constraints as
    (variables, rhs) pairs and the planted answer.
    """

    argv: tuple
    kind: str
    expect: dict = field(default_factory=dict)

    @property
    def fmt(self) -> str:
        return self.argv[self.argv.index("--format") + 1]


@dataclass(frozen=True)
class Workload:
    cycle: tuple            # Commands, run in order and repeated
    tail_percentile: float  # chosen so a run at seed speed leaves >= 10 samples beyond
    traced_cycles: int      # cycles in the traced pass; fixed so counts repeat


def run_command(scenario: str, experiment, shots: int, seed: int, fmt: str) -> Command:
    argv = ["run", scenario]
    if experiment is not None:
        argv += ["--experiment", experiment]
    argv += ["--shots", str(shots), "--seed", str(seed), "--format", fmt]
    return Command(tuple(argv), "run", {"experiment": experiment, "shots": shots})


GHZ_SYSTEM = (
    (("B1", "B2", "B3"), 1),
    (("B1", "A2", "A3"), -1),
    (("A1", "B2", "A3"), -1),
    (("A1", "A2", "B3"), -1),
)


def _exact(rng: random.Random, workdir: Path) -> Workload:
    # Every command kind in both formats; --shots 0 keeps sampling idle.
    bases = [("lmz", None)] + [("cdr", e) for e in ("all", "1", "2", "3", "4")]
    cycle = []
    for i, (scenario, experiment) in enumerate(bases):
        for fmt in (FORMATS if i % 2 == 0 else FORMATS[::-1]):
            cycle.append(run_command(scenario, experiment, 0, rng.randrange(SEED_RANGE), fmt))
    for fmt in FORMATS:
        cycle.append(Command(
            ("check-assignments", "--builtin", "ghz", "--format", fmt), "check",
            {"constraints": GHZ_SYSTEM, "satisfiable": False}))
    return Workload(tuple(cycle), tail_percentile=99.0, traced_cycles=10)


def _sampled(rng: random.Random, workdir: Path) -> Workload:
    # Two cdr suites per lmz run: cdr takes two thirds of the commands, so
    # the median sits inside the cdr mode rather than between the two modes.
    layout = [("lmz", None, "json"), ("cdr", "all", "text"), ("cdr", "all", "json"),
              ("lmz", None, "text"), ("cdr", "all", "json"), ("cdr", "all", "text")]
    cycle = tuple(
        run_command(scenario, experiment, SAMPLED_SHOTS, rng.randrange(SEED_RANGE), fmt)
        for scenario, experiment, fmt in layout)
    return Workload(cycle, tail_percentile=80.0, traced_cycles=2)


def _verify(rng: random.Random, workdir: Path) -> Workload:
    first = rng.randrange(2)
    cycle = tuple(
        Command(("verify", "--all", "--format", FORMATS[(first + i) % 2]), "verify")
        for i in range(2))
    return Workload(cycle, tail_percentile=70.0, traced_cycles=2)


def planted_system(rng: random.Random, num_variables: int, satisfiable: bool) -> list:
    """A parity system over exactly `num_variables` variables with a known
    answer, as a list of (variables, rhs).

    Satisfiable systems are drawn around a hidden assignment, so that
    assignment satisfies every constraint. Contradictory ones add, at a
    random position, the product of two or three earlier constraints with
    its sign flipped, so that subset multiplies to 1 = -1. Every system has
    `num_variables` constraints, which keeps enumeration cost fixed per size.
    """
    names = [f"v{i}" for i in range(1, num_variables + 1)]
    hidden = {v: rng.choice((1, -1)) for v in names}
    order = names[:]
    rng.shuffle(order)
    drawn = num_variables if satisfiable else num_variables - 1
    constraints = []
    for i in range(drawn):
        # The first constraints take the shuffled names in chunks of two, so
        # every variable appears and the parsed universe has them all.
        chunk = set(order[2 * i:2 * i + 2])
        size = rng.randint(2, 5)
        chunk.update(rng.sample(names, max(0, size - len(chunk))))
        variables = tuple(sorted(chunk, key=names.index))
        rhs = 1
        for v in variables:
            rhs *= hidden[v]
        constraints.append((variables, rhs))
    if not satisfiable:
        while True:
            subset = rng.sample(range(len(constraints)), rng.randint(2, 3))
            odd: set = set()
            rhs = -1
            for j in subset:
                odd.symmetric_difference_update(constraints[j][0])
                rhs *= constraints[j][1]
            if odd:
                break
        variables = tuple(sorted(odd, key=names.index))
        constraints.insert(rng.randint(0, len(constraints)), (variables, rhs))
    return constraints


def constraint_file_text(constraints) -> str:
    lines = ["# generated parity system"]
    lines += [f"{'*'.join(variables)} = {rhs:+d}" for variables, rhs in constraints]
    return "\n".join(lines) + "\n"


def _parity(rng: random.Random, workdir: Path) -> Workload:
    # Both systems of a size share a format, so the two commands at the
    # middle size, where the median falls, take about the same time.
    cycle = []
    for n in PARITY_SIZES:
        for satisfiable in (True, False):
            constraints = planted_system(rng, n, satisfiable)
            path = workdir / f"parity-{n}-{'sat' if satisfiable else 'unsat'}.txt"
            path.write_text(constraint_file_text(constraints))
            cycle.append(Command(
                ("check-assignments", "--constraints", str(path),
                 "--format", FORMATS[n % 2]),
                "check", {"constraints": tuple(constraints), "satisfiable": satisfiable}))
    return Workload(tuple(cycle), tail_percentile=95.0, traced_cycles=2)


BUILDERS = {"exact": _exact, "sampled": _sampled, "verify": _verify, "parity": _parity}


def build(name: str, seed: int, workdir: Path) -> Workload:
    """The workload `name` for `seed`; parity files are written to workdir."""
    return BUILDERS[name](random.Random(f"{name}:{seed}"), workdir)
