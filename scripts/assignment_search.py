#!/usr/bin/env python3
"""Exhaustive search over the 64 joint +/-1 assignments.

Shows the whole landscape: how many of the four product constraints each
assignment can satisfy (never all four), the algebraic reason (the product
of the four left-hand sides cancels every variable while the right-hand
sides multiply to -1), and the eight exact solutions that appear as soon
as any one constraint is dropped.
"""
import argparse
from itertools import product as iter_product

from relfacts.parity import (
    ConstraintSystem,
    ghz_record_system,
    product_identity,
    satisfiable,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--drop", type=int, choices=(1, 2, 3, 4), default=1,
        help="which constraint to drop for the subsystem listing")
    args = parser.parse_args()

    system = ghz_record_system()
    print("constraints:")
    for i, c in enumerate(system.constraints, 1):
        print(f"  ({i}) {c}")
    print()

    kept = tuple(c for i, c in enumerate(system.constraints, 1) if i != args.drop)
    sub = ConstraintSystem(kept, system.universe)
    histogram = [0] * 5
    solutions = []
    for values in iter_product((1, -1), repeat=len(system.universe)):
        assignment = dict(zip(system.universe, values))
        histogram[sum(system.check(assignment))] += 1
        if all(sub.check(assignment)):
            solutions.append(assignment)
    print("satisfied constraints -> number of assignments")
    for k, count in enumerate(histogram):
        marker = " <- none reach 4" if k == 4 else ""
        print(f"  {k}: {count:2d}{marker}")
    print()

    identity = product_identity(system)
    lhs = "*".join(identity.residual_variables) if identity.residual_variables else "1"
    rhs = "+1" if identity.rhs == 1 else "-1"
    print(f"product of all four constraints: {lhs} = {rhs}"
          + ("  <- contradiction" if identity.is_contradiction else ""))
    result = satisfiable(system)
    print(f"elimination certificate: constraints {set(result.certificate)} "
          "cannot hold together")
    print()

    print(f"dropping constraint ({args.drop}) leaves {len(solutions)} solutions:")
    header = " ".join(f"{v:>3}" for v in system.universe)
    print(f"  {header}")
    for assignment in solutions:
        row = " ".join(f"{assignment[v]:+3d}" for v in system.universe)
        print(f"  {row}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
