"""Parity analysis of +/-1 product constraints.

A constraint is a product of +/-1 variables pinned to +1 or -1. Writing
each variable as v = (-1)^x turns a product constraint into a GF(2) linear
equation: prod_{j in S} v_j = r  <=>  sum_{j in S} x_j = (0 if r=+1 else 1)
mod 2. Satisfiability, witnesses, solution counts, and unsatisfiability
certificates (a subset of constraints whose formal product is an empty
left-hand side equal to -1) all come out of Gauss-Jordan elimination over
GF(2), with rows carried as Python ints used as bit masks. Exhaustive
enumeration, the solver's independent cross-check, counts without
elimination by joining the two halves of the variables (meet in the middle).
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import ConstraintParseError, ResourceError

SOLVE_MAX_VARIABLES = 64
ENUMERATE_MAX_VARIABLES = 20

_VARIABLE_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


@dataclass(frozen=True)
class ParityConstraint:
    """A product constraint prod(variables) = rhs, reduced mod 2: a variable
    listed an even number of times squares away to 1, so `variables` keeps
    the names listed an odd number of times."""

    variables: frozenset
    rhs: int

    def __post_init__(self):
        if self.rhs not in (1, -1):
            raise ValueError(f"rhs must be +1 or -1, got {self.rhs!r}")
        odd = set()
        for v in self.variables:
            if not _VARIABLE_RE.match(v):
                raise ValueError(f"invalid variable name {v!r}")
            odd ^= {v}
        object.__setattr__(self, "variables", frozenset(odd))

    def evaluate(self, assignment: Mapping[str, int]) -> bool:
        product = 1
        for v in self.variables:
            value = assignment[v]
            if value not in (1, -1):
                raise ValueError(f"assignment value for {v!r} must be +/-1")
            product *= value
        return product == self.rhs

    def __str__(self) -> str:
        lhs = "*".join(sorted(self.variables)) if self.variables else "1"
        rhs = "+1" if self.rhs == 1 else "-1"
        return f"{lhs} = {rhs}"


@dataclass(frozen=True)
class ConstraintSystem:
    """An ordered list of parity constraints over an ordered variable
    universe (bit j of a row mask = universe[j])."""

    constraints: tuple
    universe: tuple

    def __post_init__(self):
        object.__setattr__(self, "constraints", tuple(self.constraints))
        object.__setattr__(self, "universe", tuple(self.universe))
        # Column of each variable in a row mask, built once for _row.
        columns = {v: j for j, v in enumerate(self.universe)}
        if len(columns) != len(self.universe):
            raise ValueError("universe contains duplicate variables")
        for c in self.constraints:
            missing = c.variables - columns.keys()
            if missing:
                raise ValueError(
                    f"constraint {c} uses variables outside the universe: "
                    f"{sorted(missing)}")
        object.__setattr__(self, "_columns", columns)

    @classmethod
    def from_constraints(cls, constraints: Iterable[ParityConstraint],
                         universe: Optional[Sequence[str]] = None) -> "ConstraintSystem":
        constraints = tuple(constraints)
        if universe is None:
            universe = dict.fromkeys(v for c in constraints for v in sorted(c.variables))
        return cls(constraints, tuple(universe))

    @property
    def num_variables(self) -> int:
        return len(self.universe)

    def check(self, assignment: Mapping[str, int]) -> list:
        return [c.evaluate(assignment) for c in self.constraints]

    def _row(self, constraint: ParityConstraint) -> tuple:
        mask = 0
        for v in constraint.variables:
            mask |= 1 << self._columns[v]
        return mask, 0 if constraint.rhs == 1 else 1


@dataclass(frozen=True)
class SolveResult:
    """Outcome of GF(2) elimination.

    Exactly one of witness / certificate is set: a satisfying assignment
    (free variables fixed to +1), or the 1-based indices of a constraint
    subset whose product reduces to the contradiction 1 = -1. num_solutions
    is the exact count 2^(num_variables - rank) when satisfiable, else 0.
    """

    satisfiable: bool
    witness: Optional[dict]
    certificate: Optional[tuple]
    rank: int
    num_solutions: int


def satisfiable(system: ConstraintSystem) -> SolveResult:
    """Gauss-Jordan over GF(2) with row-combination tracking."""
    n = system.num_variables
    if n > SOLVE_MAX_VARIABLES:
        raise ResourceError(
            f"{n} variables exceeds the {SOLVE_MAX_VARIABLES}-variable solve guard")
    rows = []        # reduced rows (mask, bit, combo), pivots eliminated everywhere
    pivot_cols = []
    for i, constraint in enumerate(system.constraints):
        mask, bit = system._row(constraint)
        combo = 1 << i
        for (pmask, pbit, pcombo), pcol in zip(rows, pivot_cols):
            if (mask >> pcol) & 1:
                mask ^= pmask
                bit ^= pbit
                combo ^= pcombo
        if mask == 0:
            if bit == 1:
                certificate = tuple(
                    j + 1 for j in range(len(system.constraints)) if (combo >> j) & 1)
                return SolveResult(
                    satisfiable=False, witness=None, certificate=certificate,
                    rank=len(rows), num_solutions=0)
            continue  # redundant constraint
        col = (mask & -mask).bit_length() - 1
        for j in range(len(rows)):
            if (rows[j][0] >> col) & 1:
                rows[j] = (rows[j][0] ^ mask, rows[j][1] ^ bit, rows[j][2] ^ combo)
        rows.append((mask, bit, combo))
        pivot_cols.append(col)
    # Satisfiable: with free variables at +1 (x=0), each pivot is forced.
    witness = {v: 1 for v in system.universe}
    for (mask, bit, combo), col in zip(rows, pivot_cols):
        witness[system.universe[col]] = 1 if bit == 0 else -1
    rank = len(rows)
    return SolveResult(
        satisfiable=True, witness=witness, certificate=None,
        rank=rank, num_solutions=2 ** (n - rank))


@dataclass(frozen=True)
class EnumerationResult:
    count: int
    tested: int
    assignments: Optional[tuple]


_KEY_BITS = 64
_KEY_POSITIONS = np.arange(_KEY_BITS, dtype=np.uint64)


def _parity_keys(masks: np.ndarray, width: int) -> np.ndarray:
    """Row i, for i < 2^width, packs the parity of (i & masks[k]) for every
    k into bit k % 64 of word k // 64 (at least one word).

    Each block of 64 masks is one broadcast AND and one shift-xor fold, so
    temporaries stay at 2^width x 64 entries however many masks there are.
    """
    idx = np.arange(1 << width, dtype=np.uint64)[:, None]
    shifts = [np.uint64(1 << i) for i in reversed(range((width - 1).bit_length()))]
    keys = np.zeros((1 << width, max(1, -(-len(masks) // _KEY_BITS))), dtype=np.uint64)
    for word in range(keys.shape[1]):
        block = idx & masks[word * _KEY_BITS:(word + 1) * _KEY_BITS]
        for shift in shifts:
            block ^= block >> shift
        block &= np.uint64(1)
        block <<= _KEY_POSITIONS[:block.shape[1]]
        keys[:, word] = np.bitwise_or.reduce(block, axis=1)
    return keys


def enumerate_assignments(system: ConstraintSystem,
                          return_assignments: bool = False) -> EnumerationResult:
    """Count the assignments satisfying every constraint, over all 2^n of
    them (guarded to n <= 20), without elimination.

    Meet in the middle (Horowitz & Sahni, 1974): assignment index
    x = hi << low | lo, with low = n // 2 and bit j of x set when
    universe[j] is -1. Each constraint's parity splits as
    parity(x & mask) = parity(lo & mask_lo) xor parity(hi & mask_hi), so x
    satisfies the system iff key_lo(lo) xor rhs_bits == key_hi(hi), where a
    key packs one half's parities, one bit per constraint. The keys of both
    halves are grouped with np.unique, and the count sums, over the high
    halves, the number of low halves in the same group. Time and memory are
    O(2^(n/2) * ceil(m/64)) for m constraints; no array of 2^n entries is
    built. `tested` is 2^n, the number of assignments the count covers.

    With return_assignments, the satisfying assignments are listed in
    ascending index order, taken from the same join.
    """
    n = system.num_variables
    if n > ENUMERATE_MAX_VARIABLES:
        raise ResourceError(
            f"{n} variables exceeds the {ENUMERATE_MAX_VARIABLES}-variable "
            "enumeration guard")
    low = n // 2
    rows = [system._row(c) for c in system.constraints]
    masks = np.array([mask for mask, _ in rows], dtype=np.uint64)
    rhs = sum(bit << k for k, (_, bit) in enumerate(rows))
    lo_keys = _parity_keys(masks & np.uint64((1 << low) - 1), low)
    lo_keys ^= np.array(
        [(rhs >> (word * _KEY_BITS)) & ((1 << _KEY_BITS) - 1)
         for word in range(lo_keys.shape[1])], dtype=np.uint64)
    hi_keys = _parity_keys(masks >> np.uint64(low), n - low)
    keys = np.concatenate([lo_keys, hi_keys])
    rows_as_bytes = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1])))
    distinct, groups = np.unique(rows_as_bytes.ravel(), return_inverse=True)
    lo_groups, hi_groups = groups[:1 << low], groups[1 << low:]
    lo_counts = np.bincount(lo_groups, minlength=len(distinct))
    count = int(lo_counts[hi_groups].sum())
    assignments = None
    if return_assignments:
        # Low halves sorted by group, ascending within each group.
        order = np.argsort(lo_groups, kind="stable")
        ends = np.cumsum(lo_counts)
        indices = [(hi << low) | int(lo)
                   for hi, group in enumerate(hi_groups)
                   for lo in order[ends[group] - lo_counts[group]:ends[group]]]
        assignments = tuple(
            {v: (-1 if (i >> j) & 1 else 1) for j, v in enumerate(system.universe)}
            for i in indices)
    return EnumerationResult(count=count, tested=1 << n, assignments=assignments)


@dataclass(frozen=True)
class ProductIdentity:
    """The formal product of a subset of constraints: surviving variables
    (those appearing an odd number of times) and the combined sign. If no
    variable survives and the sign is -1, the subset is contradictory."""

    subset: tuple
    residual_variables: tuple
    rhs: int
    is_contradiction: bool


def product_identity(system: ConstraintSystem,
                     subset: Optional[Sequence[int]] = None) -> ProductIdentity:
    """Multiply the chosen constraints (1-based indices; default all)."""
    if subset is None:
        subset = tuple(range(1, len(system.constraints) + 1))
    subset = tuple(subset)
    for i in subset:
        if not 1 <= i <= len(system.constraints):
            raise ValueError(f"constraint index {i} out of range")
    odd = set()
    rhs = 1
    for i in subset:
        c = system.constraints[i - 1]
        odd.symmetric_difference_update(c.variables)
        rhs *= c.rhs
    residual = tuple(sorted(odd))
    return ProductIdentity(
        subset=subset, residual_variables=residual, rhs=rhs,
        is_contradiction=(not residual) and rhs == -1)


def parse_constraints(text: str,
                      universe: Optional[Sequence[str]] = None) -> ConstraintSystem:
    """Parse constraint lines of the form `B1*A2*A3 = -1`.

    Blank lines are skipped; `#` starts a comment that runs to end of line.
    Each remaining line must be a `*`-separated product of variable names,
    an `=`, and +1 or -1. A factor `1` is the empty product, so the text
    ParityConstraint prints for a constraint whose variables all cancel,
    such as `1 = -1`, parses back to that constraint. Raises
    ConstraintParseError with the 1-based line number on malformed input.
    """
    constraints = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.count("=") != 1:
            raise ConstraintParseError(
                line_no, f"expected exactly one '=' in {raw.strip()!r}")
        lhs, rhs_text = (part.strip() for part in line.split("="))
        rhs_text = rhs_text.replace(" ", "")
        if rhs_text in ("1", "+1"):
            rhs = 1
        elif rhs_text == "-1":
            rhs = -1
        else:
            raise ConstraintParseError(
                line_no, f"right-hand side must be +1 or -1, got {rhs_text!r}")
        if not lhs:
            raise ConstraintParseError(line_no, "empty left-hand side")
        names = [token.strip() for token in lhs.split("*")]
        names = [name for name in names if name != "1"]
        try:
            constraints.append(ParityConstraint(names, rhs))
        except ValueError as exc:  # an invalid variable name
            raise ConstraintParseError(line_no, str(exc)) from None
    return ConstraintSystem.from_constraints(constraints, universe)


def analyze(system: ConstraintSystem) -> dict:
    """Full satisfiability analysis with internal cross-checks.

    Runs elimination, the all-constraints product identity, and (when the
    universe is small enough) exhaustive enumeration. The cross-checks read
    the dict returned here, not the results behind it, so `consistent`
    holds only if what the report prints agrees with itself (see
    _consistency).
    """
    solve = satisfiable(system)
    identity = product_identity(system)
    enumeration = None
    if system.num_variables <= ENUMERATE_MAX_VARIABLES:
        enumeration = enumerate_assignments(system)
    analysis = {
        "system": {
            "constraints": [str(c) for c in system.constraints],
            "universe": list(system.universe),
        },
        "solve": {
            "satisfiable": solve.satisfiable,
            "witness": (None if solve.witness is None
                        else dict(sorted(solve.witness.items()))),
            "certificate": (None if solve.certificate is None
                            else list(solve.certificate)),
            "rank": solve.rank,
            "num_solutions": solve.num_solutions,
        },
        "enumeration": None if enumeration is None else {
            "count": enumeration.count,
            "tested": enumeration.tested,
        },
        "product_identity": {
            "subset": list(identity.subset),
            "residual_variables": list(identity.residual_variables),
            "rhs": identity.rhs,
            "is_contradiction": identity.is_contradiction,
        },
    }
    analysis["consistency"] = _consistency(system, analysis)
    analysis["consistent"] = all(
        flag is not False for flag in analysis["consistency"].values())
    return analysis


def _consistency(system: ConstraintSystem, analysis: dict) -> dict:
    """The cross-checks of an analysis, read from its printed entries; a
    flag is None where it does not apply.

    A printed witness must satisfy every constraint. When the system is
    unsatisfiable, the printed certificate must be present, non-empty and
    multiply to the contradiction 1 = -1. Whenever the universe is small
    enough to enumerate, the enumeration must be printed and its count must
    agree with the solver's. The printed constraint texts must parse back
    to the system's own constraints. The printed product of all constraints
    is a contradiction exactly when no variable survives and its rhs is -1,
    and only for an unsatisfiable system.
    """
    solve, enumeration = analysis["solve"], analysis["enumeration"]
    identity = analysis["product_identity"]
    contradiction = not identity["residual_variables"] and identity["rhs"] == -1
    identity_verified = (identity["is_contradiction"] == contradiction
                         and not (contradiction and solve["satisfiable"]))
    witness_verified = certificate_verified = agreement = None
    if solve["satisfiable"]:
        witness = solve["witness"]
        witness_verified = witness is not None and all(system.check(witness))
    else:
        certificate = solve["certificate"]
        certificate_verified = bool(certificate) and product_identity(
            system, certificate).is_contradiction
    if enumeration is not None:
        count = enumeration["count"]
        agreement = ((count > 0) == solve["satisfiable"]
                     and (not solve["satisfiable"] or count == solve["num_solutions"]))
    elif system.num_variables <= ENUMERATE_MAX_VARIABLES:
        agreement = False
    try:
        printed = parse_constraints(
            "\n".join(analysis["system"]["constraints"]), system.universe)
        parse_back = printed.constraints == system.constraints
    except ValueError:  # unparsable, or names outside the universe
        parse_back = False
    return {
        "witness_verified": witness_verified,
        "certificate_verified": certificate_verified,
        "solver_enumeration_agree": agreement,
        "constraints_parse_back": parse_back,
        "product_identity_verified": identity_verified,
    }


def ghz_record_system() -> ConstraintSystem:
    """The four record-product constraints realized by the simulated
    protocols: one all-direct product pinned to +1 and three mixed products
    pinned to -1. Their full product is the contradiction 1 = -1."""
    constraints = (
        ParityConstraint(("B1", "B2", "B3"), 1),
        ParityConstraint(("B1", "A2", "A3"), -1),
        ParityConstraint(("A1", "B2", "A3"), -1),
        ParityConstraint(("A1", "A2", "B3"), -1),
    )
    universe = ("A1", "A2", "A3", "B1", "B2", "B3")
    return ConstraintSystem(constraints, universe)


BUILTIN_SYSTEMS = {"ghz": ghz_record_system}
