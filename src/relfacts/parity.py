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

from . import scenarios
from .errors import ConstraintParseError, ResourceError

SOLVE_MAX_VARIABLES = 64
ENUMERATE_MAX_VARIABLES = 20
PARSE_MAX_CONSTRAINTS = 10_000

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


_KEY_BITS = 64


def _pack(bits: np.ndarray) -> np.ndarray:
    """Entry k of the last axis of a 0/1 array, packed into bit k % 64 of
    word k // 64 of little-endian uint64 words (at least one word)."""
    words = max(1, -(-bits.shape[-1] // _KEY_BITS))
    padded = np.zeros(bits.shape[:-1] + (words * _KEY_BITS,), dtype=bool)
    padded[..., :bits.shape[-1]] = bits
    return np.packbits(padded, axis=-1, bitorder="little").view("<u8")


def _parity_keys(units: np.ndarray) -> np.ndarray:
    """Row i, for i < 2^w with w = len(units), is the xor of units[b] over
    the set bits b of i.

    With units[b] the key of index 2^b, row i is the key of index i: a key
    packs the parity of (i & mask) for each constraint's mask, which is
    linear in i over GF(2). Each step b xors the 2^b rows already filled
    with units[b] into the next 2^b rows, in place, so the table is the
    only array of 2^w rows.
    """
    keys = np.zeros((1 << len(units), units.shape[1]), dtype=units.dtype)
    for b, unit in enumerate(units):
        np.bitwise_xor(keys[:1 << b], unit, out=keys[1 << b:2 << b])
    return keys


def enumerate_assignments(system: ConstraintSystem) -> EnumerationResult:
    """Count the assignments satisfying every constraint, over all 2^n of
    them (guarded to n <= 20), without elimination.

    Meet in the middle (Horowitz & Sahni, 1974): assignment index
    x = hi << low | lo, with low = n // 2 and bit j of x set when
    universe[j] is -1. Each constraint's parity splits as
    parity(x & mask) = parity(lo & mask_lo) xor parity(hi & mask_hi), so x
    satisfies the system iff key_lo(lo) xor rhs_bits == key_hi(hi), where a
    key packs one half's parities, one bit per constraint. Both halves'
    key tables are built by GF(2) doubling from the key of each variable
    alone (_parity_keys). The low keys are sorted in place, and the count
    sums, over the high keys, the number of equal low keys, found by
    binary search. Keys compare as uint64 when they fit one word (at most
    64 constraints) and as raw-byte rows otherwise. The only arrays of
    2^(n/2) rows are the two key tables and the two search results. Time
    and memory are O(2^(n/2) * ceil(m/64)) for m constraints; no array of
    2^n entries is built. `tested` is 2^n, the number of assignments the
    count covers.
    """
    n = system.num_variables
    if n > ENUMERATE_MAX_VARIABLES:
        raise ResourceError(
            f"{n} variables exceeds the {ENUMERATE_MAX_VARIABLES}-variable "
            "enumeration guard")
    low = n // 2
    rows = [system._row(c) for c in system.constraints]
    masks = np.array([mask for mask, _ in rows], dtype="<u8")
    # Row j: bit k set when constraint k holds universe[j].
    units = _pack(np.unpackbits(masks.view(np.uint8).reshape(-1, 8), axis=1,
                                count=n, bitorder="little").T)
    lo_keys = _parity_keys(units[:low])
    lo_keys ^= _pack(np.array([bit for _, bit in rows], dtype=bool))
    hi_keys = _parity_keys(units[low:])
    row = (lo_keys.dtype if lo_keys.shape[1] == 1
           else np.dtype((np.void, lo_keys.itemsize * lo_keys.shape[1])))
    lo, hi = lo_keys.view(row).ravel(), hi_keys.view(row).ravel()
    lo.sort()
    count = int((np.searchsorted(lo, hi, "right") - np.searchsorted(lo, hi, "left")).sum())
    return EnumerationResult(count=count, tested=1 << n)


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
    ConstraintParseError with the 1-based line number on malformed input,
    and ResourceError at the first constraint line past
    PARSE_MAX_CONSTRAINTS, before that line is parsed.
    """
    constraints = []
    for line_no, raw, line in _constraint_lines(text):
        if len(constraints) == PARSE_MAX_CONSTRAINTS:
            raise ResourceError(
                f"line {line_no}: more than {PARSE_MAX_CONSTRAINTS} constraints "
                f"exceeds the {PARSE_MAX_CONSTRAINTS}-constraint parse guard")
        constraints.append(_parse_line(line_no, raw, line))
    return ConstraintSystem.from_constraints(constraints, universe)


def _constraint_lines(text: str):
    """(line number, raw line, text before any `#`, stripped) of each line
    of `text` that is neither blank nor a comment."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line_no, raw, line


def _parse_line(line_no: int, raw: str, line: str) -> ParityConstraint:
    """The constraint on one line of _constraint_lines; raises
    ConstraintParseError with the line number if it is malformed."""
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
        return ParityConstraint(names, rhs)
    except ValueError as exc:  # an invalid variable name
        raise ConstraintParseError(line_no, str(exc)) from None


def _parses_back(printed: str, constraint: ParityConstraint) -> bool:
    """Whether the text `printed` holds exactly one constraint line, and
    that line parses to `constraint`."""
    lines = list(_constraint_lines(printed))
    try:
        return len(lines) == 1 and _parse_line(*lines[0]) == constraint
    except ConstraintParseError:
        return False


def analyze(system: ConstraintSystem) -> dict:
    """Full satisfiability analysis with internal cross-checks.

    Holds the solver's own results: the SolveResult of elimination as
    "solve", the EnumerationResult of exhaustive enumeration as
    "enumeration" (None above ENUMERATE_MAX_VARIABLES), and the
    ProductIdentity of all constraints as "product_identity". The report
    writes each of them field by field, and the cross-checks read the same
    objects, so `consistent` holds only if what the report prints agrees
    with itself (see _consistency).
    """
    analysis = {
        "system": {
            "constraints": [str(c) for c in system.constraints],
            "universe": list(system.universe),
        },
        "solve": satisfiable(system),
        "enumeration": (enumerate_assignments(system)
                        if system.num_variables <= ENUMERATE_MAX_VARIABLES else None),
        "product_identity": product_identity(system),
    }
    analysis["consistency"] = _consistency(system, analysis)
    analysis["consistent"] = all(
        flag is not False for flag in analysis["consistency"].values())
    return analysis


def _consistency(system: ConstraintSystem, analysis: dict) -> dict:
    """The cross-checks of an analysis, read from the result objects it
    holds, which are what its report prints; a flag is None where it does
    not apply.

    A witness must give every universe variable +1 or -1 and satisfy every
    constraint. When the system is unsatisfiable, the certificate must be
    present and non-empty, name each constraint index in 1..m at most once,
    and multiply to the contradiction 1 = -1. Whenever the universe is
    small enough to enumerate, the enumeration must be present and its
    count must agree with the solver's. There must be one printed text per
    constraint, each a single constraint line that parses back to the
    system's constraint in its place. The product of all constraints is a
    contradiction exactly when no variable survives and its rhs is -1, and
    only for an unsatisfiable system.
    """
    solve, enumeration = analysis["solve"], analysis["enumeration"]
    identity = analysis["product_identity"]
    contradiction = not identity.residual_variables and identity.rhs == -1
    identity_verified = (identity.is_contradiction == contradiction
                         and not (contradiction and solve.satisfiable))
    witness_verified = certificate_verified = agreement = None
    if solve.satisfiable:
        witness = solve.witness
        witness_verified = (
            witness is not None
            and all(witness.get(v) in (1, -1) for v in system.universe)
            and all(system.check(witness)))
    else:
        certificate = solve.certificate or ()
        certificate_verified = (
            bool(certificate)
            and len(set(certificate)) == len(certificate)
            and all(1 <= i <= len(system.constraints) for i in certificate)
            and product_identity(system, certificate).is_contradiction)
    if enumeration is not None:
        agreement = ((enumeration.count > 0) == solve.satisfiable
                     and (not solve.satisfiable
                          or enumeration.count == solve.num_solutions))
    elif system.num_variables <= ENUMERATE_MAX_VARIABLES:
        agreement = False
    # Line by line: a second system of the same size is never built.
    printed = analysis["system"]["constraints"]
    parse_back = (len(printed) == len(system.constraints)
                  and all(map(_parses_back, printed, system.constraints)))
    return {
        "witness_verified": witness_verified,
        "certificate_verified": certificate_verified,
        "solver_enumeration_agree": agreement,
        "constraints_parse_back": parse_back,
        "product_identity_verified": identity_verified,
    }


def ghz_record_system() -> ConstraintSystem:
    """The four record-product constraints realized by the simulated
    protocols, built from scenarios' constraint table (record_slots and
    CONSTRAINT_SIGNS) at each call: one all-direct product pinned to +1 and
    three mixed products pinned to -1, over the universe A1..B3. Their full
    product is the contradiction 1 = -1."""
    constraints = (
        ParityConstraint([label for label, _ in scenarios.record_slots(cid)], sign)
        for cid, sign in enumerate(scenarios.CONSTRAINT_SIGNS, 1))
    return ConstraintSystem(constraints, ("A1", "A2", "A3", "B1", "B2", "B3"))
