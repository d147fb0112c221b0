"""Simulator and verification toolkit for sequential agent measurements on
a shared three-qubit state.

The package certifies, by exact Born-rule computation, four product
constraints over direct outcomes and memory records; proves by GF(2)
elimination and exhaustive enumeration that no joint +/-1 assignment
satisfies all four; and demonstrates where the classical reading breaks:
records get disturbed, and two-time record agreement fails, exactly when
non-commuting operations intervene.
"""

from .errors import (
    ConstraintParseError,
    InternalConsistencyError,
    ProtocolError,
    ResourceError,
)
from .observers import (
    Premeasurement,
    RelativeFact,
    StageSnapshot,
    ledger,
    lift,
    premeasure,
    reverse,
)
from .parity import (
    ConstraintSystem,
    EnumerationResult,
    ParityConstraint,
    ProductIdentity,
    SolveResult,
    analyze,
    enumerate_assignments,
    ghz_record_system,
    parse_constraints,
    product_identity,
    satisfiable,
)
from .pauli import PauliString, commutes
from .rng import child_generator
from .scenarios import (
    CdrReport,
    ConstraintResult,
    CplResult,
    LmzReport,
    SampleTally,
    ScenarioConfig,
    ScenarioReport,
    certify_constraint,
    cpl_check,
    run_cdr,
    run_cdr_suite,
    run_lmz,
    sample_records,
)
from .statevector import (
    ALG_TOL,
    PHYS_TOL,
    StateVector,
    expectation,
    fidelity,
    prepare_ghz,
    zero_state,
)

__version__ = "0.1.0"

__all__ = [
    "ALG_TOL",
    "PHYS_TOL",
    "CdrReport",
    "ConstraintParseError",
    "ConstraintResult",
    "ConstraintSystem",
    "CplResult",
    "EnumerationResult",
    "InternalConsistencyError",
    "LmzReport",
    "ParityConstraint",
    "PauliString",
    "Premeasurement",
    "ProductIdentity",
    "ProtocolError",
    "RelativeFact",
    "ResourceError",
    "SampleTally",
    "ScenarioConfig",
    "ScenarioReport",
    "SolveResult",
    "StageSnapshot",
    "StateVector",
    "analyze",
    "certify_constraint",
    "child_generator",
    "commutes",
    "cpl_check",
    "enumerate_assignments",
    "expectation",
    "fidelity",
    "ghz_record_system",
    "ledger",
    "lift",
    "parse_constraints",
    "premeasure",
    "prepare_ghz",
    "product_identity",
    "reverse",
    "run_cdr",
    "run_cdr_suite",
    "run_lmz",
    "sample_records",
    "satisfiable",
    "zero_state",
]
