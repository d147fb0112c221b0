"""Exception taxonomy shared across the package.

Plain ValueError is used for malformed arguments (bad labels, dimension
mismatches, out-of-range parameters). The classes below name the failure
modes a caller may want to tell apart; ResourceError and
ConstraintParseError are ValueErrors, so the CLI's one ValueError handler
turns them, like any bad input, into exit 2.
"""


class ResourceError(ValueError):
    """A requested computation exceeds a hard size guard (qubit count,
    variable count, dense-matrix dimension, constraint count, constraint
    file size)."""


class ProtocolError(RuntimeError):
    """A physically meaningful misuse of the protocol API, e.g. premeasuring
    onto a memory qubit that is not in |0>, or certifying a product of
    observables that do not pairwise commute."""


class InternalConsistencyError(RuntimeError):
    """A quantity that must hold by construction failed its runtime check
    (norm drift, non-real expectation of a Hermitian observable). Signals a
    bug, never a user error."""


class ConstraintParseError(ValueError):
    """A constraint file line could not be parsed. Carries the 1-based line
    number for error messages."""

    def __init__(self, line_number: int, message: str):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")
