"""Protocol flows on a 9-qubit register: three shared-state qubits, three
memory qubits for the first agent team (Alice's friends), three for the
second (Bob's team).

Register layout (little-endian): system qubits 0..2, Alice memories 3..5
(records A1..A3), Bob memories 6..8 (records B1..B3).

The simulated protocols certify four product constraints over direct
outcomes B_k (an X readout of system qubit k, lifted through Alice's record
when that record still exists) and Alice-record readouts A_k (Z on memory
3+k-1):

    B1*B2*B3 = +1    B1*A2*A3 = -1    A1*B2*A3 = -1    A1*A2*B3 = -1

Two flows realize them. The single-experiment flow keeps Alice's records
and lets Bob address lifted observables; the four-experiment flow reverses
the relevant records and lets Bob measure directly. Both reproduce the same
four expectations, while the parity module, whose ghz_record_system is
built from this module's table, shows no fixed +/-1 assignment to
{A_k, B_k} satisfies all four at once.

Exact certifications of a product use the operator product on the state.
Sampled record readouts are commuting Z's on distinct memory qubits, so
their joint distribution is the |amplitude|^2 mass of the basis states,
binned on the record bits in one pass (_z_readout_distribution). The
two-time agreement reads a system observable, then a record: by deferred
measurement the first readout becomes Z on an ancilla, the row index of a
two-row stack of branches, so the same bincount gives its distribution.

The symbolic side of both flows depends on the constraint table alone,
never on the state, seed or shots: the premeasurements, the lifted and
transported observables, each certified product and its commutation, the
stage labels and every stage's ledger (the Heisenberg-picture bookkeeping
of Pauli strings). It is derived once per process, on the first flow call,
into an immutable plan of tuples and frozen dataclasses (_plan), keyed on
the values of CONSTRAINT_PATTERNS and CONSTRAINT_SIGNS, so a patched table
takes effect at the next flow call. Each run then does only the state
arithmetic: kernels, expectations, distributions, draws and fidelities,
and builds every dict its report carries afresh. A builder patched after
a flow has run (lift, ledger, alice_premeasurements, PauliString.__mul__,
...) reaches the flows only once clear_plan() has dropped the plan.

Randomness: every sampled draw comes from rng.child_generator(master_seed,
stream, scope), with streams STREAM_SAMPLE (scope = target index) and
STREAM_CPL (scope = variant). Each scope draws its shots' outcome counts
with one multinomial over the exact probabilities, so the cost does not
grow with the shot count, and identical (seed, flags) reproduce identical
reports byte for byte.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, field, replace
from itertools import combinations
from math import sqrt
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import InternalConsistencyError, ProtocolError
from .observers import (
    Premeasurement,
    StageSnapshot,
    _premeasure_array,
    _require_cleared_memory,
    ledger,
    lift,
    premeasure,
    reverse,
)
from .pauli import PauliString, commutes, product_of
from .rng import MAX_SEED, STREAM_CPL, STREAM_SAMPLE, child_generator
from .statevector import (
    ALG_TOL,
    PHYS_TOL,
    StateVector,
    expectation,
    fidelity,
    prepare_ghz,
    zero_state,
)

NUM_QUBITS = 9
SYSTEM_QUBITS = (0, 1, 2)
ALICE_MEMORY = (3, 4, 5)
BOB_MEMORY = (6, 7, 8)

DEFAULT_TOLERANCE = 1e-9
# Exact products lie in [-1, 1] and a disturbed one reads 0, so a tolerance
# of 0.5 or more would let wrong physics pass. For the same reason a value
# counts as disturbed only when it lies farther than this from the intact
# one: anything closer could still pass certification.
MAX_TOLERANCE = 0.5
# Rounding alone moves the exact products and the restoration fidelity by
# up to about 4.4e-16 (+/-0.9999999999999999, 0.9999999999999996), so a
# smaller tolerance would fail correct physics.
MIN_TOLERANCE = 1e-12
# Shots per target are drawn as one multinomial whose count must fit a
# signed 64-bit integer.
MAX_SHOTS = 10**18

# The constraint table, read at call time through record_slots: per pair k
# the slot is "B" (direct outcome) or "A" (record readout). Products of the
# chosen observables carry these signs.
CONSTRAINT_PATTERNS = (
    ("B", "B", "B"),
    ("B", "A", "A"),
    ("A", "B", "A"),
    ("A", "A", "B"),
)
CONSTRAINT_SIGNS = (1, -1, -1, -1)

CONSTRAINT_KINDS = ("operator", "record")


@dataclass(frozen=True)
class ScenarioConfig:
    """Run parameters shared by both flows.

    experiment_id selects the flow: None for run_lmz, 1..4 for that
    reversal experiment of run_cdr. shots = 0 disables sampling, leaving
    only exact Born-rule certification; at most MAX_SHOTS. tolerance lies
    in [MIN_TOLERANCE, MAX_TOLERANCE). Each
    range-checked value is stored as an exact Python number (operator.index
    for the integers, float() for tolerance): numpy integers and floats are
    accepted and converted, and a float id, count or seed raises TypeError.
    """

    experiment_id: Optional[int] = None
    shots: int = 0
    master_seed: int = 0
    tolerance: float = DEFAULT_TOLERANCE

    def __post_init__(self):
        if self.experiment_id not in (None, 1, 2, 3, 4):
            raise ValueError(
                f"experiment_id must be None or in 1..4, got {self.experiment_id!r}")
        if not 0 <= self.shots <= MAX_SHOTS:
            raise ValueError(f"shots must lie in [0, {MAX_SHOTS:g}], got {self.shots}")
        if not MIN_TOLERANCE <= self.tolerance < MAX_TOLERANCE:
            raise ValueError(
                f"tolerance must lie in [{MIN_TOLERANCE:g}, {MAX_TOLERANCE:g}), "
                f"got {self.tolerance}")
        if not 0 <= self.master_seed <= MAX_SEED:
            raise ValueError(f"master_seed must be in [0, 2^64), got {self.master_seed}")
        if self.experiment_id is not None:
            object.__setattr__(self, "experiment_id", operator.index(self.experiment_id))
        object.__setattr__(self, "shots", operator.index(self.shots))
        object.__setattr__(self, "master_seed", operator.index(self.master_seed))
        object.__setattr__(self, "tolerance", float(self.tolerance))


@dataclass(frozen=True)
class ConstraintResult:
    """One certification of a product constraint.

    kind "operator": simultaneous eigenvalue certification of commuting
    observables on one state. kind "record": the same product read off
    coexisting memory records. Per-shot evidence (when shots > 0) counts
    sampled products against the expected sign.
    """

    constraint_id: int
    kind: str
    labels: tuple
    stage: str
    expected: int
    expectation: float
    tolerance: float
    shots: int
    violations: int
    certified: bool


@dataclass(frozen=True)
class MarginalSummary:
    label: str
    plus_count: int
    within_band: bool


@dataclass(frozen=True)
class SampleTally:
    """Per-shot readout statistics for one family of runs.

    `outcome_counts` maps each joint readout, one "+" or "-" per record in
    `record_labels` order, to its count. Everything else the tally reports
    is derived from those counts in __post_init__: `shots` is their sum,
    `violations` the count of keys whose sign product is not
    `expected_product`, and `marginals` each record's +1 count with its
    5-sigma band check (every record here has an exactly unbiased
    marginal). The derived fields take no constructor argument, so neither
    the constructor nor dataclasses.replace can set them apart from the
    counts. `outcome_counts` is a plain dict, though: changing it in place
    after construction leaves the derived fields stale, which only verify's
    own re-derivation of the tallies catches.
    """

    target: str
    constraint_id: int
    stage: str
    record_labels: tuple
    expected_product: int
    outcome_counts: dict
    shots: int = field(init=False)
    violations: int = field(init=False)
    marginals: tuple = field(init=False)

    def __post_init__(self):
        shots = violations = 0
        plus_counts = [0] * len(self.record_labels)
        for key, count in self.outcome_counts.items():
            shots += count
            if (-1) ** key.count("-") != self.expected_product:
                violations += count
            for pos, reading in enumerate(key):
                if reading == "+":
                    plus_counts[pos] += count
        half_band = 5 * 0.5 / sqrt(shots) if shots > 0 else 0.0
        marginals = tuple(
            MarginalSummary(label=label, plus_count=plus, within_band=(
                abs(plus / shots - 0.5) <= half_band if shots > 0 else True))
            for label, plus in zip(self.record_labels, plus_counts))
        object.__setattr__(self, "shots", shots)
        object.__setattr__(self, "violations", violations)
        object.__setattr__(self, "marginals", marginals)


@dataclass(frozen=True)
class CplResult:
    """Two-time agreement between a projective readout of the system
    observable (value v) and a later readout of the matching record (value
    w). Intact protocol: E[v*w] = 1 exactly. With an intervening operation
    that fails to commute with the record, the agreement collapses, even
    though the same-time product observable keeps expectation +1 - the
    premise that a recorded outcome stays addressable is what breaks."""

    system_label: str
    record_label: str
    record_qubit: int
    disturbance_label: str
    shots: int
    intact_expectation: float
    intact_matches: int
    disturbed_expectation: float
    disturbed_matches: int
    operator_product_after: float
    premise_certified: bool
    violation_demonstrated: bool


@dataclass(frozen=True)
class SamePairAnticommute:
    """Whether pair k's direct observable B_k anticommutes with A_k."""
    pair: int
    anticommute: bool


@dataclass(frozen=True)
class CommutationSurvey:
    """The lmz flow's commutation evidence: the four products pairwise (keyed
    "i,j") and inside each triple (keyed by constraint id), and each direct
    observable against its own record readout and the other pairs' ones."""
    product_labels: dict
    product_pairwise_commute: dict
    all_products_commute: bool
    triples_commute: dict
    same_pair_anticommute: tuple
    cross_pair_commute: bool


@dataclass(frozen=True)
class TransportedCertificate:
    """A product carried through Bob's premeasurements to lmz's final state."""
    constraint_id: int
    observable: str
    expected: int
    expectation: float
    certified: bool


@dataclass(frozen=True)
class DisturbedDiagnostic:
    """A mixed record product that held at `early_stage` and fails on lmz's
    final state, with the final statuses of the records it disturbed."""
    records: tuple
    early_stage: str
    early_expectation: float
    final_expectation: float
    gap: float
    gap_exceeds_half: bool
    record_statuses: dict


@dataclass(frozen=True)
class FullRestoration:
    """Experiment 1 reversed every record: fidelity to the prepared state."""
    fidelity: float
    restored: bool
    kind: str = field(default="full", init=False)


@dataclass(frozen=True)
class MemoryRestoration:
    """Experiments 2..4 reversed one record: its memory's purity and excitation."""
    memory_qubit: int
    purity: float
    excitation: float
    restored: bool
    kind: str = field(default="memory", init=False)


@dataclass(frozen=True)
class CoexistingRecords:
    """The records current after Bob's step, against the constraint's labels."""
    current: tuple
    constraint_labels: tuple
    records_match_constraint: bool


@dataclass
class ScenarioReport:
    """What both flows certify, plus the stage-by-stage evidence; each
    flow's own results are on its subclass, LmzReport or CdrReport.

    `snapshots` keeps the full states for programmatic use; the report
    module serializes a summary of each stage instead. Each snapshot's facts
    are observers.ledger of the record steps applied up to that stage, so
    the last snapshot's facts are the flow's final ledger.
    """

    config: ScenarioConfig
    snapshots: list
    constraints: list
    sampling: list
    passed: bool


@dataclass
class LmzReport(ScenarioReport):
    """run_lmz's report, with the evidence only the lmz flow computes."""
    commutation: CommutationSurvey
    final_certificate: list
    disturbed_diagnostic: DisturbedDiagnostic
    cpl: CplResult


@dataclass
class CdrReport(ScenarioReport):
    """run_cdr's report of one experiment, with the evidence only cdr computes."""
    restoration: FullRestoration | MemoryRestoration
    coexisting_records: CoexistingRecords


# -- protocol building blocks ------------------------------------------------


def alice_premeasurements() -> tuple:
    """Alice's friends each premeasure Y on their system qubit onto the
    matching memory."""
    return tuple(
        Premeasurement(
            PauliString.single(NUM_QUBITS, SYSTEM_QUBITS[k], "Y"),
            memory=ALICE_MEMORY[k],
            owner="alice")
        for k in range(3))


def lifted_direct_observables(alice_pms: Sequence[Premeasurement]) -> tuple:
    """Bob's direct outcome observables B_k: X on system qubit k, lifted
    through every existing record so that addressing them does not tear up
    Alice's memories implicitly."""
    out = []
    for k in range(3):
        obs = PauliString.single(NUM_QUBITS, SYSTEM_QUBITS[k], "X")
        for pm in alice_pms:
            obs = lift(obs, pm)
        out.append(obs)
    return tuple(out)


def record_readout_observables() -> tuple:
    """Alice record observables A_k: Z on memory qubit 3+k."""
    return tuple(
        PauliString.single(NUM_QUBITS, ALICE_MEMORY[k], "Z") for k in range(3))


@dataclass(frozen=True)
class ConstraintSpec:
    constraint_id: int
    labels: tuple
    observables: tuple
    expected: int


def record_slots(constraint_id: int) -> tuple:
    """The (label, memory qubit) record of each pair of constraint
    `constraint_id`, in pair order, per CONSTRAINT_PATTERNS: Bob's memory
    (B_k) for a B slot, Alice's (A_k) for an A slot."""
    return tuple(
        (f"{slot}{k + 1}", (BOB_MEMORY if slot == "B" else ALICE_MEMORY)[k])
        for k, slot in enumerate(CONSTRAINT_PATTERNS[constraint_id - 1]))


def constraint_readouts(constraint_id: int) -> tuple:
    """The Z readout of each record of constraint `constraint_id`, in
    record_slots order; their product is the constraint's record product."""
    return tuple(PauliString.single(NUM_QUBITS, q, "Z")
                 for _, q in record_slots(constraint_id))


def constraint_table(bhats: Sequence[PauliString],
                     ahats: Sequence[PauliString]) -> tuple:
    """The four certified products over direct/record observables."""
    specs = []
    for cid, (pattern, sign) in enumerate(zip(CONSTRAINT_PATTERNS, CONSTRAINT_SIGNS), 1):
        labels = tuple(label for label, _ in record_slots(cid))
        observables = tuple((bhats if slot == "B" else ahats)[k]
                            for k, slot in enumerate(pattern))
        specs.append(ConstraintSpec(cid, labels, observables, sign))
    return tuple(specs)


def _z_readout_distribution(amplitudes: np.ndarray, qubits: Sequence[int]) -> list:
    """Joint distribution of Z readouts of `qubits`, in order.

    A Z readout keeps each basis state or drops it, so p(v1..vm) is the
    |amplitude|^2 mass of the basis states whose bits read v1..vm, with +1
    for bit 0. One weighted bincount keyed on those bits, first readout as
    the most significant bit, lists them with +1 before -1 at every
    readout. Outcomes of probability <= ALG_TOL are dropped, and the rest
    must sum to 1 within PHYS_TOL. Returns [(values, p), ...].
    """
    index = np.arange(amplitudes.size)
    keys = np.zeros(amplitudes.size, dtype=np.intp)
    for q in qubits:
        keys = (keys << 1) | ((index >> q) & 1)
    weights = np.square(amplitudes.real) + np.square(amplitudes.imag)
    probs = np.bincount(keys, weights=weights, minlength=1 << len(qubits))
    shifts = range(len(qubits) - 1, -1, -1)
    dist = [
        (tuple(1 - 2 * ((key >> s) & 1) for s in shifts), p)
        for key, p in enumerate(probs.tolist()) if p > ALG_TOL]
    total = sum(p for _, p in dist)
    if abs(total - 1.0) > PHYS_TOL:
        raise InternalConsistencyError(
            f"Z readout probabilities sum to {total!r}")
    return dist


def _draw_outcome_counts(dist: list, shots: int, rng: np.random.Generator) -> list:
    """Sample `shots` outcomes from a [(values, p), ...] distribution with
    one multinomial draw, exact in law and O(outcomes) in time and memory.
    Returns [(values, count), ...]."""
    probs = np.array([p for _, p in dist])
    counts = rng.multinomial(shots, probs / probs.sum())
    return [(values, int(c)) for (values, _), c in zip(dist, counts)]


def certify_constraint(state: StateVector,
                       observables: Sequence[PauliString],
                       expected: int,
                       *,
                       labels: Sequence[str],
                       constraint_id: int,
                       kind: str = "operator",
                       stage: str = "",
                       tolerance: float = DEFAULT_TOLERANCE) -> ConstraintResult:
    """Certify that a product of pairwise-commuting Pauli strings has the
    expected definite value on `state`, from its exact Born expectation.

    Raises ProtocolError if any two observables fail to commute (their
    product has no joint eigenbasis to certify). Per-shot evidence for
    record products is added by _certify_records.
    """
    return _certify(
        state, _product(constraint_id, kind, labels, observables, expected),
        stage, tolerance)


class _Product(NamedTuple):
    """A product of pairwise-commuting observables, ready to certify on any
    state: `observable` is their operator product. A record product also
    lists the (label, memory qubit) `records` whose Z readouts it reads."""

    constraint_id: int
    kind: str
    labels: tuple
    observable: PauliString
    expected: int
    records: tuple = ()


def _product(constraint_id: int, kind: str, labels: Sequence[str],
             observables: Sequence[PauliString], expected: int,
             records: tuple = ()) -> _Product:
    """Check a product's arguments and the pairwise commutation of its
    observables (ProtocolError if two fail to commute), then take it."""
    observables = tuple(observables)
    labels = tuple(labels)
    if len(observables) != len(labels) or not observables:
        raise ValueError("need one label per observable, at least one of each")
    if expected not in (1, -1):
        raise ValueError(f"expected product must be +1 or -1, got {expected!r}")
    if kind not in CONSTRAINT_KINDS:
        raise ValueError(f"kind must be 'operator' or 'record', got {kind!r}")
    for (la, oa), (lb, ob) in combinations(zip(labels, observables), 2):
        if not commutes(oa, ob):
            raise ProtocolError(
                f"observables {la} and {lb} do not commute; "
                "simultaneous certification is undefined")
    return _Product(constraint_id, kind, labels, product_of(observables),
                    expected, records)


def _certify(state: StateVector, product: _Product, stage: str,
             tolerance: float) -> ConstraintResult:
    """Certify `product` on `state` from its exact Born expectation."""
    val = expectation(state, product.observable)
    return ConstraintResult(
        constraint_id=product.constraint_id, kind=product.kind,
        labels=product.labels, stage=stage, expected=product.expected,
        expectation=val, tolerance=tolerance, shots=0, violations=0,
        certified=abs(val - product.expected) <= tolerance)


def sample_records(state: StateVector,
                   *,
                   target: str,
                   constraint_id: int,
                   stage: str,
                   records: Sequence[tuple],
                   expected_product: int,
                   shots: int,
                   master_seed: int,
                   target_index: int) -> SampleTally:
    """Repeatedly read the listed (label, qubit) records in order and tally
    their joint outcomes. Shots are drawn from the exact joint distribution
    of the Z readouts; the tally derives its products and marginals from
    the counts."""
    counts: dict = {}
    if shots > 0:
        rng = child_generator(master_seed, STREAM_SAMPLE, target_index)
        dist = _z_readout_distribution(
            state.amplitudes, [qubit for _, qubit in records])
        for values, count in _draw_outcome_counts(dist, shots, rng):
            if count > 0:
                counts["".join("+" if v == 1 else "-" for v in values)] = count
    return SampleTally(
        target=target, constraint_id=constraint_id, stage=stage,
        record_labels=tuple(label for label, _ in records),
        expected_product=expected_product, outcome_counts=counts)


def cpl_check(state: StateVector,
              system_obs: PauliString,
              record_label: str,
              record_qubit: int,
              disturbance: Premeasurement,
              *,
              shots: int = 0,
              master_seed: int = 0,
              tolerance: float = DEFAULT_TOLERANCE) -> CplResult:
    """Certify the record-agreement premise and demonstrate its failure.

    Intact: reading the system observable and then its record must agree
    with certainty (expectation 1, every sampled shot matching). Disturbed:
    the same two-time experiment with `disturbance` applied between the two
    readouts. By deferred measurement, reading the system observable first
    equals reading a copy of it at the end: the branches (1 +/- O)/2 psi,
    stacked as rows, make that copy qubit n of the flattened stack. The
    disturbance acts on both rows (memory cleared in each, as premeasure()
    requires), and the Z readout of qubits (n, record_qubit) gives each
    variant's E[v*w] and shots. The same-time product expectation after the
    disturbance is reported alongside, because it stays at +1: only the
    two-time agreement carries the premise. A `system_obs` acting with X or
    Y on the record qubit raises ValueError before any distribution or draw.

    The two rows are filled in place and halved with `/= 2.0`, the same
    complex divide as (a +/- Oa) / 2 (a multiply by 0.5 can flip the sign
    of a zero), and the disturbance is applied one row at a time, which
    gives the stacked kernel's bits with half its temporaries.
    """
    record_obs = PauliString.single(state.num_qubits, record_qubit, "Z")
    if system_obs.factors[record_qubit] in "XY":
        raise ValueError(
            f"system observable {system_obs.label()} acts with "
            f"{system_obs.factors[record_qubit]} on record qubit {record_qubit}")
    amps = state.amplitudes
    o = system_obs.apply_to_array(amps)
    branches = np.empty((2, amps.size), dtype=complex)
    np.add(amps, o, out=branches[0])
    np.subtract(amps, o, out=branches[1])
    del o
    branches /= 2.0
    exact = []
    matches = []
    for variant, between in enumerate(((), (disturbance,))):
        for pm in between:
            _require_cleared_memory(branches, pm)
            for row in branches:
                row[:] = _premeasure_array(row, pm)
        dist = _z_readout_distribution(
            branches.ravel(), (state.num_qubits, record_qubit))
        exact.append(sum(p * v * w for (v, w), p in dist))
        matched = 0
        if shots > 0:
            rng = child_generator(master_seed, STREAM_CPL, variant)
            for (v, w), count in _draw_outcome_counts(dist, shots, rng):
                if v == w:
                    matched += count
        matches.append(matched)
    after_state = premeasure(state, disturbance)
    operator_after = expectation(after_state, system_obs * record_obs)
    return CplResult(
        system_label=system_obs.label(),
        record_label=record_label,
        record_qubit=record_qubit,
        disturbance_label=disturbance.observable.label(),
        shots=shots,
        intact_expectation=exact[0],
        intact_matches=matches[0],
        disturbed_expectation=exact[1],
        disturbed_matches=matches[1],
        operator_product_after=operator_after,
        premise_certified=(abs(exact[0] - 1.0) <= tolerance
                           and matches[0] == shots),
        violation_demonstrated=(1.0 - exact[1]) > MAX_TOLERANCE)


def _commutation_survey(specs: Sequence[ConstraintSpec],
                        bhats: Sequence[PauliString],
                        ahats: Sequence[PauliString]) -> tuple:
    """The commutation survey of the four products `specs`, over Bob's
    direct observables `bhats` and Alice's record readouts `ahats`: the
    fields of a CommutationSurvey in order, each dict as the tuple of its
    items, so a plan can hold them and each report gets dicts of its own."""
    products = [product_of(spec.observables) for spec in specs]
    pairwise = tuple((f"{i},{j}", commutes(pi, pj))
                     for (i, pi), (j, pj) in combinations(enumerate(products, 1), 2))
    return (
        tuple((str(i), p.label()) for i, p in enumerate(products, 1)),
        pairwise,
        all(holds for _, holds in pairwise),
        tuple((str(spec.constraint_id), all(
            commutes(a, b) for a, b in combinations(spec.observables, 2)))
            for spec in specs),
        tuple(SamePairAnticommute(k + 1, not commutes(bhats[k], ahats[k]))
              for k in range(3)),
        all(commutes(bhats[k], ahats[j])
            for k in range(3) for j in range(3) if j != k))


# -- the protocol plan -------------------------------------------------------


class _Stage(NamedTuple):
    """A protocol stage: its label, the record steps (label, premeasurement,
    stage) that lead to it from the previous stage, where stage None
    reverses the premeasurement that wrote `label`, and the ledger of every
    step up to it."""

    label: str
    steps: tuple
    facts: tuple


class _LmzPlan(NamedTuple):
    """run_lmz's symbolic side. `survey` holds the CommutationSurvey's
    fields as _commutation_survey gives them, and each `transported`
    product is an `operator` one lifted through `bob_pms`."""

    bob_pms: tuple
    operator: tuple
    survey: tuple
    bob: tuple
    transported: tuple


class _Experiment(NamedTuple):
    """One reversal experiment's symbolic side. `memory` is the reversed
    Alice memory whose Bloch vector (`bloch`: X, Y, Z on it) gives the
    restoration, or None for experiment 1, which reverses every record."""

    reversed: _Stage
    memory: Optional[int]
    bloch: tuple
    operator: _Product
    bob: _Stage
    record: _Product
    coexisting: CoexistingRecords


class _Plan(NamedTuple):
    """The symbolic side of both flows, derived from the constraint table
    `key` (CONSTRAINT_PATTERNS, CONSTRAINT_SIGNS): Alice's premeasurements,
    the opening stages "prepared" and "alice-complete", each constraint's
    record product (by id), the lmz flow's plan and each experiment's."""

    key: tuple
    alice_pms: tuple
    opening: tuple
    records: tuple
    lmz: _LmzPlan
    experiments: tuple


_PLAN: Optional[_Plan] = None


def _plan() -> _Plan:
    """The plan of the current constraint table, built on first use and
    again whenever CONSTRAINT_PATTERNS or CONSTRAINT_SIGNS hold other
    values than it was built from."""
    global _PLAN
    key = (CONSTRAINT_PATTERNS, CONSTRAINT_SIGNS)
    if _PLAN is None or _PLAN.key != key:
        _PLAN = _build_plan(key)
    return _PLAN


def clear_plan() -> None:
    """Drop the plan, so the next flow call derives it again from the
    builders as they are then."""
    global _PLAN
    _PLAN = None


def _stage(label: str, steps: list, new: tuple) -> _Stage:
    """The stage reached by the record steps `new` after `steps`, which
    are extended by them; its facts are the ledger of all of them."""
    steps.extend(new)
    return _Stage(label, new, ledger(steps))


def _build_plan(key: tuple) -> _Plan:
    """The plan of the module's current tables, whose values are `key`."""
    alice_pms = alice_premeasurements()
    steps = []
    opening = (
        _stage("prepared", steps, ()),
        _stage("alice-complete", steps, tuple(
            (f"A{k + 1}", pm, "alice-complete") for k, pm in enumerate(alice_pms))))
    records = tuple(
        _product(cid, "record", [label for label, _ in record_slots(cid)],
                 constraint_readouts(cid), sign, record_slots(cid))
        for cid, sign in enumerate(CONSTRAINT_SIGNS, 1))
    # Operator certification after a reversal: direct X for freed pairs,
    # record Z for kept ones.
    direct = constraint_table(
        tuple(PauliString.single(NUM_QUBITS, q, "X") for q in SYSTEM_QUBITS),
        record_readout_observables())
    return _Plan(
        key, alice_pms, opening, records,
        _lmz_plan(alice_pms, list(steps)),
        tuple(_experiment_plan(exp, alice_pms, list(steps), direct[exp - 1],
                               records[exp - 1]) for exp in (1, 2, 3, 4)))


def _lmz_plan(alice_pms: tuple, steps: list) -> _LmzPlan:
    """Bob addresses the direct observables lifted through Alice's records,
    premeasuring each onto his memory in turn."""
    bhats = lifted_direct_observables(alice_pms)
    ahats = record_readout_observables()
    specs = constraint_table(bhats, ahats)
    operator = tuple(
        _product(spec.constraint_id, "operator", spec.labels, spec.observables,
                 spec.expected) for spec in specs)
    bob_pms = tuple(
        Premeasurement(bhats[k], BOB_MEMORY[k], "bob") for k in range(3))
    bob = tuple(
        _stage(f"bob-{k + 1}", steps, ((f"B{k + 1}", pm, f"bob-{k + 1}"),))
        for k, pm in enumerate(bob_pms))
    transported = []
    for product in operator:
        carried = product.observable
        for pm in bob_pms:
            carried = lift(carried, pm)
        transported.append(product._replace(observable=carried))
    return _LmzPlan(bob_pms, operator, _commutation_survey(specs, bhats, ahats),
                    bob, tuple(transported))


def _experiment_plan(exp: int, alice_pms: tuple, steps: list,
                     spec: ConstraintSpec, record: _Product) -> _Experiment:
    """Experiment `exp` reverses the records of its constraint's B pairs,
    latest first, then Bob premeasures X on each freed system qubit onto
    his own memory, the constraint's B record."""
    pattern = CONSTRAINT_PATTERNS[exp - 1]
    reversed_pairs = tuple(k for k, slot in enumerate(pattern) if slot == "B")
    reversal = tuple((f"A{k + 1}", alice_pms[k], None)
                     for k in sorted(reversed_pairs, reverse=True))
    reversed_stage = _stage(
        "reversed-all" if exp == 1 else f"reversed-pair-{reversed_pairs[0] + 1}",
        steps, reversal)
    memory = None if exp == 1 else ALICE_MEMORY[reversed_pairs[0]]
    bloch = () if memory is None else tuple(
        PauliString.single(NUM_QUBITS, memory, f) for f in "XYZ")
    bob = _stage("bob-direct", steps, tuple(
        (label, Premeasurement(
            PauliString.single(NUM_QUBITS, SYSTEM_QUBITS[k], "X"),
            memory=qubit, owner="bob"), "bob-direct")
        for k, (slot, (label, qubit)) in enumerate(zip(pattern, record_slots(exp)))
        if slot == "B"))
    current = tuple(f.label for f in bob.facts if f.status == "current")
    return _Experiment(
        reversed_stage, memory, bloch,
        _product(exp, "operator", spec.labels, spec.observables, spec.expected),
        bob, record,
        CoexistingRecords(current, spec.labels, sorted(current) == sorted(spec.labels)))


# -- scenario flows ----------------------------------------------------------


def _advance(snapshots: list, stage: _Stage, state: StateVector) -> StateVector:
    """Apply `stage`'s record steps to `state` and append the result to
    `snapshots` with the stage's label and ledger."""
    for _, pm, written in stage.steps:
        state = reverse(state, pm) if written is None else premeasure(state, pm)
    snapshots.append(StageSnapshot(len(snapshots), stage.label, state, stage.facts))
    return state


def _alice_complete(plan: _Plan) -> tuple:
    """The opening both flows share: prepare the shared state, then let
    Alice's friends premeasure it. Returns the snapshots of the stages
    "prepared" and "alice-complete", and the stage-1 state."""
    snapshots = []
    prepared, alice = plan.opening
    state = _advance(snapshots, prepared,
                     prepare_ghz(zero_state(NUM_QUBITS), SYSTEM_QUBITS))
    return snapshots, _advance(snapshots, alice, state)


def _certify_records(state: StateVector, record: _Product, stage: str,
                     target: str, config: ScenarioConfig, sampling: list) -> ConstraintResult:
    """Certify the record product `record` on the memory records of `state`.

    Its records are record_slots of its constraint, and its expected sign
    comes from CONSTRAINT_SIGNS. The product of their Z readouts
    (constraint_readouts) is certified exactly; when config.shots > 0 the
    readouts are also sampled on STREAM_SAMPLE (scope = constraint id), the
    tally is appended to `sampling`, and the returned certification carries
    the shot evidence.
    """
    result = _certify(state, record, stage, config.tolerance)
    if config.shots == 0:
        return result
    tally = sample_records(
        state, target=target, constraint_id=record.constraint_id, stage=stage,
        records=record.records, expected_product=record.expected,
        shots=config.shots, master_seed=config.master_seed,
        target_index=record.constraint_id)
    sampling.append(tally)
    return replace(
        result, shots=tally.shots, violations=tally.violations,
        certified=result.certified and tally.violations == 0)


def _sampling_holds(constraints: Sequence[ConstraintResult],
                    sampling: Sequence[SampleTally], shots: int) -> bool:
    """Whether a flow's sampled evidence certifies its products.

    Every record certification reports the flow's `shots`, and when shots
    > 0 each one has its own tally, in the same order. Each tally has no
    violation and every marginal in its band.
    """
    records = [c for c in constraints if c.kind == "record"]
    tallied = [c.constraint_id for c in records] if shots > 0 else []
    return (all(c.shots == shots for c in records)
            and [t.constraint_id for t in sampling] == tallied
            and all(t.violations == 0 and all(m.within_band for m in t.marginals)
                    for t in sampling))


def run_lmz(config: ScenarioConfig) -> LmzReport:
    """Single-experiment flow: Alice's friends record, Bob addresses lifted
    observables, every certification lives in one pipeline.

    Stages: prepared -> alice-complete -> bob-1 -> bob-2 -> bob-3. Record
    certifications for the three mixed constraints use the pipeline state
    right after the matching Bob premeasurement alone, since later Bob steps
    disturb the records the mixed products need.
    """
    if config.experiment_id is not None:
        raise ValueError("run_lmz needs a config without an experiment_id")
    plan = _plan()
    lmz = plan.lmz
    snapshots, stage1 = _alice_complete(plan)

    constraints = [_certify(stage1, product, "alice-complete", config.tolerance)
                   for product in lmz.operator]
    labels, pairwise, all_commute, triples, same_pair, cross = lmz.survey
    commutation = CommutationSurvey(
        dict(labels), dict(pairwise), all_commute, dict(triples), same_pair, cross)

    state = stage1
    for stage in lmz.bob:
        state = _advance(snapshots, stage, state)
    final = state

    # Record-level certification and sampling: constraint 1 from the full
    # pipeline's Bob records, constraint 2 from the pipeline right after
    # Bob's first step, constraints 3 and 4 from a side branch where only
    # the matching Bob premeasurement has run.
    sampling = []
    records = []
    for record in plan.records:
        cid = record.constraint_id
        if cid == 1:
            st, stage_label = final, "bob-3"
        elif cid == 2:
            st, stage_label = snapshots[2].state, "bob-1"
        else:
            st = premeasure(stage1, lmz.bob_pms[cid - 2])
            stage_label = f"bob-{cid - 1}-only"
        records.append(_certify_records(
            st, record, stage_label, f"constraint-{cid}-records", config, sampling))
    del st  # constraint 4's side branch, freed before cpl_check's branches
    constraints += records

    # Transported certificate: each product conjugated through Bob's three
    # premeasurements, certified on the final state.
    final_certificate = []
    for product in lmz.transported:
        val = expectation(final, product.observable)
        final_certificate.append(TransportedCertificate(
            product.constraint_id, product.observable.label(), product.expected, val,
            certified=abs(val - product.expected) <= config.tolerance))

    # Disturbed diagnostic: the mixed record product of constraint 2, which
    # its record certification read right after Bob's first premeasurement,
    # no longer holds on the final state.
    early = records[1]
    final_val = expectation(final, plan.records[1].observable)
    facts = snapshots[-1].facts  # bob-3 follows the last record step
    gap = abs(final_val - early.expectation)
    disturbed_diagnostic = DisturbedDiagnostic(
        early.labels, early.stage, early.expectation, final_val, gap,
        gap_exceeds_half=gap > MAX_TOLERANCE, record_statuses={
            f.label: f.status for f in facts if f.label in ("A2", "A3")})

    cpl = cpl_check(
        stage1, plan.alice_pms[0].observable, "A1", ALICE_MEMORY[0], lmz.bob_pms[0],
        shots=config.shots, master_seed=config.master_seed,
        tolerance=config.tolerance)

    _require_constraint_coverage(constraints, {1, 2, 3, 4})
    passed = (
        all(c.certified for c in constraints)
        and commutation.all_products_commute
        and all(commutation.triples_commute.values())
        and all(row.anticommute for row in commutation.same_pair_anticommute)
        and commutation.cross_pair_commute
        and all(entry.certified for entry in final_certificate)
        and disturbed_diagnostic.gap_exceeds_half
        and disturbed_diagnostic.record_statuses == {"A2": "disturbed", "A3": "disturbed"}
        and cpl.premise_certified
        and cpl.violation_demonstrated
        and abs(cpl.operator_product_after - 1.0) <= config.tolerance
        and _sampling_holds(constraints, sampling, config.shots))
    return LmzReport(
        config=config, snapshots=snapshots, constraints=constraints,
        sampling=sampling, passed=passed, commutation=commutation,
        final_certificate=final_certificate,
        disturbed_diagnostic=disturbed_diagnostic, cpl=cpl)


def run_cdr(config: ScenarioConfig) -> CdrReport:
    """Four-experiment flow, one experiment per constraint: Alice's friends
    record, the records not read by the constraint are unwound by the
    self-inverse premeasurement, and Bob then measures the freed system
    qubits directly.

    Experiment 1 reverses all three records (full restoration of the
    prepared register) and certifies the all-direct product +1. Experiment
    m in 2..4 reverses only pair m-1 and certifies the mixed product -1,
    with the two kept records coexisting untouched next to Bob's record.
    """
    if config.experiment_id is None:
        raise ValueError("run_cdr needs a config with an experiment_id in 1..4")
    plan = _plan()
    return _run_experiment(config, plan.experiments[config.experiment_id - 1],
                           *_alice_complete(plan))


def _run_experiment(config: ScenarioConfig, exp: _Experiment, opening: list,
                    state: StateVector) -> CdrReport:
    """run_cdr's experiment `exp`, continued from the snapshots and state
    _alice_complete returned; the `opening` list itself is left as it was."""
    snapshots = list(opening)
    prepared = snapshots[0].state
    state = _advance(snapshots, exp.reversed, state)

    if exp.memory is None:
        fid = fidelity(state, prepared)
        restoration = FullRestoration(fid, restored=fid >= 1.0 - config.tolerance)
    else:
        # Purity of the memory's reduced state from its Bloch vector.
        bloch = [expectation(state, obs) for obs in exp.bloch]
        purity = (1.0 + sum(b * b for b in bloch)) / 2.0
        excitation = state.probability_of_bit(exp.memory)
        restoration = MemoryRestoration(exp.memory, purity, excitation, restored=(
            purity >= 1.0 - config.tolerance and excitation <= config.tolerance))

    constraints = [_certify(state, exp.operator, exp.reversed.label, config.tolerance)]

    # Bob measures the freed system qubits directly (premeasurement onto his
    # own memories, the constraint's B records, so the records coexist and
    # can be read in any order).
    state = _advance(snapshots, exp.bob, state)
    sampling = []
    constraints.append(_certify_records(
        state, exp.record, exp.bob.label,
        f"experiment-{config.experiment_id}-records", config, sampling))

    _require_constraint_coverage(constraints, {config.experiment_id})
    passed = (
        all(c.certified for c in constraints)
        and restoration.restored
        and exp.coexisting.records_match_constraint
        and _sampling_holds(constraints, sampling, config.shots))
    return CdrReport(
        config=config, snapshots=snapshots, constraints=constraints,
        sampling=sampling, passed=passed, restoration=restoration,
        coexisting_records=exp.coexisting)


def run_cdr_suite(shots: int = 0, master_seed: int = 0,
                  tolerance: float = DEFAULT_TOLERANCE) -> list:
    """All four reversal experiments with shared seed and tolerance. The
    opening (the GHZ register and Alice's three records) is built once, and
    each experiment continues from a copy of its snapshot list: the four
    reports share its two snapshots, and each equals run_cdr's for the
    same config."""
    configs = [ScenarioConfig(
        experiment_id=exp, shots=shots, master_seed=master_seed,
        tolerance=tolerance) for exp in (1, 2, 3, 4)]
    plan = _plan()
    opening = _alice_complete(plan)
    return [_run_experiment(config, experiment, *opening)
            for config, experiment in zip(configs, plan.experiments)]


def _require_constraint_coverage(constraints: Sequence[ConstraintResult],
                                 ids: set) -> None:
    seen = {(c.constraint_id, c.kind) for c in constraints}
    want = {(i, k) for i in ids for k in CONSTRAINT_KINDS}
    if not want <= seen:
        missing = sorted(want - seen)
        raise InternalConsistencyError(
            f"report is missing constraint certifications: {missing}")
