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
from typing import Optional, Sequence

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
    val = expectation(state, product_of(observables))
    return ConstraintResult(
        constraint_id=constraint_id, kind=kind, labels=labels, stage=stage,
        expected=expected, expectation=val, tolerance=tolerance,
        shots=0, violations=0, certified=abs(val - expected) <= tolerance)


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
                        ahats: Sequence[PauliString]) -> CommutationSurvey:
    """The commutation survey of the four products `specs`, over Bob's
    direct observables `bhats` and Alice's record readouts `ahats`."""
    products = [product_of(spec.observables) for spec in specs]
    pairwise = {f"{i},{j}": commutes(pi, pj)
                for (i, pi), (j, pj) in combinations(enumerate(products, 1), 2)}
    return CommutationSurvey(
        product_labels={str(i): p.label() for i, p in enumerate(products, 1)},
        product_pairwise_commute=pairwise,
        all_products_commute=all(pairwise.values()),
        triples_commute={
            str(spec.constraint_id): all(
                commutes(a, b) for a, b in combinations(spec.observables, 2))
            for spec in specs},
        same_pair_anticommute=tuple(
            SamePairAnticommute(k + 1, not commutes(bhats[k], ahats[k]))
            for k in range(3)),
        cross_pair_commute=all(commutes(bhats[k], ahats[j])
                               for k in range(3) for j in range(3) if j != k))


# -- scenario flows ----------------------------------------------------------


class _Flow:
    """One flow run's bookkeeping beside its state: the stage snapshots and
    the record steps applied so far. Each snapshot's ledger is derived from
    the steps (observers.ledger)."""

    def __init__(self, start: Optional["_Flow"] = None):
        """A new flow, or one that continues from `start`: copies of its
        snapshot list and step list, sharing the snapshots."""
        self.snapshots = list(start.snapshots) if start else []
        self.steps = list(start.steps) if start else []  # (label, pm, stage) applied

    def record(self, state: StateVector, pm: Premeasurement, label: str,
               stage: Optional[str] = None) -> StateVector:
        """One record unitary. With a stage: premeasure `pm`, writing the
        record `label`. Without one: reverse `pm`, erasing `label`."""
        self.steps.append((label, pm, stage))
        return reverse(state, pm) if stage is None else premeasure(state, pm)

    def snapshot(self, label: str, state: StateVector) -> None:
        self.snapshots.append(StageSnapshot(
            len(self.snapshots), label, state, ledger(self.steps)))


def _alice_complete() -> tuple:
    """The opening both flows share: prepare the shared state, then let
    Alice's friends premeasure it. Returns the flow so far, with the stages
    "prepared" and "alice-complete", the stage-1 state and Alice's
    premeasurements."""
    flow = _Flow()
    state = prepare_ghz(zero_state(NUM_QUBITS), SYSTEM_QUBITS)
    flow.snapshot("prepared", state)
    alice_pms = alice_premeasurements()
    for k, pm in enumerate(alice_pms):
        state = flow.record(state, pm, f"A{k + 1}", stage="alice-complete")
    flow.snapshot("alice-complete", state)
    return flow, state, alice_pms


def _certify_records(state: StateVector, constraint_id: int, stage: str,
                     target: str, config: ScenarioConfig, sampling: list) -> ConstraintResult:
    """Certify constraint `constraint_id` on the memory records of `state`.

    The (label, qubit) records are record_slots(constraint_id), and the
    expected sign comes from CONSTRAINT_SIGNS. The product of their Z
    readouts (constraint_readouts) is certified exactly; when config.shots > 0
    the readouts are also sampled on STREAM_SAMPLE (scope = constraint id),
    the tally is appended to `sampling`, and the returned certification
    carries the shot evidence.
    """
    expected = CONSTRAINT_SIGNS[constraint_id - 1]
    records = record_slots(constraint_id)
    result = certify_constraint(
        state, constraint_readouts(constraint_id), expected,
        labels=tuple(label for label, _ in records),
        constraint_id=constraint_id, kind="record", stage=stage,
        tolerance=config.tolerance)
    if config.shots == 0:
        return result
    tally = sample_records(
        state, target=target, constraint_id=constraint_id, stage=stage,
        records=records, expected_product=expected, shots=config.shots,
        master_seed=config.master_seed, target_index=constraint_id)
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
    flow, stage1, alice_pms = _alice_complete()

    bhats = lifted_direct_observables(alice_pms)
    ahats = record_readout_observables()
    specs = constraint_table(bhats, ahats)

    constraints = []
    for spec in specs:
        constraints.append(certify_constraint(
            stage1, spec.observables, spec.expected,
            labels=spec.labels, constraint_id=spec.constraint_id,
            kind="operator", stage="alice-complete",
            tolerance=config.tolerance))
    commutation = _commutation_survey(specs, bhats, ahats)

    bob_pms = tuple(
        Premeasurement(bhats[k], BOB_MEMORY[k], "bob") for k in range(3))
    state = stage1
    for k, pm in enumerate(bob_pms):
        state = flow.record(state, pm, f"B{k + 1}", stage=f"bob-{k + 1}")
        flow.snapshot(f"bob-{k + 1}", state)
    final = state

    # Record-level certification and sampling: constraint 1 from the full
    # pipeline's Bob records, constraint 2 from the pipeline right after
    # Bob's first step, constraints 3 and 4 from a side branch where only
    # the matching Bob premeasurement has run.
    sampling = []
    records = []
    for spec in specs:
        cid = spec.constraint_id
        if cid == 1:
            st, stage_label = final, "bob-3"
        elif cid == 2:
            st, stage_label = flow.snapshots[2].state, "bob-1"
        else:
            st = premeasure(stage1, bob_pms[cid - 2])
            stage_label = f"bob-{cid - 1}-only"
        records.append(_certify_records(
            st, cid, stage_label, f"constraint-{cid}-records", config, sampling))
    del st  # constraint 4's side branch, freed before cpl_check's branches
    constraints += records

    # Transported certificate: conjugate each product through Bob's three
    # premeasurements and certify it on the final state.
    final_certificate = []
    for spec in specs:
        carried = product_of(spec.observables)
        for pm in bob_pms:
            carried = lift(carried, pm)
        val = expectation(final, carried)
        final_certificate.append(TransportedCertificate(
            spec.constraint_id, carried.label(), spec.expected, val,
            certified=abs(val - spec.expected) <= config.tolerance))

    # Disturbed diagnostic: the mixed record product of constraint 2, which
    # its record certification read right after Bob's first premeasurement,
    # no longer holds on the final state.
    early = records[1]
    final_val = expectation(final, product_of(constraint_readouts(early.constraint_id)))
    facts = flow.snapshots[-1].facts  # bob-3 follows the last record step
    gap = abs(final_val - early.expectation)
    disturbed_diagnostic = DisturbedDiagnostic(
        early.labels, early.stage, early.expectation, final_val, gap,
        gap_exceeds_half=gap > MAX_TOLERANCE, record_statuses={
            f.label: f.status for f in facts if f.label in ("A2", "A3")})

    cpl = cpl_check(
        stage1, alice_pms[0].observable, "A1", ALICE_MEMORY[0], bob_pms[0],
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
        config=config, snapshots=flow.snapshots, constraints=constraints,
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
    return _run_experiment(config, *_alice_complete())


def _run_experiment(config: ScenarioConfig, opening: _Flow, state: StateVector,
                    alice_pms: tuple) -> CdrReport:
    """run_cdr's experiment, continued from what _alice_complete returned;
    the `opening` flow itself is left as it was."""
    flow = _Flow(opening)
    exp = config.experiment_id
    prepared = flow.snapshots[0].state

    pattern = CONSTRAINT_PATTERNS[exp - 1]
    reversed_pairs = tuple(k for k, slot in enumerate(pattern) if slot == "B")
    for k in sorted(reversed_pairs, reverse=True):
        state = flow.record(state, alice_pms[k], f"A{k + 1}")
    stage_label = "reversed-all" if exp == 1 else f"reversed-pair-{reversed_pairs[0] + 1}"
    flow.snapshot(stage_label, state)

    if exp == 1:
        fid = fidelity(state, prepared)
        restoration = FullRestoration(fid, restored=fid >= 1.0 - config.tolerance)
    else:
        mem = ALICE_MEMORY[reversed_pairs[0]]
        # Purity of the memory's reduced state from its Bloch vector.
        bloch = [expectation(state, PauliString.single(NUM_QUBITS, mem, f))
                 for f in "XYZ"]
        purity = (1.0 + sum(b * b for b in bloch)) / 2.0
        excitation = state.probability_of_bit(mem)
        restoration = MemoryRestoration(mem, purity, excitation, restored=(
            purity >= 1.0 - config.tolerance and excitation <= config.tolerance))

    # Operator certification on the reversed state: direct X for freed
    # pairs, record Z for kept ones.
    spec = constraint_table(
        tuple(PauliString.single(NUM_QUBITS, q, "X") for q in SYSTEM_QUBITS),
        record_readout_observables())[exp - 1]
    constraints = [certify_constraint(
        state, spec.observables, spec.expected, labels=spec.labels,
        constraint_id=exp, kind="operator", stage=stage_label,
        tolerance=config.tolerance)]

    # Bob measures the freed system qubits directly (premeasurement onto his
    # own memories, the constraint's B records, so the records coexist and
    # can be read in any order).
    for k, (slot, (label, memory)) in enumerate(zip(pattern, record_slots(exp))):
        if slot == "B":
            pm = Premeasurement(
                PauliString.single(NUM_QUBITS, SYSTEM_QUBITS[k], "X"),
                memory=memory, owner="bob")
            state = flow.record(state, pm, label, stage="bob-direct")
    flow.snapshot("bob-direct", state)

    sampling = []
    constraints.append(_certify_records(
        state, exp, "bob-direct", f"experiment-{exp}-records", config, sampling))

    facts = flow.snapshots[-1].facts  # bob-direct follows the last record step
    current = tuple(f.label for f in facts if f.status == "current")
    coexisting_records = CoexistingRecords(
        current, spec.labels, sorted(current) == sorted(spec.labels))

    _require_constraint_coverage(constraints, {exp})
    passed = (
        all(c.certified for c in constraints)
        and restoration.restored
        and coexisting_records.records_match_constraint
        and _sampling_holds(constraints, sampling, config.shots))
    return CdrReport(
        config=config, snapshots=flow.snapshots, constraints=constraints,
        sampling=sampling, passed=passed, restoration=restoration,
        coexisting_records=coexisting_records)


def run_cdr_suite(shots: int = 0, master_seed: int = 0,
                  tolerance: float = DEFAULT_TOLERANCE) -> list:
    """All four reversal experiments with shared seed and tolerance. The
    opening (the GHZ register and Alice's three records) is built once, and
    each experiment continues from copies of its snapshot and step lists:
    the four reports share its two snapshots, and each equals
    run_cdr's for the same config."""
    configs = [ScenarioConfig(
        experiment_id=exp, shots=shots, master_seed=master_seed,
        tolerance=tolerance) for exp in (1, 2, 3, 4)]
    opening = _alice_complete()
    return [_run_experiment(config, *opening) for config in configs]


def _require_constraint_coverage(constraints: Sequence[ConstraintResult],
                                 ids: set) -> None:
    seen = {(c.constraint_id, c.kind) for c in constraints}
    want = {(i, k) for i in ids for k in CONSTRAINT_KINDS}
    if not want <= seen:
        missing = sorted(want - seen)
        raise InternalConsistencyError(
            f"report is missing constraint certifications: {missing}")
