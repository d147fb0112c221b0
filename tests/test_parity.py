"""GF(2) satisfiability: solver, enumeration, certificates, parsing."""
import dataclasses
import tracemalloc

import numpy as np
import pytest

from oracle import brute_force_count
from relfacts.errors import ConstraintParseError, ResourceError
from relfacts.parity import (
    PARSE_MAX_CONSTRAINTS,
    ConstraintSystem,
    ParityConstraint,
    _consistency,
    analyze,
    enumerate_assignments,
    ghz_record_system,
    parse_constraints,
    product_identity,
    satisfiable,
)
from relfacts.report import build_check_document


def system_of(*specs, universe=None):
    return ConstraintSystem.from_constraints(
        [ParityConstraint(vs, rhs) for vs, rhs in specs], universe)


def chain(n):
    """v0*v1 = 1, ..., v(n-2)*v(n-1) = 1: two solutions over n variables."""
    return parse_constraints(
        "".join(f"v{i}*v{i + 1} = 1\n" for i in range(n - 1)),
        tuple(f"v{i}" for i in range(n)))


class TestParityConstraint:
    def test_pair_cancellation(self):
        c = ParityConstraint(("x", "x", "y"), -1)
        assert c.variables == frozenset({"y"})

    def test_constructor_cancels_repeats(self):
        # The variables listed an even number of times square away, so
        # a*a = -1 is the contradiction 1 = -1.
        c = ParityConstraint(("a", "a"), -1)
        assert c == ParityConstraint(frozenset(), -1)
        assert str(c) == "1 = -1"
        analysis = analyze(ConstraintSystem.from_constraints([c]))
        assert analysis["solve"].satisfiable is False
        assert analysis["enumeration"].count == 0

    def test_cancelled_names_are_validated(self):
        with pytest.raises(ValueError):
            ParityConstraint(("2bad", "2bad"), 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            ParityConstraint(("x",), 0)
        with pytest.raises(ValueError):
            ParityConstraint(("2bad",), 1)

    def test_evaluate(self):
        c = ParityConstraint(("x", "y"), -1)
        assert c.evaluate({"x": 1, "y": -1})
        assert not c.evaluate({"x": 1, "y": 1})
        with pytest.raises(ValueError):
            c.evaluate({"x": 0, "y": 1})

    def test_str_canonical(self):
        c = ParityConstraint(("B1", "A3", "A2"), -1)
        assert str(c) == "A2*A3*B1 = -1"
        assert str(ParityConstraint(("x", "x"), 1)) == "1 = +1"


class TestConstraintSystem:
    def test_universe_inference_order(self):
        sys_ = system_of((("b", "a"), 1), (("c", "a"), -1))
        assert sys_.universe == ("a", "b", "c")

    def test_explicit_universe_checked(self):
        with pytest.raises(ValueError):
            system_of((("x", "q"), 1), universe=("x",))
        with pytest.raises(ValueError):
            ConstraintSystem((), ("x", "x"))

    def test_check(self):
        sys_ = system_of((("x", "y"), 1), (("y",), -1))
        assert sys_.check({"x": -1, "y": -1}) == [True, True]
        assert sys_.check({"x": 1, "y": -1}) == [False, True]


class TestSolver:
    def test_simple_satisfiable(self):
        sys_ = system_of((("x", "y"), -1), (("y", "z"), 1))
        result = satisfiable(sys_)
        assert result.satisfiable
        assert all(sys_.check(result.witness))
        assert result.rank == 2
        assert result.num_solutions == 2

    def test_free_variables_default_plus_one(self):
        sys_ = system_of((("x",), -1), universe=("x", "y", "z"))
        result = satisfiable(sys_)
        assert result.witness == {"x": -1, "y": 1, "z": 1}
        assert result.num_solutions == 4

    def test_direct_contradiction(self):
        sys_ = system_of((("x",), 1), (("x",), -1))
        result = satisfiable(sys_)
        assert not result.satisfiable
        assert result.certificate == (1, 2)
        assert result.num_solutions == 0
        assert product_identity(sys_, result.certificate).is_contradiction

    def test_redundant_rows_do_not_add_rank(self):
        sys_ = system_of((("x", "y"), 1), (("x", "y"), 1))
        result = satisfiable(sys_)
        assert result.satisfiable
        assert result.rank == 1
        assert result.num_solutions == 2

    def test_solve_guard(self):
        universe = tuple(f"v{i}" for i in range(65))
        sys_ = ConstraintSystem((), universe)
        with pytest.raises(ResourceError):
            satisfiable(sys_)

    def test_solves_exactly_the_guard_size(self):
        result = satisfiable(chain(64))
        assert result.satisfiable
        assert result.rank == 63
        assert result.num_solutions == 2

    def test_random_systems_500_cases_match_enumeration_and_brute_force(self):
        rng = np.random.default_rng(90125)
        for _ in range(500):
            n = int(rng.integers(1, 8))
            universe = tuple(f"v{i}" for i in range(n))
            m = int(rng.integers(1, 10))
            specs = []
            for _ in range(m):
                size = int(rng.integers(0, n + 1))
                vs = tuple(rng.choice(universe, size=size, replace=False))
                specs.append((vs, int(rng.choice([1, -1]))))
            sys_ = system_of(*specs, universe=universe)
            result = satisfiable(sys_)
            enum = enumerate_assignments(sys_)
            brute = brute_force_count(
                [(c.variables, c.rhs) for c in sys_.constraints], universe)
            assert enum.count == brute
            assert result.satisfiable == (brute > 0)
            if result.satisfiable:
                assert all(sys_.check(result.witness))
                assert result.num_solutions == brute
            else:
                assert product_identity(sys_, result.certificate).is_contradiction


def random_system(rng, n, m, planted):
    """m random constraints over v0..v(n-1); planted ones share a hidden
    solution, the others take random signs."""
    universe = tuple(f"v{i}" for i in range(n))
    hidden = rng.choice([1, -1], size=n)
    specs = []
    for _ in range(m):
        picks = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
        rhs = int(np.prod(hidden[picks])) if planted else int(rng.choice([1, -1]))
        specs.append((tuple(universe[j] for j in picks), rhs))
    return system_of(*specs, universe=universe)


def ascending_solutions(sys_):
    """Satisfying assignments in ascending index order, where bit j of the
    index sets universe[j] to -1."""
    n = sys_.num_variables
    assignments = (
        {v: -1 if (i >> j) & 1 else 1 for j, v in enumerate(sys_.universe)}
        for i in range(1 << n))
    return [a for a in assignments if all(sys_.check(a))]


# (n, m): every n from 0 to 12 with no constraints, a few, and 9-20 (a key
# wider than one byte), plus more than 64 constraints (two key words).
PROPERTY_CASES = sorted(
    {(n, 0) for n in range(13)}
    | {(n, 1 + n % 8) for n in range(13)}
    | {(n, 9 + (7 * n) % 12) for n in range(13)}
    | {(5, 65), (8, 70), (11, 130)})


class TestEnumeration:
    def test_guard(self):
        universe = tuple(f"v{i}" for i in range(21))
        sys_ = ConstraintSystem((), universe)
        with pytest.raises(ResourceError):
            enumerate_assignments(sys_)

    @pytest.mark.parametrize("planted", [False, True])
    @pytest.mark.parametrize("n,m", PROPERTY_CASES)
    def test_count_and_listing_match_brute_force(self, n, m, planted):
        # The count must equal the oracle's count and the length of this
        # file's own listing of the solutions.
        rng = np.random.default_rng([n, m, planted])
        sys_ = random_system(rng, n, m, planted)
        enum = enumerate_assignments(sys_)
        assert enum.count == brute_force_count(
            [(c.variables, c.rhs) for c in sys_.constraints], sys_.universe)
        assert enum.count == len(ascending_solutions(sys_))
        assert enum.tested == 1 << n
        if planted or m == 0:
            assert enum.count > 0

    def test_no_constraints_count_every_assignment(self):
        sys_ = ConstraintSystem((), tuple(f"v{i}" for i in range(20)))
        assert enumerate_assignments(sys_).count == 1 << 20

    # 64 and 128 constraints fill exactly one and exactly two key words.
    @pytest.mark.parametrize("n", [18, 19, 20])
    @pytest.mark.parametrize("m", [12, 20, 64, 70, 128])
    def test_large_planted_systems_match_solver(self, n, m):
        rng = np.random.default_rng([n, m])
        sys_ = random_system(rng, n, m, planted=True)
        contradictory = system_of(
            *[(c.variables, c.rhs) for c in sys_.constraints],
            (sys_.constraints[0].variables ^ sys_.constraints[1].variables,
             -sys_.constraints[0].rhs * sys_.constraints[1].rhs),
            universe=sys_.universe)
        counts = []
        for system in (sys_, contradictory):
            enum = enumerate_assignments(system)
            assert enum.count == satisfiable(system).num_solutions
            assert enum.tested == 1 << n
            counts.append(enum.count)
        assert counts[0] > 0 and counts[1] == 0

    # Up to a full key word (64 constraints) each key table is 8 kB; at
    # 1,000 constraints (16 words) the peak stays under a byte per
    # assignment.
    @pytest.mark.parametrize("m,bound", [(20, 1 << 17), (64, 1 << 17), (1000, 1 << 20)],
                             ids=["20", "64", "1000"])
    def test_twenty_variables_take_under_a_byte_per_assignment(self, m, bound):
        sys_ = random_system(np.random.default_rng(m), 20, m, planted=True)
        enumerate_assignments(sys_)
        tracemalloc.start()
        try:
            enumerate_assignments(sys_)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound


class TestRecordSystem:
    def test_shape(self):
        sys_ = ghz_record_system()
        assert sys_.universe == ("A1", "A2", "A3", "B1", "B2", "B3")
        assert [str(c) for c in sys_.constraints] == [
            "B1*B2*B3 = +1",
            "A2*A3*B1 = -1",
            "A1*A3*B2 = -1",
            "A1*A2*B3 = -1",
        ]
        # `check-assignments --builtin ghz` analyses this system.
        analysis = build_check_document("ghz", None)[0]
        assert analysis["system"] == {
            "constraints": [str(c) for c in sys_.constraints],
            "universe": list(sys_.universe)}

    def test_unsatisfiable_with_full_certificate(self):
        result = satisfiable(ghz_record_system())
        assert not result.satisfiable
        assert result.certificate == (1, 2, 3, 4)
        assert result.num_solutions == 0

    def test_enumeration_finds_nothing(self):
        sys_ = ghz_record_system()
        enum = enumerate_assignments(sys_)
        assert enum.tested == 64
        assert enum.count == 0
        brute = brute_force_count(
            [(c.variables, c.rhs) for c in sys_.constraints], sys_.universe)
        assert brute == 0

    def test_every_three_constraint_subsystem_has_eight_solutions(self):
        full = ghz_record_system()
        for drop in range(4):
            kept = [c for i, c in enumerate(full.constraints) if i != drop]
            sub = ConstraintSystem(tuple(kept), full.universe)
            result = satisfiable(sub)
            assert result.satisfiable
            assert result.num_solutions == 8
            assert enumerate_assignments(sub).count == 8
            assert brute_force_count(
                [(c.variables, c.rhs) for c in kept], full.universe) == 8
            assert all(sub.check(result.witness))

    def test_product_identity_contradiction(self):
        identity = product_identity(ghz_record_system())
        assert identity.residual_variables == ()
        assert identity.rhs == -1
        assert identity.is_contradiction

    def test_product_identity_subsets(self):
        sys_ = ghz_record_system()
        pair = product_identity(sys_, (1, 2))
        assert pair.residual_variables == ("A2", "A3", "B2", "B3")
        assert pair.rhs == -1
        assert not pair.is_contradiction
        with pytest.raises(ValueError):
            product_identity(sys_, (0,))
        with pytest.raises(ValueError):
            product_identity(sys_, (5,))


class TestParsing:
    def test_round_trip_with_comments(self):
        text = """
        # record products
        B1*B2*B3 = +1
        A2*A3*B1 = -1   # mixed
        A1*A3*B2 = -1
        A1*A2*B3 = 1
        """
        sys_ = parse_constraints(text)
        assert len(sys_.constraints) == 4
        assert str(sys_.constraints[0]) == "B1*B2*B3 = +1"
        assert sys_.constraints[3].rhs == 1

    def test_repeats_cancel(self):
        sys_ = parse_constraints("x*x*y = -1")
        assert sys_.constraints[0].variables == frozenset({"y"})

    def test_one_is_the_empty_product(self):
        # What ParityConstraint prints for a fully cancelled product.
        sys_ = parse_constraints("1 = -1\nx*1 = 1\n")
        assert sys_.constraints == (
            ParityConstraint(frozenset(), -1), ParityConstraint(frozenset({"x"}), 1))
        assert [str(c) for c in sys_.constraints] == ["1 = -1", "x = +1"]

    @pytest.mark.parametrize("text,bad_line", [
        ("x = 1\nx*y\n", 2),
        ("x = 1\n\nx = y = 1\n", 3),
        ("x = 2\n", 1),
        ("x*3bad = 1\n", 1),
        (" = 1\n", 1),
        ("x = 1\na-b*a-b = 1\n", 2),
    ])
    def test_errors_carry_line_numbers(self, text, bad_line):
        with pytest.raises(ConstraintParseError) as info:
            parse_constraints(text)
        assert info.value.line_number == bad_line
        assert f"line {bad_line}:" in str(info.value)

    def test_explicit_universe(self):
        sys_ = parse_constraints("x*y = 1\n", universe=("x", "y", "z"))
        assert sys_.universe == ("x", "y", "z")
        with pytest.raises(ValueError):
            parse_constraints("x*q = 1\n", universe=("x",))


def replaced(analysis, key, **changes):
    """The analysis with the fields `changes` of its result object `key`
    replaced."""
    return {**analysis, key: dataclasses.replace(analysis[key], **changes)}


class TestAnalyze:
    def test_record_system_report(self):
        doc = analyze(ghz_record_system())
        assert doc["solve"].satisfiable is False
        assert doc["solve"].certificate == (1, 2, 3, 4)
        assert doc["enumeration"].count == 0
        assert doc["enumeration"].tested == 64
        assert doc["product_identity"].is_contradiction is True
        assert doc["consistency"]["certificate_verified"] is True
        assert doc["consistency"]["constraints_parse_back"] is True
        assert doc["consistent"] is True

    def test_cancelled_constraint_prints_a_text_that_parses_back(self):
        doc = analyze(parse_constraints("x*x = -1\n"))
        assert doc["system"]["constraints"] == ["1 = -1"]
        assert doc["solve"].certificate == (1,)
        assert doc["consistency"]["constraints_parse_back"] is True
        assert doc["consistent"] is True

    def test_satisfiable_report(self):
        doc = analyze(system_of((("x", "y"), -1)))
        assert doc["solve"].satisfiable is True
        assert doc["consistency"]["witness_verified"] is True
        assert doc["consistency"]["solver_enumeration_agree"] is True
        assert doc["consistent"] is True

    def test_twenty_variables_are_enumerated(self):
        doc = analyze(chain(20))
        assert doc["enumeration"].count == 2
        assert doc["enumeration"].tested == 1 << 20
        assert doc["consistency"]["solver_enumeration_agree"] is True
        assert doc["consistent"] is True

    @pytest.mark.parametrize("n", [21, 64])
    def test_larger_systems_are_solved_without_enumeration(self, n):
        doc = analyze(chain(n))
        assert doc["enumeration"] is None
        assert doc["solve"].num_solutions == 2
        assert doc["consistency"]["solver_enumeration_agree"] is None
        assert doc["consistent"] is True


class TestConsistency:
    """Each cross-check fails on an analysis whose result objects disagree
    with the system or with each other."""

    SAT = system_of((("a", "b"), -1), (("b", "c"), 1))

    @pytest.mark.parametrize("witness", [
        None,
        {"a": 1, "b": 1, "c": 1},       # violates a*b = -1
        {"a": 1, "b": -1},              # no value for c
        {"a": 0, "b": -1, "c": -1},     # 0 is not +/-1
    ])
    def test_bad_witness(self, witness):
        analysis = replaced(analyze(self.SAT), "solve", witness=witness)
        assert _consistency(self.SAT, analysis)["witness_verified"] is False

    @pytest.mark.parametrize("certificate", [
        None, (), (1, 2, 3),
        (1, 2, 3, 5),           # no constraint 5
        (0, 1, 2, 3, 4),        # no constraint 0
        (1, 2, 3, 4, 4, 4),     # multiplies to 1 = -1, but not a subset
    ])
    def test_bad_certificate(self, certificate):
        sys_ = ghz_record_system()
        analysis = replaced(analyze(sys_), "solve", certificate=certificate)
        assert _consistency(sys_, analysis)["certificate_verified"] is False

    @pytest.mark.parametrize("system, count", [
        (SAT, 0),                        # satisfiable, none counted
        (SAT, 4),                        # the solver counts 2
        (ghz_record_system(), 1),        # unsatisfiable, one counted
    ])
    def test_count_that_disagrees_with_the_solver(self, system, count):
        analysis = replaced(analyze(system), "enumeration", count=count)
        assert _consistency(system, analysis)["solver_enumeration_agree"] is False

    def test_missing_enumeration_of_twenty_variables(self):
        sys_ = chain(20)
        analysis = {**analyze(sys_), "enumeration": None}
        assert _consistency(sys_, analysis)["solver_enumeration_agree"] is False

    def test_misread_product_identity(self):
        sys_ = ghz_record_system()
        analysis = replaced(analyze(sys_), "product_identity", is_contradiction=False)
        assert _consistency(sys_, analysis)["product_identity_verified"] is False

    def test_contradiction_in_a_satisfiable_system(self):
        sys_ = ghz_record_system()
        analysis = replaced(analyze(sys_), "solve", satisfiable=True)
        assert _consistency(sys_, analysis)["product_identity_verified"] is False

    @pytest.mark.parametrize("printed", [
        ["a*b = -1", "b*c = +1", "c = +1"],       # one entry too many
        ["a*b = -1"],                             # one too few
        ["a*b = -1\nb*c = +1", ""],                # two in one, none in the next
        ["a*b = -1", "# b*c = +1"],               # a comment, no constraint
        ["a*b = -1", "b\n= +1"],                  # one constraint over two lines
        ["a*b = -1", "b*c = -1"],                 # another sign
        ["a*b = -1", "b*d = +1"],                 # a name outside the universe
        ["a*b = -1", "b*c = 2"],                  # unparsable
    ])
    def test_printed_constraints_that_do_not_parse_back(self, printed):
        # Each printed entry must be exactly one constraint, equal to its own.
        analysis = analyze(self.SAT)
        analysis["system"] = {**analysis["system"], "constraints": printed}
        assert _consistency(self.SAT, analysis)["constraints_parse_back"] is False

    def test_checks_at_the_constraint_limit_stay_under_1_mb(self):
        # Printed constraints parse back one line at a time: no second
        # system of 10,000 constraints (about 5.5 MB) is built beside the first.
        rng = np.random.default_rng(13)
        universe = [f"v{j}" for j in range(20)]
        system = ConstraintSystem.from_constraints(
            (ParityConstraint(list(rng.choice(universe, 3, replace=False)),
                              int(rng.choice([1, -1])))
             for _ in range(PARSE_MAX_CONSTRAINTS)), universe)
        analysis = analyze(system)
        tracemalloc.start()
        try:
            consistency = _consistency(system, analysis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(flag is not False for flag in consistency.values())
        assert consistency["constraints_parse_back"] is True
        assert peak < 1 << 20
