"""Report serialization: the writer's canonical rules, dataclasses by
field, stage summaries by weight, JSON bytes equal to the standard
library's, and text that prints floats as the JSON rounds them."""
import json
import re
import shlex
from dataclasses import dataclass, fields, is_dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relfacts import report
from relfacts.cli import build_parser
from relfacts.observers import StageSnapshot
from relfacts.report import (
    SCHEMA_VERSION,
    ReportDocument,
    _json_text,
    _stage_summary,
    build_check_document,
    build_run_document,
    render_text,
    round_float,
)
from relfacts.scenarios import ConstraintResult
from relfacts.statevector import StateVector


def canonicalize(value):
    """Reference for the writer: the canonical tree of `value`, which
    json.dumps(tree, sort_keys=True, indent=2) must write as the writer
    does. Exact types and dataclasses by field; any other type raises
    TypeError."""
    kind = type(value)
    if kind is float:
        return round_float(value)
    if kind is str or kind is int or kind is bool or value is None:
        return value
    if kind is dict:
        return {k: canonicalize(v) for k, v in value.items()}
    if kind is list or kind is tuple:
        return [canonicalize(v) for v in value]
    if is_dataclass(kind):
        return {f.name: canonicalize(getattr(value, f.name)) for f in fields(kind)}
    raise TypeError(f"cannot canonicalize {kind.__name__}")


def written(value):
    """What the writer's JSON of `value` reads back as."""
    return json.loads(_json_text(value, "\n"))


@dataclass
class Point:
    name: str
    coords: tuple
    weight: float


@dataclass
class Segment:
    start: Point
    end: object


class Grams(float):
    """A float subclass: not an exact float, so the writer rejects it."""


def test_canonicalize_dataclass_by_field():
    assert written([Point("p", (1, 2.0), 1 / 3)]) == [
        {"name": "p", "coords": [1, 2.0], "weight": 0.333333333333}]
    segment = Segment(Point("a", (), 0.5), Point("b", (3,), -1.0))
    assert written({"s": segment}) == {"s": {
        "start": {"name": "a", "coords": [], "weight": 0.5},
        "end": {"name": "b", "coords": [3], "weight": -1.0}}}


@pytest.mark.parametrize("value, expected", [
    (1 / 3, 0.333333333333),
    (-7, -7),
    (True, True),
    (1, 1),
    ((1, (2.5, "x")), [1, [2.5, "x"]]),
    (-0.0, -0.0),
    ({"1": None, "k": 2 / 3}, {"1": None, "k": 0.666666666667}),
])
def test_canonicalize_keeps_types_and_values(value, expected):
    result = written(value)
    assert result == expected
    assert json.dumps(result) == json.dumps(expected)  # bool stays bool, int stays int


@pytest.mark.parametrize("value", [
    {1, 2}, object(), Point, np.array([1.0]),
    # Numbers that are not exact Python types: ScenarioConfig converts
    # outside numbers before they reach a report, and the writer has no
    # fallback for them.
    pytest.param(np.float64(0.5), id="float64"),
    pytest.param(np.float32(0.1), id="float32"),
    pytest.param(np.int64(-7), id="int64"),
    pytest.param(np.bool_(True), id="bool_"),
    pytest.param(complex(1 / 3, -2), id="complex"),
    pytest.param(Grams(1 / 3), id="float-subclass"),
    pytest.param({1: None, "k": 2 / 3}, id="int-key"),
])
def test_canonicalize_rejects_other_types(value):
    with pytest.raises(TypeError):
        _json_text(value, "\n")
    with pytest.raises(TypeError):
        ReportDocument(command="cmd", config={}, results={"v": [value]},
                       verdict="PASS").to_json()


SCALARS = (
    st.none() | st.booleans() | st.floats()
    | st.integers() | st.integers(-10**40, 10**40)
    | st.text() | st.text(alphabet=st.characters(max_codepoint=0x1f))
    | st.sampled_from(["", "é", "\u2028", "\U0001f600", '"\\/', -0.0, 2**100])
    | st.builds(Point, st.text(max_size=3), st.tuples(st.integers(), st.floats()),
                st.floats()))
TREES = st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=4) | st.tuples(children, children)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=30)


@given(TREES, st.dictionaries(st.text(max_size=3), TREES, max_size=3))
@settings(max_examples=300, deadline=None)
def test_to_json_matches_stdlib(results, config):
    doc = ReportDocument(command="cmd", config=config, results={"tree": results},
                         verdict="PASS")
    tree = dict(canonicalize(doc), timing={}, schema_version=SCHEMA_VERSION)
    assert doc.to_json() == json.dumps(tree, sort_keys=True, indent=2) + "\n"


def test_stage_summary_orders_by_weight_then_index():
    # Repeated magnitudes with varied phases, so ties are common; the
    # reference is the plain sort on (-weight, index).
    rng = np.random.default_rng(5)
    mags = rng.choice([0.0, 1.0, 2.0, 3.0], size=64)
    amps = mags * np.exp(1j * rng.choice([0.0, np.pi / 2, np.pi], size=64))
    state = StateVector(6, amps / np.linalg.norm(amps))
    weights = np.abs(state.amplitudes) ** 2
    expected = sorted(range(64), key=lambda i: (-weights[i], i))
    summary = _stage_summary(StageSnapshot(0, "s", state, ()), limit=64)
    indices = [i for i, _ in summary["leading_amplitudes"]]
    assert indices == [i for i in expected if weights[i] > 1e-18]


def test_stage_summary_cuts_amplitudes_at_1e_9():
    # An amplitude of exactly 1e-9 is below the cut and is not listed.
    state = StateVector(1, np.array([1.0, 1e-9], dtype=complex))
    summary = _stage_summary(StageSnapshot(0, "s", state, ()))
    assert [i for i, _ in summary["leading_amplitudes"]] == [0]


def test_cdr_suite_summarizes_each_shared_stage_once(monkeypatch):
    # Four experiments of four stages each share the opening's two
    # snapshots: 2 + 4 * 2 distinct stages.
    calls = []
    original = report._stage_summary

    def counted(snap, before=()):
        calls.append(snap)
        return original(snap, before)

    monkeypatch.setattr(report, "_stage_summary", counted)
    doc = build_run_document("cdr", "all", 0, 0, 1e-9)[1]
    assert len(calls) == 10
    assert len({id(snap) for snap in calls}) == 10
    experiments = doc.results["experiments"]
    for body in experiments[1:]:
        assert body["stages"][:2] == experiments[0]["stages"][:2]
        assert body["stages"][2:] != experiments[0]["stages"][2:]


@pytest.mark.parametrize("shots", [0, 200])
@pytest.mark.parametrize("scenario, experiment", [("lmz", None), ("cdr", "all")])
def test_changed_facts_replay_to_the_final_ledger(scenario, experiment, shots):
    doc = build_run_document(scenario, experiment, shots, 0, 1e-9)[1]
    results = json.loads(doc.to_json())["results"]
    for body in results.get("experiments", [results]):
        ledger = {}
        for stage in body["stages"]:
            for fact in stage["changed_facts"]:
                assert ledger.get(fact["label"]) != fact, stage["label"]
                ledger[fact["label"]] = fact
        assert list(ledger.values()) == body["ledger"]


def test_text_prints_each_float_as_the_json_rounds_it():
    # Printed directly with +.10g this float reads +0.123456789; rounded
    # to 12 digits first it is 0.12345678905 and reads +0.1234567891.
    value = 0.1234567890499999
    assert f"{value:+.10g}" == "+0.123456789"
    certification = ConstraintResult(
        constraint_id=1, kind="operator", labels=("B1",), stage="s", expected=1,
        expectation=value, tolerance=1e-9, shots=0, violations=0, certified=False)
    doc = ReportDocument(command="cmd", config={"tolerance": value},
                         results={"constraints": [certification]},
                         verdict="FAIL")
    lines = render_text(doc).splitlines()
    assert "config: tolerance=+0.1234567891" in lines
    assert lines[7].split() == [
        "1", "operator", "B1", "s", "+1", "+0.1234567891", "0", "0", "no"]
    assert json.loads(doc.to_json())["results"]["constraints"][0]["expectation"] == (
        0.12345678905)


@pytest.mark.parametrize("tolerance", [1e-9, 1.0000001e-9, 0.49, 1e-6])
@pytest.mark.parametrize("scenario, experiment", [
    ("lmz", None), ("cdr", "2"), ("cdr", "all")])
def test_run_echo_parses_back_to_its_flags(scenario, experiment, tolerance):
    # `{:g}` would echo 1.0000001e-9 as 1e-09, a different run.
    doc = build_run_document(scenario, experiment, 3, 5, tolerance)[1]
    args = build_parser().parse_args(shlex.split(doc.command))
    assert (args.command, args.scenario, args.experiment, args.shots, args.seed,
            args.tolerance) == ("run", scenario, experiment, 3, 5, tolerance)
    assert doc.config["tolerance"] == tolerance


@pytest.mark.parametrize("scenario, experiment", [
    ("lmz", None), ("cdr", "2"), ("cdr", "all")])
def test_numpy_flags_write_the_plain_flags_report(scenario, experiment):
    plain = build_run_document(scenario, experiment, 1000, 7, 1e-9)[1]
    doc = build_run_document(
        scenario, experiment, np.int64(1000), np.uint64(7), np.float64(1e-9))[1]
    assert doc.to_json() == plain.to_json()
    assert render_text(doc) == render_text(plain)
    args = build_parser().parse_args(shlex.split(doc.command))
    assert (args.command, args.scenario, args.experiment, args.shots, args.seed,
            args.tolerance) == ("run", scenario, experiment, 1000, 7, 1e-9)


@pytest.mark.parametrize("flags, message", [
    (("lmz", "2"), "--experiment applies only to the cdr scenario"),
    (("lmz", "all"), "--experiment applies only to the cdr scenario"),
    (("cdr", None), "the cdr scenario needs --experiment {1,2,3,4,all}"),
    (("ghz", None), "unknown scenario 'ghz'"),
])
def test_run_builder_rejects_flag_combinations(flags, message):
    with pytest.raises(ValueError) as info:
        build_run_document(*flags, 0, 0, 1e-9)
    assert str(info.value) == message


@pytest.mark.parametrize("builtin, constraints, message", [
    (None, None, "give exactly one of --constraints PATH or --builtin NAME"),
    ("ghz", "system.txt", "give exactly one of --constraints PATH or --builtin NAME"),
    ("lmz", None, "unknown builtin system 'lmz'"),
])
def test_check_builder_rejects_flag_combinations(builtin, constraints, message):
    with pytest.raises(ValueError) as info:
        build_check_document(builtin, constraints)
    assert str(info.value) == message


def test_check_builder_reads_a_constraint_file(tmp_path):
    path = tmp_path / "system.txt"
    with pytest.raises(ValueError, match=f"^cannot read {re.escape(str(path))}: "):
        build_check_document(None, path)
    path.write_text("x1*x2 = -1\n")
    analysis, doc = build_check_document(None, str(path))
    assert doc.command == f"check-assignments --constraints {path}"
    assert doc.config == {"constraints_path": str(path)}
    assert analysis["system"]["constraints"] == ["x1*x2 = -1"]
    assert doc.verdict == "PASS"


@pytest.mark.parametrize("name", ["sys tem.txt", "it's.txt", "system.txt"])
def test_check_echo_parses_back_to_its_path(tmp_path, name):
    path = tmp_path / name
    path.write_text("x1*x2 = -1\n")
    doc = build_check_document(None, path)[1]
    args = build_parser().parse_args(shlex.split(doc.command))
    assert (args.command, args.builtin, args.constraints) == (
        "check-assignments", None, path)
    assert doc.config == {"constraints_path": str(path)}
