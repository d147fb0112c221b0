"""Report serialization: dataclasses by field, stage summaries by weight,
and JSON bytes equal to the standard library's."""
import json
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relfacts.observers import StageSnapshot
from relfacts.report import (
    ReportDocument,
    _stage_summary,
    build_run_document,
    canonicalize,
)
from relfacts.statevector import StateVector


@dataclass
class Point:
    name: str
    coords: tuple
    weight: np.float64


@dataclass
class Segment:
    start: Point
    end: object


def test_canonicalize_dataclass_by_field():
    assert canonicalize([Point("p", (1, 2.0), np.float64(1 / 3))]) == [
        {"name": "p", "coords": [1, 2.0], "weight": 0.333333333333}]
    segment = Segment(Point("a", (), np.float64(0.5)), Point("b", (3,), np.float64(-1)))
    assert canonicalize({"s": segment}) == {"s": {
        "start": {"name": "a", "coords": [], "weight": 0.5},
        "end": {"name": "b", "coords": [3], "weight": -1.0}}}


@pytest.mark.parametrize("value, expected", [
    (np.float32(0.1), 0.10000000149),
    (np.int64(-7), -7),
    (True, True),
    (1, 1),
    ((1, (2.5, "x")), [1, [2.5, "x"]]),
    (complex(1 / 3, -2), [0.333333333333, -2.0]),
    ({1: None, "k": 2 / 3}, {"1": None, "k": 0.666666666667}),
])
def test_canonicalize_keeps_types_and_values(value, expected):
    result = canonicalize(value)
    assert result == expected
    assert json.dumps(result) == json.dumps(expected)  # bool stays bool, int stays int


@pytest.mark.parametrize("value", [{1, 2}, object(), Point, np.array([1.0])])
def test_canonicalize_rejects_other_types(value):
    with pytest.raises(TypeError):
        canonicalize(value)


SCALARS = (
    st.none() | st.booleans() | st.floats()
    | st.integers() | st.integers(-10**40, 10**40)
    | st.text() | st.text(alphabet=st.characters(max_codepoint=0x1f))
    | st.sampled_from(["", "é", "\u2028", "\U0001f600", '"\\/', -0.0, 2**100]))
TREES = st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=4) | st.tuples(children, children)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=30)


@given(TREES, st.dictionaries(st.text(max_size=3), TREES, max_size=3))
@settings(max_examples=300, deadline=None)
def test_to_json_matches_stdlib(results, config):
    doc = ReportDocument(command="cmd", config=config, results={"tree": results},
                         verdict="PASS", timing={})
    assert doc.to_json() == json.dumps(doc.as_dict(), sort_keys=True, indent=2) + "\n"


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


@pytest.mark.parametrize("shots", [0, 200])
@pytest.mark.parametrize("scenario, experiment", [("lmz", None), ("cdr", "all")])
def test_changed_facts_replay_to_the_final_ledger(scenario, experiment, shots):
    results = build_run_document(scenario, experiment, shots, 0, 1e-9).as_dict()["results"]
    for body in results.get("experiments", [results]):
        ledger = {}
        for stage in body["stages"]:
            for fact in stage["changed_facts"]:
                assert ledger.get(fact["label"]) != fact, stage["label"]
                ledger[fact["label"]] = fact
        assert list(ledger.values()) == body["ledger"]
