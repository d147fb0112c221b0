"""Report serialization: dataclasses by field, stage summaries by weight."""
from dataclasses import dataclass

import numpy as np

from relfacts.observers import StageSnapshot
from relfacts.report import _stage_summary, canonicalize
from relfacts.statevector import StateVector


@dataclass
class Point:
    name: str
    coords: tuple
    weight: np.float64


def test_canonicalize_dataclass_by_field():
    assert canonicalize([Point("p", (1, 2.0), np.float64(1 / 3))]) == [
        {"name": "p", "coords": [1, 2.0], "weight": 0.333333333333}]


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
