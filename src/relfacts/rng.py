"""Deterministic random-stream derivation.

Every random draw in the package comes from a generator derived as
child_generator(master_seed, *path), where the path is a tuple of small
integers naming the consumer: (stream, ...) with the stream constants below.
Identical (master_seed, path) always yields an identical stream, and
distinct paths yield statistically independent streams, so adding or
removing draws in one consumer can never shift the values seen by another.
"""
from __future__ import annotations

import numpy as np

# Stream ids (first path component). The ids are part of every seeded
# count, so they are never renumbered; id 1 is retired and stays unused.
STREAM_SAMPLE = 2    # record-sampling shots:          (STREAM_SAMPLE, target_index)
STREAM_CPL = 3       # two-time agreement shots:       (STREAM_CPL, variant)
STREAM_SCRIPT = 9    # demo scripts and ad-hoc experiments

MAX_SEED = 2**64 - 1


def child_generator(master_seed: int, *path: int) -> np.random.Generator:
    """Generator for the stream named by (master_seed, path)."""
    if not 0 <= master_seed <= MAX_SEED:
        raise ValueError(f"master seed must be in [0, 2^64), got {master_seed}")
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(path))
    return np.random.default_rng(seq)
