"""Deterministic random number generation.

Every stochastic component (topology generators, traffic matrices, test
workloads) takes a seed so experiments are exactly reproducible.
"""

from __future__ import annotations

import numpy as np


def make_rng(seed) -> np.random.Generator:
    """A numpy Generator from an int seed, a tuple of ints (``(7, 1, k)``:
    one independent stream per tuple), another Generator (returned as
    is, so the caller sees the draws), or None."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
