"""Shared chain generators for the test suite. Everything is seeded."""

from __future__ import annotations

import numpy as np
import pytest

from mixgap.chain import StochasticMatrix
from mixgap.fixtures import example_chain, random_dense_chain, random_reversible_chain


@pytest.fixture
def ex31() -> StochasticMatrix:
    return example_chain()


def random_ergodic(seed: int, n: int | None = None) -> StochasticMatrix:
    """Random strictly positive chain; n drawn from {2..8} when omitted."""
    rng = np.random.default_rng(seed)
    if n is None:
        n = int(rng.integers(2, 9))
    return random_dense_chain(n, seed=int(rng.integers(0, 2**31)))


def random_reversible(seed: int, n: int | None = None) -> StochasticMatrix:
    rng = np.random.default_rng(seed)
    if n is None:
        n = int(rng.integers(2, 9))
    return random_reversible_chain(n, seed=int(rng.integers(0, 2**31)))


# period 2: classes {0, 2, 4} and {1, 3, 5}
PERIOD2_ROWS = [
    [0, 1, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 0],
    [0, 0.381, 0, 0.619, 0, 0],
    [0, 0, 0, 0, 1, 0],
    [0, 0, 0, 0, 0, 1],
    [0.395, 0, 0, 0, 0.605, 0],
]

# PERIOD2_ROWS with 1e-9 of state 0's mass moved onto a self-loop: aperiodic,
# but |lambda_2| = 1 - O(1e-9)
NEAR_PERIODIC_ROWS = [[1e-9, 1.0 - 1e-9, 0, 0, 0, 0], *PERIOD2_ROWS[1:]]
