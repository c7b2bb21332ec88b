"""Shared chain generators for the test suite. Everything is seeded."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

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


def lazy_cycle(n, lazy=0.5, right=0.6):
    P = np.zeros((n, n))
    i = np.arange(n)
    P[i, i] = lazy
    P[i, (i + 1) % n] += (1.0 - lazy) * right
    P[i, (i - 1) % n] += (1.0 - lazy) * (1.0 - right)
    return StochasticMatrix(P)


def lazy_torus(side, lazy=0.5, moves=(0.35, 0.15, 0.3, 0.2)):
    """Lazy walk on a side x side torus; `moves` weights right, left, down, up."""
    n = side * side
    states = np.arange(n)
    r, c = np.divmod(states, side)
    P = np.zeros((n, n))
    P[states, states] = lazy
    weights = np.asarray(moves) / np.sum(moves) * (1.0 - lazy)
    for w, (dr, dc) in zip(weights, ((0, 1), (0, -1), (1, 0), (-1, 0))):
        P[states, ((r + dr) % side) * side + (c + dc) % side] += w
    return StochasticMatrix(P)


@st.composite
def simulated_chains(draw):
    """Irreducible chains from five families. Lazy drifted cycles merge slowly
    under common random numbers and take the sequential fallback, by symbol
    table; wide dense chains have more distinct cuts than short walks have
    draws, so their sequential walks bisect."""
    kind = draw(st.sampled_from(["dense", "sparse", "sticky", "cycle", "wide"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "cycle":
        n = draw(st.integers(20, 60))
        rows = lazy_cycle(n, rng.uniform(0.3, 0.7), rng.uniform(0.5, 0.9)).rows
    else:
        n = draw(st.integers(20, 60) if kind == "wide" else st.integers(1, 8))
        W = rng.gamma(2.0, size=(n, n))
        if kind == "sparse":
            # a ring keeps the support strongly connected
            W = W * (rng.random((n, n)) < 0.3) + np.roll(np.eye(n), 1, axis=1)
        elif kind == "sticky":
            W = 1e-3 * W + np.eye(n)
        rows = W / W.sum(axis=1, keepdims=True)
    if draw(st.booleans()):
        # inside the 1e-12 row-sum tolerance: draws past the last cut must
        # still land on a positive column
        rows = rows * (1.0 - 5e-13)
    return StochasticMatrix(rows)


def birth_death(n: int, right: float) -> np.ndarray:
    """Rows of the walk that steps +1 w.p. `right`, else -1, holding at the two ends."""
    rows = np.zeros((n, n))
    i = np.arange(n)
    np.add.at(rows, (i, np.minimum(i + 1, n - 1)), right)
    np.add.at(rows, (i, np.maximum(i - 1, 0)), 1.0 - right)
    return rows


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
