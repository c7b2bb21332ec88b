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


def sparse_chain(n: int, seed: int, extra: int) -> StochasticMatrix:
    """A Hamiltonian cycle on a random permutation of the n states plus `extra`
    random edges (self-loops and repeats allowed), each edge weighted gamma(2) + 1e-3.

    The cycle keeps the chain irreducible; with no self-loop and every cycle
    length sharing a factor it is periodic."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    support = np.zeros((n, n), dtype=bool)
    support[order, np.roll(order, -1)] = True
    support[rng.integers(0, n, extra), rng.integers(0, n, extra)] = True
    W = np.where(support, rng.gamma(2.0, size=(n, n)) + 1e-3, 0.0)
    return StochasticMatrix(W / W.sum(axis=1, keepdims=True))


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


# rows that sum to 1 - 5e-13, inside the 1e-12 row-sum tolerance, with pi
# = (0.5, 0.5 / 1.01, 0.005 / 1.01): the rows' defect is 1e-10 of the last entry
DEFECT_ROWS = np.array([[0.5, 0.5, 0.0], [0.5, 0.49, 0.01], [0.5, 0.5, 0.0]]) * (1.0 - 5e-13)


def birth_death(n: int, right: float) -> np.ndarray:
    """Rows of the walk that steps +1 w.p. `right`, else -1, holding at the two ends."""
    rows = np.zeros((n, n))
    i = np.arange(n)
    np.add.at(rows, (i, np.minimum(i + 1, n - 1)), right)
    np.add.at(rows, (i, np.maximum(i - 1, 0)), 1.0 - right)
    return rows


# (n, right) of birth-death chains whose pi resolves, held w.p. 0 or 0.2 at every
# state; their L is symmetric to within 3e-11, against DETAILED_BALANCE_TOL = 1e-9
RESOLVING_BIRTH_DEATH = [(10, 0.8), (20, 0.7), (30, 0.6), (40, 0.55), (60, 0.55)]
RESOLVING_BIRTH_DEATH_HOLDS = [0.0, 0.2]


def lazy_birth_death(n: int, right: float, lazy: float) -> StochasticMatrix:
    """`birth_death` held in place w.p. `lazy` at every state."""
    return StochasticMatrix((1.0 - lazy) * birth_death(n, right) + lazy * np.eye(n))


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


def rare_cycle_rows(eps: float = 1e-12) -> np.ndarray:
    """States 0-2 mix uniformly and leak eps into the one-way cycle 3 -> 4 -> 5 -> 3,
    whose states each also fall back to one of 0-2.

    pi is about eps on 3-5, so detailed balance fails there only by flows of
    order eps, while L = D^{1/2} P D^{-1/2} is far from symmetric. The absolute
    gap is 1/2: the other eigenvalues lie near 0, 0 and the cube roots of 1/8.
    """
    rows = np.zeros((6, 6))
    rows[:3, :3] = (1.0 - eps) / 3.0
    rows[:3, 3] = eps
    for x, (nxt, back) in zip((3, 4, 5), ((4, 0), (5, 1), (3, 2))):
        rows[x, [nxt, back]] = 0.5
    return rows


def rare_state_chain(eps: float, q: float) -> StochasticMatrix:
    """A lazy walk on the 4-clique 0-3 whose states each enter the rare state 4
    w.p. eps; 4 is left w.p. q, to a uniform clique state.

    A clique state holds w.p. 1/2 and otherwise moves to one of the other
    three. The chain is reversible, with pi_star = pi_4 = eps / (eps + q). At
    eps = 1e-2 the oracle's gamma_ps is 0.652 at q = 0.4 and 0.116 at q = 0.05,
    so 1/(gamma_ps pi_star) is 63 against 52: thresholds that agree within
    1.22x for gaps 5.6x apart.
    """
    rows = np.zeros((5, 5))
    rows[:4, :4] = (0.5 - eps) / 3.0
    np.fill_diagonal(rows[:4, :4], 0.5)
    rows[:4, 4] = eps
    rows[4, :4] = q / 4.0
    rows[4, 4] = 1.0 - q
    return StochasticMatrix(rows)
