"""Canned chains used by the benchmark harness and the acceptance suite."""

from __future__ import annotations

import numpy as np

from .chain import StochasticMatrix, _freeze


def example_chain() -> StochasticMatrix:
    """Non-reversible 3-state chain whose dilation splits into two classes.

    Stationary distribution (1/4, 1/4, 1/2); the k = 1 dilation gap is zero,
    so the pseudo-spectral maxima sit at skip rates 2 and 3.
    """
    P = StochasticMatrix([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.5, 0.0, 0.5]])
    P._stationary.append(_freeze(np.array([0.25, 0.25, 0.5])))
    return P


def random_dense_chain(n: int, seed: int) -> StochasticMatrix:
    """Strictly positive random rows (gamma weights), hence ergodic."""
    rng = np.random.default_rng(seed)
    W = rng.gamma(shape=2.0, scale=1.0, size=(n, n)) + 1e-3
    return StochasticMatrix(W / W.sum(axis=1, keepdims=True))


def random_reversible_chain(n: int, seed: int) -> StochasticMatrix:
    """Random walk on a weighted complete graph: reversible and ergodic."""
    rng = np.random.default_rng(seed)
    W = rng.gamma(shape=2.0, scale=1.0, size=(n, n)) + 1e-3
    W = 0.5 * (W + W.T)
    return StochasticMatrix(W / W.sum(axis=1, keepdims=True))


def fast_three_state() -> StochasticMatrix:
    """Fast-mixing 3-state fixture for the coverage and amplification studies."""
    return random_dense_chain(3, seed=20240 + 1)


def slow_five_state_a() -> StochasticMatrix:
    return random_dense_chain(5, seed=20240 + 2)


def slow_five_state_b() -> StochasticMatrix:
    return random_dense_chain(5, seed=20240 + 3)


FIXTURES = {
    "ex31": example_chain,
    "fast3": fast_three_state,
    "rand5a": slow_five_state_a,
    "rand5b": slow_five_state_b,
}


def get_fixture(name: str) -> StochasticMatrix:
    try:
        return FIXTURES[name]()
    except KeyError:
        raise KeyError(f"unknown fixture {name!r}; have {sorted(FIXTURES)}") from None
