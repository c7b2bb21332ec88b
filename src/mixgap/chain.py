"""Finite-state stochastic matrices and trajectories.

Provides the transition-matrix and trajectory containers plus the basic chain
operations everything else builds on: stationary distributions, time
reversal, matrix powers, the rescaled matrix L = D^{1/2} P D^{-1/2}, the
reversible/generic dilations, additive reversiblization, brute-force mixing
time, and seeded simulation.

All containers are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import NotMixedByCapError, ReducibleChainError

ROW_SUM_TOL = 1e-12
STATIONARY_TOL = 1e-10
DETAILED_BALANCE_TOL = 1e-12


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class StochasticMatrix:
    """Row-stochastic square matrix with a lazily cached stationary vector."""

    rows: np.ndarray
    _stationary: list = field(default_factory=list, repr=False, compare=False)

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim != 2 or rows.shape[0] != rows.shape[1] or rows.shape[0] < 1:
            raise ValueError(f"expected a square matrix, got shape {rows.shape}")
        if not np.all(np.isfinite(rows)):
            raise ValueError("non-finite transition probability")
        if np.min(rows) < 0:
            raise ValueError("negative transition probability")
        err = np.max(np.abs(rows.sum(axis=1) - 1.0))
        if err > ROW_SUM_TOL:
            raise ValueError(f"rows must sum to 1 (max deviation {err:.3e})")
        object.__setattr__(self, "rows", _freeze(rows))

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def stationary(self) -> np.ndarray | None:
        """Cached stationary distribution, or None if not yet computed."""
        return self._stationary[0] if self._stationary else None

    def _cache_stationary(self, pi: np.ndarray) -> None:
        if not self._stationary:
            self._stationary.append(_freeze(pi))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Observed sequence of state indices from a chain over n states."""

    states: np.ndarray
    n: int

    def __post_init__(self):
        states = np.asarray(self.states, dtype=np.int64)
        if states.ndim != 1 or states.size < 1:
            raise ValueError("trajectory must be a non-empty 1-d sequence")
        if self.n < 1:
            raise ValueError("state-space size must be >= 1")
        if states.min() < 0 or states.max() >= self.n:
            raise ValueError("state index out of range [0, n)")
        states.flags.writeable = False
        object.__setattr__(self, "states", states)

    @property
    def m(self) -> int:
        return self.states.size


@dataclass(frozen=True, eq=False)
class DilatedMatrix:
    """2n x 2n block matrix [[0, A], [B, 0]] with zero diagonal blocks."""

    entries: np.ndarray
    base_n: int

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        n = self.base_n
        if e.shape != (2 * n, 2 * n):
            raise ValueError("dilation must be (2n)x(2n)")
        if np.any(e[:n, :n] != 0) or np.any(e[n:, n:] != 0):
            raise ValueError("diagonal blocks must be exactly zero")
        object.__setattr__(self, "entries", _freeze(e))


def _strongly_connected(support: np.ndarray) -> bool:
    graph = csr_matrix(support.astype(np.int8))
    ncomp, _ = connected_components(graph, directed=True, connection="strong")
    return ncomp == 1


def is_irreducible(P: StochasticMatrix) -> bool:
    """True when the positive-support digraph is strongly connected."""
    return _strongly_connected(P.rows > 0)


def is_aperiodic(P: StochasticMatrix) -> bool:
    """True when the gcd of cycle lengths through state 0 is 1.

    Assumes irreducibility; uses BFS levels on the support digraph, where the
    period equals gcd over edges (u, v) of (level(u) + 1 - level(v)).
    """
    n = P.n
    adj = [np.nonzero(P.rows[x] > 0)[0] for x in range(n)]
    level = np.full(n, -1, dtype=np.int64)
    level[0] = 0
    queue = [0]
    g = 0
    while queue:
        u = queue.pop()
        for v in adj[u]:
            if level[v] < 0:
                level[v] = level[u] + 1
                queue.append(v)
            else:
                g = math.gcd(g, level[u] + 1 - level[v])
    return g == 1


def is_ergodic(P: StochasticMatrix) -> bool:
    """True when P is primitive (irreducible and aperiodic)."""
    return is_irreducible(P) and is_aperiodic(P)


def stationary_distribution(P: StochasticMatrix) -> np.ndarray:
    """Stationary distribution pi with pi P = pi, sum(pi) = 1, pi > 0.

    Solves the null-space linear system by dense factorization at every size;
    unlike power iteration this also converges on periodic chains.

    Raises:
        ReducibleChainError: if the support digraph is not strongly connected.
    """
    if P.stationary is not None:
        return P.stationary
    if not is_irreducible(P):
        raise ReducibleChainError("support graph is not strongly connected")
    n = P.n
    # (P^T - I) pi^T = 0 with the last equation replaced by sum(pi) = 1
    A = P.rows.T - np.eye(n)
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    pi = np.linalg.solve(A, b)
    pi = np.maximum(pi, 0.0)
    pi /= pi.sum()
    residual = np.max(np.abs(pi @ P.rows - pi))
    if residual > STATIONARY_TOL or np.min(pi) <= 0:
        raise ReducibleChainError(
            f"stationary solve failed (residual {residual:.3e}, min {np.min(pi):.3e})"
        )
    P._cache_stationary(pi)
    return P.stationary


def time_reversal(P: StochasticMatrix) -> StochasticMatrix:
    """Adjoint of P in l2(pi): P*(x, x') = pi(x') P(x', x) / pi(x)."""
    pi = stationary_distribution(P)
    rows = (P.rows.T * pi[None, :]) / pi[:, None]
    # rows sum to exactly (pi P)/pi = 1 up to rounding; renormalization not needed
    rev = StochasticMatrix(rows)
    rev._cache_stationary(pi)
    return rev


def is_reversible(P: StochasticMatrix, tol: float = DETAILED_BALANCE_TOL) -> bool:
    """Detailed-balance check pi(x) P(x,x') = pi(x') P(x',x)."""
    pi = stationary_distribution(P)
    flow = pi[:, None] * P.rows
    return bool(np.max(np.abs(flow - flow.T)) <= tol)


def matrix_power(P: StochasticMatrix, k: int) -> StochasticMatrix:
    """k-step transition matrix P^k; shares the stationary distribution of P."""
    if k < 1:
        raise ValueError("k must be >= 1")
    out = StochasticMatrix(np.linalg.matrix_power(P.rows, k))
    if P.stationary is not None:
        out._cache_stationary(P.stationary)
    return out


def build_L(P: StochasticMatrix) -> np.ndarray:
    """Similarity rescaling L = D_pi^{1/2} P D_pi^{-1/2}.

    L(x, x') = sqrt(pi(x)) P(x, x') / sqrt(pi(x')); symmetric exactly when P
    is reversible.
    """
    pi = stationary_distribution(P)
    s = np.sqrt(pi)
    return (s[:, None] * P.rows) / s[None, :]


def stationary_projector(P: StochasticMatrix) -> np.ndarray:
    """Rank-one matrix 1^T pi, the memoryless stationary kernel."""
    pi = stationary_distribution(P)
    return np.ones((P.n, 1)) @ pi[None, :]


def reversible_dilation(P: StochasticMatrix) -> DilatedMatrix:
    """Reversible dilation [[0, P], [P*, 0]] over 2n states.

    Row-stochastic, 2-periodic, with stationary distribution (pi, pi)/2 and
    reversible with respect to it.
    """
    n = P.n
    rev = time_reversal(P)
    e = np.zeros((2 * n, 2 * n))
    e[:n, n:] = P.rows
    e[n:, :n] = rev.rows
    return DilatedMatrix(e, n)


def generic_dilation(A: np.ndarray) -> DilatedMatrix:
    """Self-adjoint dilation [[0, A], [A^T, 0]] of an arbitrary square matrix.

    The result is symmetric with eigenvalues +/- the singular values of A.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("expected a square matrix")
    n = A.shape[0]
    e = np.zeros((2 * n, 2 * n))
    e[:n, n:] = A
    e[n:, :n] = A.T
    return DilatedMatrix(e, n)


def additive_reversiblization(P: StochasticMatrix) -> StochasticMatrix:
    """(P + P*)/2, reversible with respect to the same pi."""
    pi = stationary_distribution(P)
    rev = time_reversal(P)
    out = StochasticMatrix(0.5 * (P.rows + rev.rows))
    out._cache_stationary(pi)
    return out


def _worst_tv(Pt: np.ndarray, pi: np.ndarray) -> float:
    # max over point-mass initials; TV is convex in the initial distribution
    return 0.5 * float(np.max(np.abs(Pt - pi[None, :]).sum(axis=1)))


def mixing_time(
    P: StochasticMatrix, threshold: float = 0.25, t_max: int = 1_000_000
) -> int:
    """Smallest t >= 1 with max_x TV(e_x P^t, pi) < threshold.

    Uses the monotonicity of worst-case TV in t: exponential search brackets
    the crossing, binary search pins it, and P^t is assembled from cached
    squarings, so the cap costs O(log^2 t_max) matrix products.

    Raises:
        NotMixedByCapError: if the distance is still >= threshold at t_max.
    """
    pi = stationary_distribution(P)
    squares = [P.rows]  # squares[j] = P^(2^j)

    def power(t: int) -> np.ndarray:
        while (1 << len(squares)) <= t:
            squares.append(squares[-1] @ squares[-1])
        out = None
        j = 0
        while t:
            if t & 1:
                out = squares[j] if out is None else out @ squares[j]
            t >>= 1
            j += 1
        return out

    def mixed(t: int) -> bool:
        return _worst_tv(power(t), pi) < threshold

    hi = 1
    while hi <= t_max and not mixed(hi):
        hi *= 2
    if hi > t_max:
        if not mixed(t_max):
            raise NotMixedByCapError(
                f"TV distance still >= {threshold} at t = {t_max}"
            )
        hi = t_max
    lo = hi // 2  # mixed(lo) is False (or lo == 0)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mixed(mid):
            hi = mid
        else:
            lo = mid
    return hi


def simulate(
    P: StochasticMatrix,
    m: int,
    start: int | np.ndarray | str = "stationary",
    seed: int = 0,
) -> Trajectory:
    """Simulate a length-m trajectory from P, deterministic given seed.

    ``start`` is a state index, a distribution over states, or the string
    "stationary".
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    n = P.n
    rng = np.random.default_rng(seed)
    if isinstance(start, str):
        if start != "stationary":
            raise ValueError(f"unknown start value {start!r}")
        start = stationary_distribution(P)
    if np.ndim(start) == 0:
        x = int(start)
        if not 0 <= x < n:
            raise ValueError("start state out of range")
    else:
        p = np.asarray(start, dtype=float)
        if p.shape != (n,) or abs(p.sum() - 1.0) > 1e-9 or np.min(p) < 0:
            raise ValueError("start distribution must be a length-n probability vector")
        x = int(rng.choice(n, p=p / p.sum()))
    # interior cumulative thresholds per row; bisect gives the sampled column.
    # A row may sum to as little as 1 - 1e-12, so u can pass its last real
    # threshold: thresholds from the last positive column on are +inf, which
    # clamps the draw to that column instead of a zero-probability one.
    thresholds = []
    for row in P.rows:
        cuts = np.cumsum(row)[:-1]
        cuts[np.flatnonzero(row)[-1]:] = np.inf
        thresholds.append(tuple(cuts))
    u = rng.random(m)
    out = [0] * m
    out[0] = x
    for t in range(1, m):
        x = bisect_right(thresholds[x], u[t])
        out[t] = x
    return Trajectory(np.array(out, dtype=np.int64), n)
