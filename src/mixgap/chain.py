"""Finite-state stochastic matrices and trajectories.

Provides the transition-matrix and trajectory containers plus the basic chain
operations everything else builds on: stationary distributions, time
reversal, matrix powers, the rescaled matrix L = D^{1/2} P D^{-1/2}, the
reversible dilation, brute-force mixing time, and seeded simulation. Also
holds the serializer behind the `to_dict` of the report dataclasses.

All containers are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_right
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import NoConvergenceError, NotMixedByCapError, ReducibleChainError

ROW_SUM_TOL = 1e-12
STATIONARY_TOL = 1e-10
DETAILED_BALANCE_TOL = 1e-12


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


def _report_dict(obj):
    """A dataclass report as JSON-ready data: keys become str, tuples lists."""
    if is_dataclass(obj):
        return {f.name: _report_dict(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, dict):
        return {str(key): _report_dict(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_report_dict(value) for value in obj]
    return obj


@dataclass(frozen=True, eq=False)
class StochasticMatrix:
    """Row-stochastic square matrix; `_stationary` caches pi for `stationary_distribution`."""

    rows: np.ndarray
    _stationary: list = field(default_factory=list, init=False, repr=False, compare=False)

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


def is_irreducible(P: StochasticMatrix) -> bool:
    """True when the positive-support digraph is strongly connected."""
    graph = csr_matrix((P.rows > 0).astype(np.int8))
    return connected_components(graph, directed=True, connection="strong")[0] == 1


def is_aperiodic(P: StochasticMatrix) -> bool:
    """True when the gcd of cycle lengths through state 0 is 1.

    Assumes irreducibility, so a self-loop anywhere (a cycle of length 1)
    settles it at once. Otherwise labels states by search depth on the support
    digraph, where the period equals gcd over edges (u, v) of
    (level(u) + 1 - level(v)).
    """
    if np.any(np.diagonal(P.rows) > 0):
        return True
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


def stationary_distribution(P: StochasticMatrix) -> np.ndarray:
    """Stationary distribution pi with pi P = pi, sum(pi) = 1, pi > 0.

    Solves the null-space linear system by dense factorization at every size;
    unlike power iteration this also converges on periodic chains. Gaps are
    read off L = D_pi^{1/2} P D_pi^{-1/2}, so pi is accepted only when
    |pi P - pi| < STATIONARY_TOL * pi entrywise, which also rejects NaN and 0.

    Raises:
        ReducibleChainError: if the support digraph is not strongly connected.
        NoConvergenceError: if the solve misses the entrywise relative test.
    """
    if P._stationary:
        return P._stationary[0]
    if not is_irreducible(P):
        raise ReducibleChainError("support graph is not strongly connected")
    n = P.n
    # (P^T - I) pi^T = 0 with the last equation replaced by sum(pi) = 1
    A = P.rows.T - np.eye(n)
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    pi = np.linalg.solve(A, b)
    pi /= pi.sum()
    residual = np.abs(pi @ P.rows - pi)
    if not np.all(residual < STATIONARY_TOL * pi):
        raise NoConvergenceError(
            f"stationary vector not resolved relative to its entries (residual "
            f"{np.max(residual):.3e}, smallest entry {np.min(pi):.3e})"
        )
    P._stationary.append(_freeze(pi))
    return P._stationary[0]


def time_reversal(P: StochasticMatrix) -> StochasticMatrix:
    """Adjoint of P in l2(pi): P*(x, x') = pi(x') P(x', x) / pi(x)."""
    pi = stationary_distribution(P)
    rows = (P.rows.T * pi[None, :]) / pi[:, None]
    # row x sums to (pi P)(x) / pi(x), which is 1 only to within STATIONARY_TOL
    rev = StochasticMatrix(rows / rows.sum(axis=1, keepdims=True))
    rev._stationary.append(pi)
    return rev


def is_reversible(P: StochasticMatrix) -> bool:
    """Detailed-balance check pi(x) P(x,x') = pi(x') P(x',x)."""
    pi = stationary_distribution(P)
    flow = pi[:, None] * P.rows
    return bool(np.max(np.abs(flow - flow.T)) <= DETAILED_BALANCE_TOL)


def matrix_power(P: StochasticMatrix, k: int) -> StochasticMatrix:
    """k-step transition matrix P^k; shares the stationary distribution of P."""
    if k < 1:
        raise ValueError("k must be >= 1")
    out = StochasticMatrix(np.linalg.matrix_power(P.rows, k))
    out._stationary.extend(P._stationary)
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


def reversible_dilation(P: StochasticMatrix) -> np.ndarray:
    """Reversible dilation [[0, P], [P*, 0]] over 2n states.

    Row-stochastic, 2-periodic, with stationary distribution (pi, pi)/2 and
    reversible with respect to it.
    """
    n = P.n
    rev = time_reversal(P)
    e = np.zeros((2 * n, 2 * n))
    e[:n, n:] = P.rows
    e[n:, :n] = rev.rows
    return e


def mixing_time(
    P: StochasticMatrix, threshold: float = 0.25, t_max: int = 1_000_000
) -> int:
    """Smallest t >= 1 with max_x TV(e_x P^t, pi) < threshold.

    Worst-case TV is non-increasing in t, so binary lifting finds the last
    unmixed t: square P until a square P^(2^j) is mixed or the next one would
    pass t_max, then walk j downwards, keeping P^t P^(2^j) while it is still
    unmixed and t + 2^j <= t_max. That costs O(log t_max) matrix products.

    Raises:
        NotMixedByCapError: if the distance is still >= threshold at t_max.
    """
    pi = stationary_distribution(P)

    def mixed(Pt: np.ndarray) -> bool:
        # worst TV over point-mass initials; TV is convex in the initial distribution
        return 0.5 * float(np.max(np.abs(Pt - pi[None, :]).sum(axis=1))) < threshold

    squares = [P.rows]  # squares[j] = P^(2^j)
    while not mixed(squares[-1]) and 1 << len(squares) <= t_max:
        squares.append(squares[-1] @ squares[-1])
    t, Pt = 0, None  # the largest unmixed t found so far, and P^t
    for j in reversed(range(len(squares))):
        if t + (1 << j) <= t_max:
            candidate = squares[j] if Pt is None else Pt @ squares[j]
            if not mixed(candidate):
                t, Pt = t + (1 << j), candidate
    if t == t_max:
        raise NotMixedByCapError(f"TV distance still >= {threshold} at t = {t_max}")
    return t + 1


# `simulate` walks long trajectories as chunks advanced in lockstep. One vector
# step costs about 10-50 us against 0.1-0.3 us for one sequential step (2-core
# host), so lockstep pays only with many chunks. After 32 rerun steps, chains
# whose paths merge under common random numbers (dense or sparse random rows)
# leave under 10% of the chunks still rerunning; lazy cycles and tori leave
# over 75%.
_LOCKSTEP_MIN_M = 4096  # chunks are round(sqrt(m) / 2) >= _CHECK_STEP steps long
_CHECK_STEP = 32  # rerun step at which merging is judged
_MAX_UNMET = 0.25  # fraction of chunks still rerunning then that falls back
_BLOCK = 1 << 14  # draws converted to Python floats at a time


def _physical_memory() -> int:
    """Bytes of physical memory, the cap on any table sized by the input."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _support_tables(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row, the cumulative sums at its positive columns and those columns.

    Returns ``(cut, col, size)``: row x has ``size[x]`` positive columns
    ``col[x, :size[x]]``, and ``cut[x, i]`` is the row's cumulative sum at
    column ``col[x, i]`` for i < size[x] - 1. The rest of each row of ``cut``
    is +inf, padded to a power-of-two width above every row's cut count, so a
    draw past the last cut samples the last positive column: the clamp that
    keeps a row summing to 1 - 1e-12 off a trailing zero column. Counting the
    cuts <= u picks the same column as bisecting the full row's cumulative
    sums, because a zero column repeats the previous cut exactly and so is
    never where bisect_right lands.
    """
    n = rows.shape[0]
    positive = rows > 0
    size = positive.sum(axis=1)
    width = 1 << int(size.max() - 1).bit_length()
    xs, ys = np.nonzero(positive)
    rank = (np.cumsum(positive, axis=1) - 1)[xs, ys]
    cut = np.full((n, width), np.inf)
    col = np.zeros((n, width), dtype=np.int64)
    cut[xs, rank] = np.cumsum(rows, axis=1)[xs, ys]
    cut[np.arange(n), size - 1] = np.inf
    col[xs, rank] = ys
    return cut, col, size


def _walk_sequential(
    cut: np.ndarray, col: np.ndarray, size: np.ndarray, u: np.ndarray, out: np.ndarray, lo: int
) -> None:
    """Fill out[lo:] one bisect per step, continuing from out[lo - 1]."""
    cuts = [tuple(c[: s - 1].tolist()) for c, s in zip(cut, size)]
    cols = [tuple(c[:s].tolist()) for c, s in zip(col, size)]
    x = int(out[lo - 1])
    for b in range(lo, u.size, _BLOCK):
        block = []
        append = block.append
        for ut in u[b : b + _BLOCK].tolist():
            x = cols[x][bisect_right(cuts[x], ut)]
            append(x)
        out[b : b + len(block)] = block


def _walk_coupled(
    cut: np.ndarray, col: np.ndarray, size: np.ndarray, u: np.ndarray, out: np.ndarray
) -> None:
    """Fill out[1:] by chunks run in lockstep, then rerun until consistent.

    Hands over to _walk_sequential at the earliest state not yet known to be
    right when the reruns merge slowly (see _MAX_UNMET) or have not all met
    the recorded path within one chunk length.
    """
    m = u.size
    width = cut.shape[1]
    flat_cut, flat_col = cut.ravel(), col.ravel()
    halves = [width >> i for i in range(1, width.bit_length())]

    def step(x: np.ndarray, ut: np.ndarray) -> np.ndarray:
        # branchless binary search: the searched prefix of width - 1 cuts
        # ends in +inf, so i - x * width ends as the count of cuts <= ut
        i = x * width
        for h in halves:
            i += h * (flat_cut[i + (h - 1)] <= ut)
        return flat_col[i]

    length = round(math.sqrt(m) / 2)
    first = np.arange(1, m, length)  # first step of each chunk
    chunks = first.size
    tail = m - int(first[-1])  # steps of the last, possibly short, chunk
    x = np.full(chunks, out[0])
    for j in range(length):
        live = chunks if j < tail else chunks - 1
        t = first[:live] + j
        x[:live] = step(x[:live], u[t])
        out[t] = x[:live]
    # rerun each chunk whose guessed start was not its predecessor's end, in
    # lockstep; a rerun stops where it meets the recorded path, and one that
    # leaves its chunk carries on into the next. Reruns stay whole chunks
    # apart, and one that overwrites a state always moves on to the next, so
    # once none is left every state follows from its predecessor and u.
    t = first[1:][out[first[1:] - 1] != out[0]]
    x = out[t - 1]
    for j in range(1, length + 1):
        x = step(x, u[t])
        met = out[t] == x
        out[t] = x
        t += 1
        keep = ~met & (t < m)
        x, t = x[keep], t[keep]
        if t.size == 0:
            return
        if j == _CHECK_STEP and t.size > _MAX_UNMET * chunks:
            break
    # every state before the earliest rerun still going is final
    _walk_sequential(cut, col, size, u, out, int(t[0]))


def simulate(
    P: StochasticMatrix,
    m: int,
    start: int | np.ndarray | str = "stationary",
    seed: int = 0,
) -> Trajectory:
    """Simulate a length-m trajectory from P, deterministic given seed.

    ``start`` is a state index, a distribution over states, or the string
    "stationary".

    The generator draws the start (when ``start`` is a distribution), then
    u = rng.random(m); state t is the column that bisect_right of u[t] picks
    in the cumulative sums of row x_{t-1}, clamped to the row's last positive
    column. The sums are searched at the positive columns only, which picks
    the same column as the full row (see _support_tables).

    How the walk is scheduled never changes the output. Long trajectories
    are cut into chunks of about sqrt(m)/2 steps, each started from a guessed
    state, and all chunks advance together as vectors. Each chunk whose guess
    was not its predecessor's end is then rerun from that end until it meets
    its recorded path, carrying on into the following chunks until it does,
    so the repair ends when nothing changes. Every state comes from the same
    rule applied to the same u, so then each state follows from its
    predecessor exactly as in a one-step-at-a-time walk. Under these common
    random numbers paths from different starts merge (the grand coupling of
    Propp and Wilson, 1996), so the reruns are short on chains that mix fast;
    chains whose paths merge slowly are finished one step at a time.

    Raises:
        ValueError: for m < 1, a bad start, or an m whose draws and states
            (16 bytes per step) would not fit in physical memory.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    # refuse before allocating, so a huge m is an input error, not a crash
    if 16 * m > _physical_memory():
        raise ValueError(f"{m} draws and states exceed physical memory")
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
    tables = _support_tables(P.rows)
    u = rng.random(m)
    out = np.empty(m, dtype=np.int64)
    out[0] = x
    if m < _LOCKSTEP_MIN_M:
        _walk_sequential(*tables, u, out, 1)
    else:
        _walk_coupled(*tables, u, out)
    return Trajectory(out, n)
