"""Finite-state stochastic matrices and trajectories.

Provides the transition-matrix and trajectory containers plus the basic chain
operations everything else builds on: stationary distributions, time
reversal, matrix powers, the rescaled matrix L = D^{1/2} P D^{-1/2}, the
reversible dilation, brute-force mixing time, and seeded simulation. Also
holds the serializer behind the `to_dict` of the report dataclasses.
The module uses numpy only: `is_irreducible` squares a reachability matrix
on small chains and runs level searches on large ones, with no graph library.

All containers are immutable after construction and safe to share across
threads. Their private memos (`_stationary`, `_tallies`, `_gaps`) cache derived
values only, so a race at worst computes one of them twice.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from .errors import NoConvergenceError, NotMixedByCapError, ReducibleChainError, _value

ROW_SUM_TOL = 1e-12
STATIONARY_TOL = 1e-10
DETAILED_BALANCE_TOL = 1e-9  # on |L - L^T|, see is_reversible


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


def _stack(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """The arrays stacked on a new first axis; a view of the one array of a stack of one."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


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
        rows = np.asarray(self.rows)
        if rows.dtype.kind == "c":
            raise ValueError(f"transition probabilities must be real, got dtype {rows.dtype}")
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[0] != rows.shape[1] or rows.shape[0] < 1:
            raise ValueError(f"expected a square matrix, got shape {rows.shape}")
        # array methods, not np.all/np.min/np.max: the smoothed P_hat of every
        # interval term is built here, and the wrappers cost more than the checks
        if not np.isfinite(rows).all():
            raise ValueError("non-finite transition probability")
        if rows.min() < 0:
            raise ValueError("negative transition probability")
        err = np.abs(rows.sum(axis=1) - 1.0).max()
        if err > ROW_SUM_TOL:
            raise ValueError(f"rows must sum to 1 (max deviation {err:.3e})")
        object.__setattr__(self, "rows", _freeze(rows))

    @property
    def n(self) -> int:
        return self.rows.shape[0]


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Observed state indices of a chain over n states; `_tallies` memoizes
    `tallies.tally` and `_gaps` the estimators' per-skip gaps (`estimators._gaps`).

    `states` is kept as a read-only int64 array. A writeable array is copied,
    so the caller may go on writing it; a read-only int64 array is taken as
    already frozen, without a copy."""

    states: np.ndarray
    n: int
    _tallies: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _gaps: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        states = np.asarray(self.states)
        if states.ndim != 1 or states.size < 1:
            raise ValueError("trajectory must be a non-empty 1-d sequence")
        if states.dtype.kind not in "iu":
            raise ValueError(f"trajectory states must be integers, got dtype {states.dtype}")
        if isinstance(self.n, bool) or not isinstance(self.n, (int, np.integer)):
            raise ValueError(f"state-space size must be an integer, got {self.n!r}")
        if self.n < 1:
            raise ValueError("state-space size must be >= 1")
        if states.min() < 0 or states.max() >= self.n:
            raise ValueError("state index out of range [0, n)")
        if states.flags.writeable or states.dtype != np.int64:
            states = np.array(states, dtype=np.int64)
            states.flags.writeable = False
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "n", int(self.n))

    @property
    def m(self) -> int:
        return self.states.size


# at or below this many states `is_irreducible` squares the reachability
# matrix, above it runs two level searches. Medians of repeated calls (one
# OpenBLAS thread, 2-core host): squaring took 0.06-0.26 ms against 0.42-0.92
# ms for the searches on lazy cycles of 40-96 states, and 0.06-0.20 against
# 0.21-0.27 ms on tori of 64-100 states; at 121-256 states the searches won
# on tori and sparse random chains, and on the 324-state torus took 0.33 ms
# against 3.2 ms
_CLOSURE_MAX_N = 100


def _levels(support: np.ndarray) -> np.ndarray:
    """Each state's distance from state 0 on the digraph `support`, by a
    breadth-first level search; -1 for a state it cannot reach."""
    level = np.full(support.shape[0], -1)
    frontier, depth = np.zeros(1, dtype=np.intp), 0
    while frontier.size:
        level[frontier] = depth
        frontier = np.flatnonzero(support[frontier].any(axis=0) & (level < 0))
        depth += 1
    return level


def is_irreducible(P: StochasticMatrix) -> bool:
    """True when the positive-support digraph is strongly connected.

    Up to _CLOSURE_MAX_N states, (I + S)^(2^j) for the support S is squared
    in float32, each product clipped back to 0/1, until it is all positive or
    2^j >= n - 1 covers every shortest path; its entries count at most n
    paths, so float32 is exact. Above it, state 0 must reach every state on
    S and on S^T (`_levels`).
    """
    if P.rows.all():  # a complete digraph, as every smoothed P_hat is
        return True
    n = P.n
    support = P.rows > 0
    if n > _CLOSURE_MAX_N:
        return bool((_levels(support) >= 0).all() and (_levels(support.T) >= 0).all())
    reach = support.astype(np.float32)
    reach.flat[:: n + 1] = 1.0
    span = 1  # reach covers the paths of at most span steps
    while not reach.all():
        if span >= n - 1:
            return False
        reach = reach @ reach
        np.minimum(reach, 1.0, out=reach)
        span *= 2
    return True


def is_aperiodic(P: StochasticMatrix) -> bool:
    """True when the gcd of cycle lengths through state 0 is 1.

    Assumes irreducibility, so a self-loop anywhere (a cycle of length 1)
    settles it at once. Otherwise each state's distance from state 0 on the
    support digraph labels it (`_levels`), and the period is gcd over edges
    (u, v) of level(u) + 1 - level(v).
    """
    if (P.rows.diagonal() > 0).any():
        return True
    support = P.rows > 0
    level = _levels(support)
    u, v = np.nonzero(support)
    return bool(np.gcd.reduce(level[u] + 1 - level[v]) == 1)


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
    return _value(_stationary_batch([P])[0])


def _stationary_batch(Ps: Sequence[StochasticMatrix]) -> list:
    """For each chain (all of one size): `stationary_distribution`, or the
    MixgapError it raises alone.

    The irreducible chains without a memoized pi are solved in one stacked
    solve, which gives each the same bits as solving it alone. A chain whose
    last pi is too small for the rows' defect from 1 (`_solve_stationary`) is
    solved again with its largest pi's equation replaced, and keeps its first
    error if that misses too.
    """
    out: list = [P._stationary[0] if P._stationary else None for P in Ps]
    for i, P in enumerate(Ps):
        if out[i] is None and not is_irreducible(P):
            out[i] = ReducibleChainError("support graph is not strongly connected")
    todo = [i for i, slot in enumerate(out) if slot is None]
    if todo:
        rows = _stack([Ps[i].rows for i in todo])
        pis, residuals, resolved = _solve_stationary(rows, np.full(len(todo), Ps[0].n - 1))
        again = np.flatnonzero(~resolved)
        if again.size:
            redo, _, ok = _solve_stationary(rows[again], np.argmax(pis[again], axis=1))
            pis[again[ok]], resolved[again[ok]] = redo[ok], True
        for i, pi, residual, ok in zip(todo, pis, residuals, resolved.tolist()):
            if ok:
                out[i] = _freeze(pi)
                Ps[i]._stationary.append(out[i])
            else:
                out[i] = NoConvergenceError(
                    f"stationary vector not resolved relative to its entries (residual "
                    f"{np.max(residual):.3e}, smallest entry {np.min(pi):.3e})"
                )
    return out


def _solve_stationary(rows: np.ndarray, replaced: np.ndarray) -> tuple:
    """pi, |pi P - pi| and the STATIONARY_TOL test of each chain, from (P^T - I)
    pi^T = 0 with equation `replaced` swapped for sum(pi) = 1. That equation
    takes the rows' whole defect from 1 (within ROW_SUM_TOL) on its residual. No
    identity is held: I is taken off P^T's flat diagonal, and e_replaced set in zeros."""
    b, n = rows.shape[:2]
    A = np.swapaxes(rows, 1, 2).copy()
    A.reshape(b, n * n)[:, :: n + 1] -= 1.0
    e = np.zeros((b, n, 1))
    A[np.arange(b), replaced] = e[np.arange(b), replaced] = 1.0
    pis = np.linalg.solve(A, e)[..., 0]
    pis /= pis.sum(axis=1, keepdims=True)
    residuals = np.abs((pis[:, None, :] @ rows)[:, 0] - pis)
    return pis, residuals, (residuals < STATIONARY_TOL * pis).all(axis=1)


def time_reversal(P: StochasticMatrix) -> StochasticMatrix:
    """Adjoint of P in l2(pi): P*(x, x') = pi(x') P(x', x) / pi(x); P* solves
    for its own pi from its rows, as every chain does."""
    pi = stationary_distribution(P)
    rows = (P.rows.T * pi[None, :]) / pi[:, None]
    # row x sums to (pi P)(x) / pi(x), which is 1 only to within STATIONARY_TOL
    return StochasticMatrix(rows / rows.sum(axis=1, keepdims=True))


def is_reversible(P: StochasticMatrix) -> bool:
    """True when L = D_pi^{1/2} P D_pi^{-1/2} is symmetric within DETAILED_BALANCE_TOL,
    so that sigma_2(L) is the largest non-Perron eigenvalue modulus. That is
    detailed balance pi(x) P(x,x') = pi(x') P(x',x) relative to sqrt(pi(x) pi(x'))."""
    L = build_L(P)
    return bool(np.abs(L - L.T).max() <= DETAILED_BALANCE_TOL)


def matrix_power(P: StochasticMatrix, k: int) -> StochasticMatrix:
    """k-step transition matrix P^k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    rows = np.linalg.matrix_power(P.rows, k)
    # P's row defects (each within ROW_SUM_TOL) compound over the k factors
    if np.abs(rows.sum(axis=1) - 1.0).max() > ROW_SUM_TOL:
        rows /= rows.sum(axis=1, keepdims=True)
    return StochasticMatrix(rows)


def build_L(P: StochasticMatrix) -> np.ndarray:
    """Similarity rescaling L = D_pi^{1/2} P D_pi^{-1/2}.

    L(x, x') = sqrt(pi(x)) P(x, x') / sqrt(pi(x')); symmetric exactly when P
    is reversible.
    """
    return _rescaled(P.rows, np.sqrt(stationary_distribution(P)))


def _rescaled(A: np.ndarray, root: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """root(x) A(x, x') / root(x') of a matrix or stack (..., n, n), divided in place in a new array
    or in `out` (A itself, if the caller owns A); root = sqrt(pi) gives L = D_pi^{1/2} A D_pi^{-1/2}."""
    L = np.multiply(root[..., :, None], A, out=out)
    L /= root[..., None, :]
    return L


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
        ValueError: if t_max < 1 or threshold is not in (0, 1].
        NotMixedByCapError: if the distance is still >= threshold at t_max.
    """
    if t_max < 1:
        raise ValueError(f"t_max must be >= 1, got {t_max!r}")
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must be in (0, 1], got {threshold!r}")
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
# step over 600-6,000 chunks costs about 15-160 us, more for wider rows of cuts,
# against 0.05 us for one sequential step by table lookup (0.2 us by bisect;
# 2-core host), so lockstep pays only with many chunks. Whether paths merge
# under common random numbers is judged during the first _CHECK_STEP lockstep
# steps, from _PROBES chunks also walked from a second start: on dense and
# sparse random rows nearly all such pairs have met by then, on lazy cycles and
# tori almost none have, and those chains are finished one step at a time.
_CHECK_STEP = 32  # lockstep step at which merging is judged
_PROBES = 16  # chunk pairs walked from two starts up to _CHECK_STEP
_MAX_UNMET = 0.25  # fraction of those pairs still apart that falls back
_BLOCK = 1 << 14  # draws turned into symbols or Python floats, and states collected, at a time
# the sequential walk's symbol table: at most this many entries, each a list
# slot and, past n = 256, its own int object (40 bytes in all), plus two int
# arrays of that size while it is built, so at most about 60 MB whatever m is
_TABLE_ENTRIES = 1 << 20
_BINS = 1 << 12  # most equal bins of [0, 1) that place a draw among the cuts
_BIN_PASSES = 4  # most cuts in one bin before np.searchsorted counts instead


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


def _symbol_rows(cut: np.ndarray, col: np.ndarray, U: np.ndarray) -> np.ndarray:
    """The (n, A) table whose entry [x, s] is the column row x picks for a draw
    with exactly s members of the cut union U at or below it.

    Every finite cut of a row is a member of U, so the row's count of cuts
    <= u equals its count of cuts <= the largest member of U that is <= u:
    the s-th entry of the cumulative count of row x's cuts over U.
    """
    finite = np.isfinite(cut)
    xs = np.nonzero(finite)[0]
    hits = np.zeros((cut.shape[0], U.size + 1), dtype=np.intp)
    # each cut is a member of U, so its left-searched index is its position
    np.add.at(hits, (xs, np.searchsorted(U, cut[finite]) + 1), 1)
    return np.take_along_axis(col, np.cumsum(hits, axis=1), axis=1)


def _symbol_counter(U: np.ndarray, draws: int):
    """The function from draws in [0, 1) to their counts of members of U at or below them.

    The draws fall in G equal bins, G a power of two no larger than _BINS or
    about draws / 8, so u * G and its floor j are exact. base[j] counts the
    members below bin j, and pass i compares u with the i-th member inside
    its bin (+inf where the bin holds fewer), so each count is exact. With
    more than _BIN_PASSES members in some bin, np.searchsorted counts instead.
    """
    G = min(_BINS, 1 << max(0, (draws >> 3).bit_length() - 1))
    edges = np.searchsorted(U, np.arange(G + 1) / G)
    base, inside = edges[:-1], np.diff(edges)
    if inside.max() > _BIN_PASSES:
        return lambda u: np.searchsorted(U, u, side="right")
    padded = np.append(U, np.inf)
    members = [padded[np.where(i < inside, base + i, U.size)] for i in range(inside.max())]

    def count(u: np.ndarray) -> np.ndarray:
        j = (u * G).astype(np.intp)
        s = base[j]
        for member in members:
            s += member[j] <= u
        return s

    return count


def _walk_sequential(
    cut: np.ndarray, col: np.ndarray, size: np.ndarray, u: np.ndarray, out: np.ndarray, m: int,
    walks: Sequence[tuple[int, int]],
) -> None:
    """For each (trial, lo) of walks, fill the trial's out[lo:] one step at a
    time, continuing from its out[lo - 1]; trials hold m states end to end.

    Let U be the distinct finite cuts of all rows and A = |U| + 1. When the
    table of n x A entries is no larger than the draws to walk (nor than
    _TABLE_ENTRIES), each draw becomes its symbol, its count of members of U
    at or below it, which no state changes, and a step is one lookup in
    _symbol_rows; that picks bisect_right's column exactly. Otherwise a step
    bisects the current row's cuts.
    """
    draws = sum(m - lo for _, lo in walks)
    finite = np.sort(cut[np.isfinite(cut)])
    U = finite[np.diff(finite, prepend=-np.inf) > 0]  # np.unique, without its import of numpy.ma
    if cut.shape[0] * (U.size + 1) <= min(draws, _TABLE_ENTRIES):
        rows, symbols = _symbol_rows(cut, col, U).tolist(), _symbol_counter(U, draws)
    else:
        rows = None
        cuts = [tuple(c[: s - 1].tolist()) for c, s in zip(cut, size)]
        cols = [tuple(c[:s].tolist()) for c, s in zip(col, size)]
    for trial, lo in walks:
        b = trial * m
        x = int(out[b + lo - 1])
        for first in range(b + lo, b + m, _BLOCK):
            last = min(first + _BLOCK, b + m)
            # the walrus binds x in this function, so the next block continues from it
            if rows is not None:
                block = [x := rows[x][s] for s in symbols(u[first:last]).tolist()]
            else:
                block = [x := cols[x][bisect_right(cuts[x], ut)] for ut in u[first:last].tolist()]
            out[first:last] = np.fromiter(block, dtype=out.dtype, count=last - first)


def _walk_batch(
    cut: np.ndarray, col: np.ndarray, size: np.ndarray, u: np.ndarray, out: np.ndarray, m: int
) -> None:
    """Fill trials of m states held end to end in out, each from its first state.

    The chunks of every trial run in lockstep, then rerun until consistent.
    Lockstep step j reads the draws and writes the states of every chunk's
    step j through strided views of the (trial, position) grid, with no index
    arrays; on ex31 at m = 1e6 the walk takes about 13 ms, against 18 ms when
    each step gathered and scattered through positions (2-core host). The
    _PROBES probe paths take their own short walk. Every trial hands over to
    _walk_sequential at step _CHECK_STEP + 1 when the probe pairs show that
    paths merge slowly (see _MAX_UNMET), and a trial whose reruns have not
    all met its recorded path within one chunk length hands over at its
    earliest state not yet known to be right. The trials handed over are
    walked in one _walk_sequential call, which builds its table once for all
    of them.
    """
    trials = u.size // m
    length = round(math.sqrt(m) / 2)
    # each trial's first chunk, walked from its true start, must reach the merge check
    if length < _CHECK_STEP:
        _walk_sequential(cut, col, size, u, out, m, [(trial, 1) for trial in range(trials)])
        return
    width = cut.shape[1]
    flat_cut, flat_col = cut.ravel(), col.ravel()
    halves = [width >> i for i in range(1, width.bit_length() - 1)]

    def step(x: np.ndarray, ut: np.ndarray) -> np.ndarray:
        # branchless binary search: the searched prefix of width - 1 cuts
        # ends in +inf, so i - x * width ends as the count of cuts <= ut;
        # the last halving, h = 1, compares at i itself
        i = x * width
        for h in halves:
            i += h * (flat_cut[i + (h - 1)] <= ut)
        i += flat_cut[i] <= ut
        return flat_col[i]

    heads = np.arange(1, m, length)  # first step of each chunk of a trial
    # chunk-major, so the last chunk of every trial sits at the end
    first = (heads[:, None] + np.arange(0, u.size, m)).ravel()
    # each chunk starts from its trial's start, in intp like every state that
    # step walks: its x * width would wrap in the buffer's compact dtype
    guess = np.tile(out[::m].astype(np.intp), heads.size)
    # column 1 + j :: length of a trial's row holds step j of each of its
    # chunks that is that long, so the short last chunk drops out by itself
    u_rows, out_rows = u.reshape(trials, m), out.reshape(trials, m)

    def lockstep(x: np.ndarray, j0: int, j1: int) -> None:
        # x holds the chunks' states as (chunk, trial), like guess
        for j in range(j0, j1):
            ut = u_rows[:, 1 + j :: length].T
            if halves:  # the search reads ut more than once, faster when contiguous
                ut = ut.copy()
            live = ut.shape[0]
            x[:live] = step(x[:live], ut)
            out_rows[:, 1 + j :: length] = x[:live].T

    x = guess.reshape(heads.size, trials).copy()
    lockstep(x, 0, _CHECK_STEP)
    # each probe walks the draws of one of the first chunks from a state other
    # than that chunk's guess; the pairs still apart at _CHECK_STEP judge merging
    n = cut.shape[0]
    probe = (guess[:_PROBES] + 1 + np.arange(_PROBES) * (n - 1) // _PROBES) % n
    for j in range(_CHECK_STEP):
        probe = step(probe, u[first[:_PROBES] + j])
    if np.count_nonzero(probe != x.ravel()[:_PROBES]) > _MAX_UNMET * _PROBES:
        # each trial's first chunk started from its true start
        walks = [(trial, _CHECK_STEP + 1) for trial in range(trials)]
        _walk_sequential(cut, col, size, u, out, m, walks)
        return
    lockstep(x, _CHECK_STEP, length)
    # rerun each chunk whose guessed start was not its predecessor's end, in
    # lockstep; a rerun stops where it meets the recorded path or at the end
    # of its trial, and one that leaves its chunk carries on into the next.
    # Reruns stay whole chunks apart, and one that overwrites a state always
    # moves on to the next, so once none is left every state follows from its
    # predecessor and u.
    t = first[trials:]
    t = np.sort(t[out[t - 1] != guess[trials:]])
    x = out[t - 1].astype(np.intp)
    for _ in range(length):
        x = step(x, u[t])
        met = out[t] == x
        out[t] = x
        t += 1
        keep = ~met & (t % m != 0)
        x, t = x[keep], t[keep]
        if t.size == 0:
            return
    # every state of a trial before its earliest rerun still going is final
    trial, k = np.unique(t // m, return_index=True)
    walks = list(zip(trial.tolist(), (t[k] - trial * m).tolist()))
    _walk_sequential(cut, col, size, u, out, m, walks)


def _simulate_batch(
    P: StochasticMatrix, m: int, seeds: Sequence[int], start: int | np.ndarray | str
) -> list[Trajectory]:
    """``simulate(P, m, start, seed)`` for each seed, all walked together.

    Each trial draws its start and u from its own ``default_rng(seed)``, as
    ``simulate`` does; only the schedule of the walk is shared. The walk
    writes its states into one buffer of the smallest unsigned dtype that
    holds n - 1, and once the draws are freed that buffer is widened to the
    read-only int64 array whose slices are the trials' states. So the peak is
    8 bytes per step plus the buffer's itemsize, not the 16 of the draws and
    states that the refusal below still counts.

    Raises:
        ValueError: for m < 1, a bad start, or a batch whose draws and states
            (16 bytes per step) would not fit in physical memory; the step
            table of `_walk_sequential` adds at most about 60 MB on top.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    steps = len(seeds) * m
    # refuse before allocating, so a huge m is an input error, not a crash
    if 16 * steps > _physical_memory():
        raise ValueError(f"{steps} draws and states exceed physical memory")
    n = P.n
    if isinstance(start, str):
        if start != "stationary":
            raise ValueError(f"unknown start value {start!r}")
        start = stationary_distribution(P)
    p = None
    if np.ndim(start) == 0:
        if np.asarray(start).dtype.kind not in "iu" or not 0 <= start < n:
            raise ValueError(f"start state must be an integer in [0, {n}), got {start!r}")
    else:
        p = np.asarray(start, dtype=float)
        # written so that a NaN entry fails it
        if p.shape != (n,) or not (np.min(p) >= 0 and abs(p.sum() - 1.0) <= 1e-9):
            raise ValueError("start distribution must be a length-n probability vector")
        p = p / p.sum()
    tables = _support_tables(P.rows)
    u, out = np.empty(steps), np.empty(steps, dtype=np.min_scalar_type(n - 1))
    for b, seed in zip(range(0, steps, m), seeds):
        rng = np.random.default_rng(seed)
        out[b] = int(start) if p is None else rng.choice(n, p=p)
        rng.random(out=u[b : b + m])  # the same draws as rng.random(m)
    _walk_batch(*tables, u, out, m)
    del u
    states = out.astype(np.int64)
    states.flags.writeable = False  # so each Trajectory takes its slice without a copy
    return [Trajectory(states[b : b + m], n) for b in range(0, steps, m)]


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
    Propp and Wilson, 1996), so the reruns are short on chains that mix fast.
    A few chunks are also walked from a second start for the first
    _CHECK_STEP steps; when most of those pairs have not met by then, the
    chain's paths merge slowly and the trajectory is finished one step at a
    time. A walk of enough steps does that by table lookup: each draw first
    becomes its count of the distinct cuts of all rows at or below it, which
    fixes the column every row picks (see _walk_sequential).
    ``bench_convergence`` walks the chunks of several trials in the same
    vectors (``_simulate_batch``), with the same output per trial.

    The walk's buffer holds each state in the smallest unsigned dtype that
    holds n - 1 (one byte up to 256 states); the returned states are int64.
    The walk therefore peaks at 8 bytes per step for the draws plus that
    itemsize, and the widening at 8 plus that itemsize once the draws are freed.

    Raises:
        ValueError: for m < 1, a bad start, or an m whose draws and states
            (16 bytes per step) would not fit in physical memory. The step
            table adds at most _TABLE_ENTRIES entries, about 60 MB, at any m.
    """
    return _simulate_batch(P, m, [seed], start)[0]
