"""Skipped-chain tallying and empirical transition estimates.

For a skip rate k, `tally` counts the pairs (X_{1+k(t-1)}, X_{1+kt}),
t = 1..floor((m-1)/k), into the dense n x n int64 table N_{xx'}, the only
thing a `SkippedTallies` stores; the visit counts N_x are its row sums. It
bincounts pair codes x n + x' in chunks of max(2^18, n^2) pairs, states in the
smallest unsigned dtype that holds n - 1 and codes in the smallest that holds
n^2 - 1 up to 16 bits, past that in the intp that np.bincount reads. A
trajectory memoizes its compact states and each skip's table within the bytes
of its int64 states; a table past that limit is returned uncached.
On the counts sit N_{xx'}/sqrt(N_x N_{x'}) and the alpha-smoothed estimates.
Everything here runs on numpy; only `SkippedTallies.transitions` imports
scipy.sparse, on first use.
"""

from __future__ import annotations

import threading
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .chain import Trajectory, _physical_memory, _stack
from .errors import TrajectoryTooShortError, UnvisitedStateError

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

_MEMO_LOCK = threading.Lock()  # makes the memo's byte check and insert one step


@dataclass(frozen=True, eq=False)
class SkippedTallies:
    """Transition counts of the k-skipped chain."""

    k: int
    n: int
    m: int
    counts: np.ndarray

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("skip rate must be >= 1")
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.shape != (self.n, self.n):
            raise ValueError("transition counts must be an n x n table")
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)
        if counts.sum() != self.num_pairs:
            raise ValueError("transition counts must sum to floor((m-1)/k)")

    @cached_property
    def visits(self) -> np.ndarray:
        """Visit counts N_x, the row sums of the counts, summed on first use."""
        visits = self.counts.sum(axis=1)
        visits.flags.writeable = False
        return visits

    @property
    def transitions(self) -> csr_matrix:
        """The counts as a sparse matrix, built on each access."""
        from scipy.sparse import csr_matrix

        return csr_matrix(self.counts)

    @property
    def num_pairs(self) -> int:
        """Number of counted transitions, floor((m-1)/k)."""
        return (self.m - 1) // self.k

    @cached_property
    def n_min(self) -> int:
        return int(self.visits.min())

    @cached_property
    def n_max(self) -> int:
        return int(self.visits.max())

    def to_dict(self) -> dict:
        rows, cols = np.nonzero(self.counts)
        return {
            "k": self.k,
            "n": self.n,
            "m": self.m,
            "visits": self.visits.tolist(),
            "transitions": np.column_stack((rows, cols, self.counts[rows, cols])).tolist(),
        }


@dataclass(frozen=True, eq=False)
class SmoothedEstimates:
    """alpha-smoothed transition matrix, stationary estimate, and rescaling."""

    alpha: float
    P_hat: np.ndarray
    pi_hat: np.ndarray
    L_hat: np.ndarray


def tally(tr: Trajectory, k: int = 1) -> SkippedTallies:
    """Count visits and transitions of the k-skipped chain of a trajectory.

    Raises:
        TrajectoryTooShortError: if the trajectory has no pair at skip k.
        ValueError: if the n x n table would not fit in physical memory.
    """
    if k < 1:
        raise ValueError("skip rate must be >= 1")
    if tr.m < k + 1:
        raise TrajectoryTooShortError(
            f"need at least {k + 1} observations for skip {k}, got {tr.m}"
        )
    memo = tr._tallies
    if k in memo:
        return memo[k]
    n = tr.n
    # refuse before allocating, so a huge state index is an input error, not a crash
    if 8 * n * n > _physical_memory():
        raise ValueError(f"an n x n count table for n = {n} exceeds physical memory")
    codes = memo.get("codes")
    if codes is None:
        codes = tr.states.astype(np.min_scalar_type(n - 1))
    src, dst = codes[::k][:-1], codes[::k][1:]
    # np.bincount casts any other dtype to intp, which costs more than uint32 codes save
    pair_dtype = np.min_scalar_type(n * n - 1) if n <= 256 else np.intp
    chunk = max(1 << 18, n * n)
    counts = np.zeros(n * n, dtype=np.int64)
    for lo in range(0, src.size, chunk):
        pairs = src[lo : lo + chunk].astype(pair_dtype) * n + dst[lo : lo + chunk]
        counts += np.bincount(pairs, minlength=n * n)
    t = SkippedTallies(k=k, n=n, m=tr.m, counts=counts.reshape(n, n))
    with _MEMO_LOCK:
        memo.setdefault("codes", codes)
        held = sum(getattr(v, "counts", v).nbytes for v in memo.values())
        if held + counts.nbytes <= tr.states.nbytes:
            memo[k] = t
    return t


def unsmoothed_L_hat(t: SkippedTallies) -> np.ndarray:
    """Entrywise N_{xx'} / sqrt(N_x N_{x'}).

    Raises:
        UnvisitedStateError: when some state has zero visits, listing them.
    """
    zero = np.nonzero(t.visits == 0)[0]
    if zero.size:
        raise UnvisitedStateError(zero)
    root = np.sqrt(t.visits.astype(float))
    return t.counts / np.outer(root, root)


def smoothed_estimates(t: SkippedTallies, alpha: float) -> SmoothedEstimates:
    """alpha-smoothed P_hat, pi_hat and L_hat; well-defined for any counts.

    P_hat(x, x') = (N_{xx'} + a) / (N_x + n a)
    pi_hat(x) = (N_x + n a) / (floor((m-1)/k) + n^2 a)
    L_hat = diag(pi_hat)^{1/2} P_hat diag(pi_hat)^{-1/2}
    """
    P_hat, pi_hat, L_hat = _smoothed_batch([t], alpha)
    return SmoothedEstimates(alpha=alpha, P_hat=P_hat[0], pi_hat=pi_hat[0], L_hat=L_hat[0])


def _smoothed_batch(
    ts: Sequence[SkippedTallies], alpha: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stacks of `smoothed_estimates` P_hat, pi_hat and L_hat of tables over one n.

    Every entry is the same float operation on the same numbers as for one
    table alone, so each matrix of a stack has that table's bits.
    """
    if not 0.0 < alpha < np.inf:
        raise ValueError(f"alpha must be finite and > 0, got {alpha}")
    n = ts[0].n
    pairs = np.array([t.num_pairs for t in ts])
    # with pairs + n^2 alpha infinite, pi_hat would be 0 and L_hat NaN
    if not pairs.max() + n * n * alpha < np.inf:
        raise ValueError(f"alpha must keep n^2 alpha finite, got {alpha} with n = {n}")
    visits = _stack([t.visits for t in ts]).astype(float)
    P_hat = _stack([t.counts for t in ts]) + alpha
    P_hat /= (visits + n * alpha)[:, :, None]
    pi_hat = (visits + n * alpha) / (pairs + n * n * alpha)[:, None]
    root = np.sqrt(pi_hat)
    L_hat = root[:, :, None] * P_hat
    L_hat /= root[:, None, :]
    return P_hat, pi_hat, L_hat
