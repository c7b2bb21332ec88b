"""Skipped-chain tallying and empirical transition estimates.

For a skip rate k, one `np.bincount` pass over the pairs
(X_{1+k(t-1)}, X_{1+kt}), t = 1..floor((m-1)/k), gives the transition counts
N_{xx'} of the k-skipped chain as a dense n x n int64 table, the only thing
a `SkippedTallies` stores; the visit counts N_x are its row sums. On top of
the counts sit the unsmoothed rescaled matrix N_{xx'}/sqrt(N_x N_{x'}) and
the alpha-smoothed transition/stationary/rescaled estimates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

from .chain import Trajectory, _physical_memory
from .errors import TrajectoryTooShortError, UnvisitedStateError


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

    @property
    def visits(self) -> np.ndarray:
        """Visit counts N_x, the row sums of the counts."""
        return self.counts.sum(axis=1)

    @property
    def transitions(self) -> csr_matrix:
        """The counts as a sparse matrix, built on each access."""
        return csr_matrix(self.counts)

    @property
    def num_pairs(self) -> int:
        """Number of counted transitions, floor((m-1)/k)."""
        return (self.m - 1) // self.k

    @property
    def n_min(self) -> int:
        return int(self.visits.min())

    @property
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
    n = tr.n
    # refuse before allocating, so a huge state index is an input error, not a crash
    if 8 * n * n > _physical_memory():
        raise ValueError(f"an n x n count table for n = {n} exceeds physical memory")
    skipped = tr.states[::k]
    counts = np.bincount(skipped[:-1] * n + skipped[1:], minlength=n * n).reshape(n, n)
    return SkippedTallies(k=k, n=n, m=tr.m, counts=counts)


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
    if not 0.0 < alpha < np.inf:
        raise ValueError(f"alpha must be finite and > 0, got {alpha}")
    n = t.n
    visits = t.visits.astype(float)
    P_hat = (t.counts + alpha) / (visits + n * alpha)[:, None]
    pi_hat = (visits + n * alpha) / (t.num_pairs + n * n * alpha)
    root = np.sqrt(pi_hat)
    L_hat = (root[:, None] * P_hat) / root[None, :]
    return SmoothedEstimates(alpha=alpha, P_hat=P_hat, pi_hat=pi_hat, L_hat=L_hat)
