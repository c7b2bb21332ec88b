"""Reference routes and verifiers the tests check the package against; nothing in the package calls them."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from mixgap.chain import StochasticMatrix, stationary_distribution
from mixgap.oracle import _EIG_MARGIN, full_spectral_report

# rounding allowance of every inequality a sandwich tests
_SLACK = 1e-9


def generic_dilation(A: np.ndarray) -> np.ndarray:
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
    return e


def second_modulus_floor_two_sided(L: np.ndarray, root: np.ndarray | None = None) -> float:
    """The oracle's floor on |lambda_2(P)| from one two-sided dense eig.

    `root`, L's Perron vector sqrt(pi), is accepted so that this route can
    stand in for the oracle's floor, and is not read.

    Every eigenvalue's condition number s_i = |y_i^H x_i| is read off the
    full left and right eigenvector matrices, and the largest discounted
    non-Perron modulus |w_i| - _EIG_MARGIN n eps / s_i, clipped to [0, 1],
    is the floor.
    """
    n = L.shape[0]
    w, vl, vr = scipy.linalg.eig(L, left=True, right=True)
    s = np.abs(np.sum(vl.conj() * vr, axis=0))
    with np.errstate(divide="ignore"):
        lower = np.abs(w) - _EIG_MARGIN * n * np.finfo(float).eps / s
    lower = np.delete(lower, np.argmin(np.abs(w - 1.0)))
    return float(np.clip(lower.max(), 0.0, 1.0))


def strongly_connected(rows) -> bool:
    """Irreducibility as scipy's count of strong components of the positive-support digraph."""
    graph = csr_matrix((np.asarray(rows) > 0).astype(np.int8))
    return connected_components(graph, directed=True, connection="strong")[0] == 1


def tally_counts(states, n: int, k: int = 1) -> np.ndarray:
    """Transition counts of skip k from one int64 bincount of the pair codes x n + x'."""
    s = np.asarray(states, dtype=np.int64)[::k]
    return np.bincount(s[:-1] * n + s[1:], minlength=n * n).reshape(n, n)


@dataclass(frozen=True)
class MixingSandwich:
    t_mix: int
    gamma_ps: float
    gamma_dps: float
    ps_bounds: tuple[float, float]
    dps_bounds: tuple[float, float]
    reversible_bounds: tuple[float, float] | None
    holds: bool


def mixing_time_sandwich(P: StochasticMatrix) -> MixingSandwich:
    """Spectral lower/upper bounds on the brute-force mixing time.

    Pseudo-spectral: 1/(2 gps) <= t_mix <= log(4e/pi_min)/gps.
    Dilated:         1/(4 gdps) <= t_mix <= log(4e/pi_min)/gdps.
    Reversible only: (1/gstar - 1) log 2 <= t_mix <= log(4/pi_min)/gstar.
    """
    report = full_spectral_report(P)
    t = report.t_mix
    pi_min = float(np.min(stationary_distribution(P)))
    log_term = math.log(4.0 * math.e / pi_min)
    ps = (1.0 / (2.0 * report.gamma_ps), log_term / report.gamma_ps)
    dps = (1.0 / (4.0 * report.gamma_dps), log_term / report.gamma_dps)
    rev = None
    if report.gamma_star is not None and report.gamma_star > 0:
        g = report.gamma_star
        rev = ((1.0 / g - 1.0) * math.log(2.0), math.log(4.0 / pi_min) / g)
    bounds = (ps, dps) if rev is None else (ps, dps, rev)
    holds = all(lo <= t + _SLACK and t <= hi + _SLACK for lo, hi in bounds)
    return MixingSandwich(
        t_mix=t,
        gamma_ps=report.gamma_ps,
        gamma_dps=report.gamma_dps,
        ps_bounds=ps,
        dps_bounds=dps,
        reversible_bounds=rev,
        holds=holds,
    )
