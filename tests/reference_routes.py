"""Reference routes and verifiers the tests check the package against; nothing in the package calls them."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from mpmath import mp
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from mixgap.chain import StochasticMatrix, Trajectory, stationary_distribution
from mixgap.errors import NoTriggerError
from mixgap.estimators import AMPLIFIED_PREFIX, AMPLIFIED_THRESHOLD, EstimateReport, _scan
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


def _mp_L(P: StochasticMatrix) -> tuple[list, "mp.matrix"]:
    """pi and L = D_pi^{1/2} P D_pi^{-1/2} at the working precision.

    pi comes from Grassmann-Taksar-Heyman elimination, which subtracts
    nothing, so it is exact entry by entry to that precision. P needs at
    least two states.
    """
    n = P.n
    A = mp.matrix(P.rows.tolist())
    for k in range(n - 1, 0, -1):  # fold state k into states 0..k-1
        out = mp.fsum(A[k, j] for j in range(k))
        for i in range(k):
            A[i, k] /= out
            for j in range(k):
                A[i, j] += A[i, k] * A[k, j]
    pi = [mp.mpf(1)]
    for k in range(1, n):
        pi.append(mp.fsum(pi[i] * A[i, k] for i in range(k)))
    pi = [p / mp.fsum(pi) for p in pi]
    root = [mp.sqrt(p) for p in pi]
    L = mp.matrix(n, n)
    for i in range(n):
        for j in range(n):
            L[i, j] = root[i] * mp.mpf(P.rows[i, j]) / root[j]
    return pi, L


def mp_stationary_and_modulus(P: StochasticMatrix) -> tuple[np.ndarray, float]:
    """pi and |lambda_2(P)|, the largest non-Perron eigenvalue modulus, at 40
    digits, each rounded to float: pi by `_mp_L`, |lambda_2| from mpmath's
    eigenvalues of L, which are those of P. An L symmetric to within 1e-35
    (a symmetric P, whose pi is uniform to the working precision) goes, as
    its symmetric part, to the symmetric solver: on its repeated eigenvalues
    the general QR can stall, and the symmetric part moves each eigenvalue
    by at most that 1e-35 (Bauer-Fike). P needs at least two states."""
    with mp.workdps(40):
        pi, L = _mp_L(P)
        if mp.mnorm(L - L.T, 1) <= mp.mpf("1e-35"):
            eigenvalues = mp.eigsy((L + L.T) / 2, eigvals_only=True)
        else:
            eigenvalues = mp.eig(L, left=False, right=False)
        moduli = sorted((abs(w) for w in eigenvalues), reverse=True)
        return np.array([float(p) for p in pi]), float(moduli[1])


def mp_spectral_gaps(P: StochasticMatrix, k_max: int) -> tuple[float, float]:
    """max_k (1 - sigma_2(L^k)^2) / k and max_k (1 - sigma_2(L^k)) / k over k <= k_max, at 40 digits.

    pi and L come from `_mp_L`, the singular values of each L^k from
    mpmath's SVD; only the two maxima are rounded to float. P needs at least
    two states.
    """
    n = P.n
    with mp.workdps(40):
        _, L = _mp_L(P)
        best_ps = best_dps = mp.mpf(0)
        Lk = mp.eye(n)
        for k in range(1, k_max + 1):
            Lk = Lk * L
            sigma2 = sorted(mp.svd_r(Lk, compute_uv=False), reverse=True)[1]
            best_ps = max(best_ps, (1 - sigma2**2) / k)
            best_dps = max(best_dps, (1 - sigma2) / k)
        return float(best_ps), float(best_dps)


def strongly_connected(rows) -> bool:
    """Irreducibility as scipy's count of strong components of the positive-support digraph."""
    graph = csr_matrix((np.asarray(rows) > 0).astype(np.int8))
    return connected_components(graph, directed=True, connection="strong")[0] == 1


def boolean_power_positive(rows, p: int) -> bool:
    """Whether every entry of S^p is positive for the positive support S, by
    boolean binary exponentiation."""
    base = (np.asarray(rows) > 0).astype(float)
    out = np.eye(base.shape[0])
    while p:
        if p & 1:
            out = ((out @ base) > 0).astype(float)
        base = ((base @ base) > 0).astype(float)
        p >>= 1
    return bool(out.all())


def reaches_everywhere(rows) -> bool:
    """Irreducibility as a reachability closure, (I + S)^(n-1) > 0 for the
    positive support S; no graph search."""
    n = len(rows)
    return boolean_power_positive(np.asarray(rows) + np.eye(n), n - 1)


def tally_counts(states, n: int, k: int = 1) -> np.ndarray:
    """Transition counts of skip k from one int64 bincount of the pair codes x n + x'."""
    s = np.asarray(states, dtype=np.int64)[::k]
    return np.bincount(s[:-1] * n + s[1:], minlength=n * n).reshape(n, n)


def int_tokens(raw: bytes) -> np.ndarray:
    """Text trajectory states from `int()` of every whitespace-separated token of the whole input.

    Each distinct token is parsed once; a bad token is named in input order,
    and a value outside int64 is reported after every token has parsed.
    """
    tokens = raw.split()
    try:
        values = {tok: int(tok) for tok in set(tokens)}
    except ValueError:
        for tok in tokens:  # name the first bad token in input order, not in set order
            int(tok)
        raise
    try:
        return np.array(list(map(values.__getitem__, tokens)), dtype=np.int64)
    except OverflowError as err:
        raise ValueError("state index outside the 64-bit integer range") from err


def gamma_ps_amplified_full_scan(tr: Trajectory) -> EstimateReport:
    """`gamma_ps_amplified` with every level reading all of its skips through `_scan`."""
    scan: dict[int, float] = {}
    k = 1
    while (tr.m - 1) // k >= 2:
        estimate, per_j, J, diagnostics = _scan(tr, AMPLIFIED_PREFIX, step=k)
        scan[k] = estimate
        if estimate > AMPLIFIED_THRESHOLD:
            return EstimateReport(
                estimator="ps-amplified",
                value=estimate / k,
                K_used=J,
                per_k_values=per_j,
                K_star=k,
                diagnostics={**diagnostics, "scan": {str(kk): v for kk, v in scan.items()}},
            )
        k *= 2
    raise NoTriggerError(
        f"skipped trajectory exhausted at skip {k} before exceeding {AMPLIFIED_THRESHOLD}"
    )


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
