"""Exact spectral-gap oracles for a known transition matrix.

Computes the absolute spectral gap, the per-skip gaps of the multiplicative
reversiblization and of the reversible dilation, and the (dilated)
pseudo-spectral gap via a self-terminating loop over skip rates. Also houses
verifier routines for the gap inequalities used as ground truth by the test
suite, and the spectral mixing-time sandwiches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import eigensolve
from .chain import (
    StochasticMatrix,
    build_L,
    is_reversible,
    matrix_power,
    mixing_time,
    stationary_distribution,
    stationary_projector,
)
from .errors import NonconvergentGapError

DEFAULT_K_CAP = 1000


@dataclass(frozen=True)
class SpectralReport:
    """Exact spectral quantities of a known chain."""

    gamma_ps: float
    gamma_dps: float
    k_ps: int
    k_dps: int
    k_explored: int
    gamma_dagger_at_k: dict[int, float]
    gamma_ddagger_at_k: dict[int, float]
    gamma_star: float | None = None
    t_mix: int | None = None

    def to_dict(self) -> dict:
        return {
            "gamma_ps": self.gamma_ps,
            "gamma_dps": self.gamma_dps,
            "k_ps": self.k_ps,
            "k_dps": self.k_dps,
            "k_explored": self.k_explored,
            "gamma_dagger_at_k": {str(k): v for k, v in self.gamma_dagger_at_k.items()},
            "gamma_ddagger_at_k": {str(k): v for k, v in self.gamma_ddagger_at_k.items()},
            "gamma_star": self.gamma_star,
            "t_mix": self.t_mix,
        }


def _sigma2(Lk: np.ndarray) -> float:
    """sigma_2(L^k), clipped to at most 1."""
    return min(eigensolve.second_singular_value(Lk), 1.0)


def _sigma2_of_power(P: StochasticMatrix, k: int) -> float:
    if k < 1:
        raise ValueError("k must be >= 1")
    return _sigma2(np.linalg.matrix_power(build_L(P), k))


def gamma_dagger(P: StochasticMatrix, k: int = 1) -> float:
    """Gap of the multiplicative reversiblization of P^k: 1 - sigma_2(L^k)^2."""
    return 1.0 - _sigma2_of_power(P, k) ** 2


def gamma_ddagger(P: StochasticMatrix, k: int = 1) -> float:
    """Gap of the reversible dilation of P^k: 1 - sigma_2(L^k)."""
    return 1.0 - _sigma2_of_power(P, k)


def absolute_spectral_gap(P: StochasticMatrix) -> float:
    """Absolute spectral gap 1 - max{|lambda| : lambda in sigma(P), |lambda| != 1}.

    For reversible chains L is symmetric, so its singular values are the
    moduli of its eigenvalues and the largest non-Perron modulus is
    sigma_2(L); for non-reversible chains (diagnostics only) the complex
    spectrum is used with the Perron eigenvalue removed.
    """
    if is_reversible(P):
        rho = eigensolve.second_singular_value(build_L(P))
    else:
        eigs = np.linalg.eigvals(P.rows)
        perron = int(np.argmin(np.abs(eigs - 1.0)))
        rest = np.delete(eigs, perron)
        rho = float(np.max(np.abs(rest))) if rest.size else 0.0
    return float(min(max(1.0 - rho, 0.0), 1.0))


def spectral_gaps(P: StochasticMatrix, k_cap: int = DEFAULT_K_CAP) -> SpectralReport:
    """Exact pseudo-spectral and dilated pseudo-spectral gaps of P.

    Iterates k = 1, 2, ... computing both per-skip gaps from sigma_2(L^k).
    Because each per-skip value is at most 1/k, the loop stops as
    soon as k * best >= 1 for both running maxima: no unexplored skip rate can
    improve either gap, which makes the result exact rather than truncated.

    Raises:
        NonconvergentGapError: if every per-skip gap up to k_cap is zero,
            which means a non-ergodic matrix slipped through.
    """
    L = build_L(P)
    gamma_dagger_at_k: dict[int, float] = {}
    gamma_ddagger_at_k: dict[int, float] = {}
    best_ps, k_ps = 0.0, 0
    best_dps, k_dps = 0.0, 0
    Lk = np.eye(P.n)
    k = 0
    while True:
        k += 1
        Lk = Lk @ L
        sigma2 = _sigma2(Lk)
        gd = 1.0 - sigma2**2
        gdd = 1.0 - sigma2
        gamma_dagger_at_k[k] = gd
        gamma_ddagger_at_k[k] = gdd
        if gd / k > best_ps:
            best_ps, k_ps = gd / k, k
        if gdd / k > best_dps:
            best_dps, k_dps = gdd / k, k
        if best_dps > 0.0:
            # dps certificate dominates: 1/best_dps >= 1/best_ps
            if (k + 1) * best_dps >= 1.0:
                break
        elif k >= k_cap:
            raise NonconvergentGapError(
                f"all per-skip gaps are zero up to k = {k_cap}; input looks non-ergodic"
            )
    gamma_star = absolute_spectral_gap(P) if is_reversible(P) else None
    return SpectralReport(
        gamma_ps=best_ps,
        gamma_dps=best_dps,
        k_ps=k_ps,
        k_dps=k_dps,
        k_explored=k,
        gamma_dagger_at_k=gamma_dagger_at_k,
        gamma_ddagger_at_k=gamma_ddagger_at_k,
        gamma_star=gamma_star,
    )


def full_spectral_report(P: StochasticMatrix, k_cap: int = DEFAULT_K_CAP) -> SpectralReport:
    """Spectral report including the brute-force mixing time."""
    report = spectral_gaps(P, k_cap=k_cap)
    return replace(report, t_mix=mixing_time(P))


def pi_norm(A: np.ndarray, pi: np.ndarray) -> float:
    """Operator norm of A on l2(pi), via conjugation with D_pi^{1/2}."""
    s = np.sqrt(pi)
    return float(np.linalg.norm((s[:, None] * A) / s[None, :], 2))


def reversiblization_norm(P: StochasticMatrix, k: int) -> float:
    """||(P* - Pi)^k (P - Pi)^k||_pi, computed through explicit matrix powers.

    Equals 1 - gamma_dagger(P^k); kept as an independent route for the
    oracle cross-checks.
    """
    pi = stationary_distribution(P)
    Pi = stationary_projector(P)
    Pstar = (P.rows.T * pi[None, :]) / pi[:, None]
    A = np.linalg.matrix_power(Pstar - Pi, k)
    B = np.linalg.matrix_power(P.rows - Pi, k)
    return pi_norm(A @ B, pi)


@dataclass(frozen=True)
class LemmaCheck:
    name: str
    params: dict
    lhs: float
    rhs: float
    passed: bool


@dataclass(frozen=True)
class LemmaLedger:
    checks: list[LemmaCheck] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def violations(self) -> list[LemmaCheck]:
        return [c for c in self.checks if not c.passed]

    def to_dict(self) -> dict:
        return {
            "all_passed": self.all_passed,
            "checks": [
                {
                    "name": c.name,
                    "params": c.params,
                    "lhs": c.lhs,
                    "rhs": c.rhs,
                    "passed": c.passed,
                }
                for c in self.checks
            ],
        }


def verify_lemma_properties(
    P: StochasticMatrix, k_max: int = 10, slack: float = 1e-9
) -> LemmaLedger:
    """Check the gap inequalities relating skipped chains against P.

    Covers the sub-multiplicativity of the reversiblization norms
    (lhs <= rhs + slack convention throughout):
      * norm(r+s) <= norm(r) * norm(s) for r + s <= k_max,
      * p*gps*(1 - p*k_ps*gps/2) <= gps(P^p) <= p*gps for p <= k_max,
      * gps(P^p) > 1/2 for p >= 2^ceil(log2(1/gps)),
      * gps(P^p) > p*gps/(2*log(4e/pi_min) + 2) for p < 1/gps.
    """
    if k_max > 20:
        raise ValueError("k_max above 20 is not supported")
    checks: list[LemmaCheck] = []
    pi = stationary_distribution(P)
    norms = {j: reversiblization_norm(P, j) for j in range(1, k_max + 1)}
    for r in range(1, k_max):
        for s in range(r, k_max - r + 1):
            lhs, rhs = norms[r + s], norms[r] * norms[s]
            checks.append(
                LemmaCheck("sub_multiplicativity", {"r": r, "s": s}, lhs, rhs, lhs <= rhs + slack)
            )

    base = spectral_gaps(P)
    gps, k_ps = base.gamma_ps, base.k_ps
    skipped = {}
    for p in range(1, k_max + 1):
        skipped[p] = spectral_gaps(matrix_power(P, p)).gamma_ps if p > 1 else gps

    for p in range(1, k_max + 1):
        lower = p * gps * (1.0 - p * k_ps * gps / 2.0)
        checks.append(
            LemmaCheck("skipped_gap_lower", {"p": p}, lower, skipped[p], lower <= skipped[p] + slack)
        )
        checks.append(
            LemmaCheck("skipped_gap_upper", {"p": p}, skipped[p], p * gps, skipped[p] <= p * gps + slack)
        )

    p_big = 2 ** math.ceil(math.log2(1.0 / gps)) if gps < 1.0 else 1
    for p in range(p_big, k_max + 1):
        checks.append(
            LemmaCheck("large_skip_half", {"p": p}, 0.5, skipped[p], 0.5 <= skipped[p] + slack)
        )

    pi_min = float(np.min(pi))
    denom = 2.0 * math.log(4.0 * math.e / pi_min) + 2.0
    for p in range(1, k_max + 1):
        if p < 1.0 / gps:
            lower = p * gps / denom
            checks.append(
                LemmaCheck("small_skip_shim", {"p": p}, lower, skipped[p], lower <= skipped[p] + slack)
            )
    return LemmaLedger(checks)


@dataclass(frozen=True)
class MixingSandwich:
    t_mix: int
    gamma_ps: float
    gamma_dps: float
    ps_bounds: tuple[float, float]
    dps_bounds: tuple[float, float]
    reversible_bounds: tuple[float, float] | None
    holds: bool

    def to_dict(self) -> dict:
        return {
            "t_mix": self.t_mix,
            "gamma_ps": self.gamma_ps,
            "gamma_dps": self.gamma_dps,
            "ps_bounds": list(self.ps_bounds),
            "dps_bounds": list(self.dps_bounds),
            "reversible_bounds": list(self.reversible_bounds)
            if self.reversible_bounds
            else None,
            "holds": self.holds,
        }


def mixing_time_sandwich(P: StochasticMatrix, slack: float = 1e-9) -> MixingSandwich:
    """Spectral lower/upper bounds on the brute-force mixing time.

    Pseudo-spectral: 1/(2 gps) <= t_mix <= log(4e/pi_min)/gps.
    Dilated:         1/(4 gdps) <= t_mix <= log(4e/pi_min)/gdps.
    Reversible only: (1/gstar - 1) log 2 <= t_mix <= log(4/pi_min)/gstar.
    """
    report = spectral_gaps(P)
    t = mixing_time(P)
    pi_min = float(np.min(stationary_distribution(P)))
    log_term = math.log(4.0 * math.e / pi_min)
    ps = (1.0 / (2.0 * report.gamma_ps), log_term / report.gamma_ps)
    dps = (1.0 / (4.0 * report.gamma_dps), log_term / report.gamma_dps)
    holds = ps[0] <= t + slack and t <= ps[1] + slack
    holds = holds and dps[0] <= t + slack and t <= dps[1] + slack
    rev = None
    if report.gamma_star is not None and report.gamma_star > 0:
        g = report.gamma_star
        rev = ((1.0 / g - 1.0) * math.log(2.0), math.log(4.0 / pi_min) / g)
        holds = holds and rev[0] <= t + slack and t <= rev[1] + slack
    return MixingSandwich(
        t_mix=t,
        gamma_ps=report.gamma_ps,
        gamma_dps=report.gamma_dps,
        ps_bounds=ps,
        dps_bounds=dps,
        reversible_bounds=rev,
        holds=holds,
    )
