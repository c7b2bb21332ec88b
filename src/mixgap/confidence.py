"""Fully empirical confidence intervals for the dilated pseudo-spectral gap.

Implements the per-skip interval terms W, V, T, U, the adaptive confidence
split delta_hat and prefix K_hat, and assembles the final interval
point +/- (1/K_hat + max_k (V + U(2+U))/k), clipped to [0, 1]. Whenever the
U term blows up (a smoothed visit frequency falls at or below T) the interval
degrades to the vacuous [0, 1] with a flag instead of failing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chain import StochasticMatrix, Trajectory, stationary_distribution
from .errors import DegenerateEmpiricalGapError
from .estimators import adaptive_K_dps, gamma_dps_from_tallies
from .oracle import spectral_gaps
from .tallies import SkippedTallies, smoothed_estimates, tally

DEFAULT_C = 48.0
DEGENERATE_GAP_TOL = 1e-12


@dataclass(frozen=True)
class ConfidenceReport:
    point: float
    half_width: float
    interval: tuple[float, float]
    per_k_terms: dict[int, dict[str, float]]
    delta_hat: float
    K_hat: int
    alpha: float
    delta: float
    m: int
    vacuous: bool
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "point": self.point,
            "half_width": self.half_width,
            "interval": list(self.interval),
            "per_k_terms": {str(k): v for k, v in self.per_k_terms.items()},
            "delta_hat": self.delta_hat,
            "K_hat": self.K_hat,
            "alpha": self.alpha,
            "delta": self.delta,
            "m": self.m,
            "vacuous": self.vacuous,
            "diagnostics": self.diagnostics,
        }


def term_W(t: SkippedTallies, alpha: float, delta: float) -> float:
    """Transition-learning term: twice the worst per-state TV bound."""
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    n = t.n
    visits = t.visits.astype(float)
    root_sums = np.sqrt(t.counts).sum(axis=1)
    # with zero pairs every count is zero and the log factor has weight 0
    log_term = math.sqrt(math.log(2.0 * t.num_pairs * n / delta)) if t.num_pairs else 0.0
    numer = root_sums + 3.0 * np.sqrt(visits / 2.0) * log_term + alpha * n
    denom = visits + alpha * n
    return 2.0 * float(np.max(numer / denom))


def term_V(t: SkippedTallies, alpha: float, W: float) -> float:
    """Stationary-rescaling term sqrt(n) (N_max + an)/(N_min + an) W."""
    if W < 0:
        raise ValueError("W must be >= 0")
    n = t.n
    return math.sqrt(n) * (t.n_max + alpha * n) / (t.n_min + alpha * n) * W


def term_T(
    t: SkippedTallies,
    alpha: float,
    W: float,
    gamma_ps_of_Phat: float,
    c: float = DEFAULT_C,
) -> float:
    """Mixing-rate term (c / gps(P_hat)) log(2 sqrt(2(pairs + an^2)/(N_min + an))) W.

    Raises:
        DegenerateEmpiricalGapError: if the empirical pseudo-spectral gap is
            numerically zero, in which case the interval must go vacuous.
    """
    if gamma_ps_of_Phat <= DEGENERATE_GAP_TOL:
        raise DegenerateEmpiricalGapError(
            f"pseudo-spectral gap of the smoothed matrix is {gamma_ps_of_Phat:.3e}"
        )
    n = t.n
    inner = 2.0 * math.sqrt(2.0 * (t.num_pairs + alpha * n * n) / (t.n_min + alpha * n))
    return c / gamma_ps_of_Phat * math.log(inner) * W


def term_U(t: SkippedTallies, alpha: float, T: float) -> float:
    """Frequency-relative term; +inf exactly when some frequency <= T."""
    if T < 0:
        raise ValueError("T must be >= 0")
    if T == 0.0:
        return 0.0
    n = t.n
    freq = (t.visits.astype(float) + alpha * n) / (t.num_pairs + alpha * n * n)
    slack = freq - T
    if np.min(slack) <= 0.0:
        return math.inf
    return 0.5 * float(max(np.max(T / freq), np.max(T / slack)))


def delta_hat(m: int, K_hat: int, n: int, delta: float) -> float:
    """Per-skip confidence split sqrt(log^3 m / m) * delta / (K_hat n)."""
    return math.sqrt(math.log(m) ** 3 / m) * delta / (K_hat * n)


def empirical_gamma_ps(t: SkippedTallies, alpha: float) -> float:
    """Exact pseudo-spectral gap of the alpha-smoothed transition matrix."""
    P_hat = StochasticMatrix(smoothed_estimates(t, alpha).P_hat)
    return spectral_gaps(P_hat).gamma_ps


def confidence_interval(
    tr: Trajectory,
    alpha: float = 1e-2,
    delta: float = 0.05,
    c: float = DEFAULT_C,
) -> ConfidenceReport:
    """Empirical confidence interval around the smoothed dilation estimator.

    The point estimate is the plug-in gamma over the adaptive prefix K_hat;
    the half-width is 1/K_hat plus the worst per-skip V + U(2 + U) scaled by
    the skip rate. A blown-up U (or a degenerate empirical gap inside T)
    yields the vacuous interval [0, 1] with the flag set.
    """
    if tr.m < 3:
        raise ValueError("need m >= 3")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    m, n = tr.m, tr.n
    base = tally(tr, 1)
    K_hat = adaptive_K_dps(base.n_min, m)
    d_hat = delta_hat(m, K_hat, n, delta)
    usable_K = min(K_hat, m - 1)
    tallies_by_k = {k: (base if k == 1 else tally(tr, k)) for k in range(1, usable_K + 1)}
    point, _ = gamma_dps_from_tallies(tallies_by_k, alpha)

    per_k_terms: dict[int, dict[str, float]] = {}
    worst = 0.0
    vacuous = False
    diagnostics: dict = {"c": c}
    for k, t in tallies_by_k.items():
        W = term_W(t, alpha, d_hat)
        V = term_V(t, alpha, W)
        try:
            T = term_T(t, alpha, W, empirical_gamma_ps(t, alpha), c=c)
            U = term_U(t, alpha, T)
        except DegenerateEmpiricalGapError:
            T = math.inf
            U = math.inf
            diagnostics["degenerate_empirical_gap_k"] = k
        per_k_terms[k] = {"W": W, "V": V, "T": T, "U": U}
        worst = max(worst, (V + U * (2.0 + U)) / k)
        if not math.isfinite(U):
            vacuous = True
    half_width = 1.0 / K_hat + worst
    if vacuous or not math.isfinite(half_width):
        vacuous = True
        interval = (0.0, 1.0)
    else:
        interval = (max(point - half_width, 0.0), min(point + half_width, 1.0))
    return ConfidenceReport(
        point=point,
        half_width=half_width,
        interval=interval,
        per_k_terms=per_k_terms,
        delta_hat=d_hat,
        K_hat=K_hat,
        alpha=alpha,
        delta=delta,
        m=m,
        vacuous=vacuous,
        diagnostics=diagnostics,
    )


def gamma_diagnostic(P: StochasticMatrix) -> float:
    """Row-sparsity diagnostic max_x ||e_x P||_{1/2} / pi(x).

    ||v||_{1/2} = (sum_i sqrt(|v_i|))^2; always at most n / pi_min.
    """
    pi = stationary_distribution(P)
    half_norms = np.sqrt(P.rows).sum(axis=1) ** 2
    value = float(np.max(half_norms / pi))
    bound = P.n / float(np.min(pi))
    if value > bound * (1.0 + 1e-9):
        raise AssertionError(f"diagnostic {value} exceeded its bound {bound}")
    return value
