"""Fully empirical confidence intervals for the dilated pseudo-spectral gap.

The point estimate, adaptive prefix K_hat and per-skip tallies come from the
scan behind `gamma_dps_hat`. This module adds the per-skip terms W, V, T, U
and the confidence split delta_hat, and assembles the final interval
point +/- (1/K_hat + max_k (V + U(2+U))/k), clipped to [0, 1]. Whenever the
U term blows up (a smoothed visit frequency falls at or below T) the interval
degrades to the vacuous [0, 1] with a flag instead of failing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chain import StochasticMatrix, Trajectory, _report_dict
from .errors import NonconvergentGapError
from .estimators import DEFAULT_ALPHA, _dps_scan
from .oracle import spectral_gaps
from .tallies import SkippedTallies, smoothed_estimates

DEFAULT_C = 48.0
DEFAULT_DELTA = 0.05
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
        return _report_dict(self)


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

    +inf when the empirical pseudo-spectral gap is numerically zero, which
    makes U infinite and the interval vacuous.
    """
    if gamma_ps_of_Phat <= DEGENERATE_GAP_TOL:
        return math.inf
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
    """Exact pseudo-spectral gap of the alpha-smoothed P_hat, or 0 if no certificate closes."""
    P_hat = StochasticMatrix(smoothed_estimates(t, alpha).P_hat)
    try:
        return spectral_gaps(P_hat).gamma_ps
    except NonconvergentGapError:
        return 0.0


def confidence_interval(
    tr: Trajectory,
    alpha: float = DEFAULT_ALPHA,
    delta: float = DEFAULT_DELTA,
    c: float = DEFAULT_C,
) -> ConfidenceReport:
    """Empirical confidence interval around the smoothed dilation estimator.

    The point estimate is the plug-in gamma over the adaptive prefix K_hat;
    the half-width is 1/K_hat plus the worst per-skip V + U(2 + U) scaled by
    the skip rate. A blown-up U (or an empirical gap inside T that is zero or
    cannot be certified) yields the vacuous interval [0, 1] with the flag set.
    A trajectory with m < 3 raises the scan's TrajectoryTooShortError.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"alpha must be finite and > 0, got {alpha}")
    if not 0.0 <= c < math.inf:
        raise ValueError(f"c must be finite and >= 0, got {c}")
    m, n = tr.m, tr.n
    estimate, tallies_by_k = _dps_scan(tr, alpha, None)
    point, K_hat = estimate.value, estimate.K_used
    d_hat = delta_hat(m, K_hat, n, delta)

    per_k_terms: dict[int, dict[str, float]] = {}
    worst = 0.0
    diagnostics: dict = {"c": c}
    for k, t in tallies_by_k.items():
        W = term_W(t, alpha, d_hat)
        V = term_V(t, alpha, W)
        gps = empirical_gamma_ps(t, alpha)
        if gps <= DEGENERATE_GAP_TOL:
            diagnostics["degenerate_empirical_gap_k"] = k
        T = term_T(t, alpha, W, gps, c=c)
        U = term_U(t, alpha, T)
        per_k_terms[k] = {"W": W, "V": V, "T": T, "U": U}
        worst = max(worst, (V + U * (2.0 + U)) / k)
    half_width = 1.0 / K_hat + worst
    # V is always finite, so the half-width is infinite exactly when some U is
    vacuous = not math.isfinite(half_width)
    lo, hi = (0.0, 1.0) if vacuous else (point - half_width, point + half_width)
    return ConfidenceReport(
        point=point,
        half_width=half_width,
        interval=(max(lo, 0.0), min(hi, 1.0)),
        per_k_terms=per_k_terms,
        delta_hat=d_hat,
        K_hat=K_hat,
        alpha=alpha,
        delta=delta,
        m=m,
        vacuous=vacuous,
        diagnostics=diagnostics,
    )
