"""Point estimators computed from a single observed trajectory.

Implements the minimum-stationary-probability statistic, the truncated
empirical pseudo-spectral gap over a skip prefix, its additive-error and
adaptive-prefix instantiations, the amplified constant-multiplicative-error
estimator, and the smoothed dilation plug-in estimator with its data-driven
prefix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import eigensolve
from .chain import Trajectory
from .errors import NoTriggerError, NoUsableKError, TrajectoryTooShortError, UnvisitedStateError
from .tallies import SkippedTallies, smoothed_estimates, tally, unsmoothed_L_hat

DEFAULT_ALPHA = 1e-2
AMPLIFIED_PREFIX = 16
AMPLIFIED_THRESHOLD = 3.0 / 8.0


@dataclass(frozen=True)
class EstimateReport:
    """Result of one estimator run."""

    estimator: str
    value: float
    K_used: int
    per_k_values: dict[int, float] = field(default_factory=dict)
    K_star: int | None = None
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "estimator": self.estimator,
            "value": self.value,
            "K_used": self.K_used,
            "per_k_values": {str(k): v for k, v in self.per_k_values.items()},
            "K_star": self.K_star,
            "diagnostics": self.diagnostics,
        }


def skip_trajectory(tr: Trajectory, k: int) -> Trajectory:
    """The k-skipped trajectory X_1, X_{1+k}, ..., X_{1+floor((m-1)/k)k}."""
    if k < 1:
        raise ValueError("skip rate must be >= 1")
    return Trajectory(tr.states[::k].copy(), tr.n)


def pi_star_hat(tr: Trajectory) -> float:
    """Minimum-visit-frequency statistic N_min / (m - 1).

    Returns 0 when some state was never visited.
    """
    t = tally(tr, 1)
    return t.n_min / (tr.m - 1)


def _prefix_cap(tr: Trajectory, K: int) -> int:
    # skips with no complete pair cannot be tallied at all
    return min(K, tr.m - 1)


def gamma_ps_prefix_hat(tr: Trajectory, K: int) -> EstimateReport:
    """Truncated empirical pseudo-spectral gap over skips 1..K.

    Per skip k the gap is 1 - sigma_2(L_hat)^2 of the unsmoothed tally
    matrix; skips whose tallies leave states unvisited are skipped and
    recorded in diagnostics rather than aborting the maximum.

    Raises:
        NoUsableKError: if every skip in the prefix is unusable.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    per_k: dict[int, float] = {}
    skipped: list[int] = []
    for k in range(1, _prefix_cap(tr, K) + 1):
        t = tally(tr, k)
        try:
            L_hat = unsmoothed_L_hat(t)
        except UnvisitedStateError:
            skipped.append(k)
            continue
        per_k[k] = 1.0 - eigensolve.second_singular_value(L_hat) ** 2
    if not per_k:
        raise NoUsableKError(f"no usable skip rate in 1..{K}")
    value = max(g / k for k, g in per_k.items())
    diagnostics = {"skipped_k": skipped} if skipped else {}
    return EstimateReport(
        estimator="ps-prefix",
        value=float(min(max(value, 0.0), 1.0)),
        K_used=K,
        per_k_values=per_k,
        diagnostics=diagnostics,
    )


def gamma_ps_additive(tr: Trajectory, epsilon: float) -> EstimateReport:
    """Prefix estimator with K = ceil(2/epsilon), the additive-error schedule."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be in (0, 1)")
    K = math.ceil(2.0 / epsilon)
    report = gamma_ps_prefix_hat(tr, K)
    return EstimateReport(
        estimator="ps-additive",
        value=report.value,
        K_used=K,
        per_k_values=report.per_k_values,
        diagnostics={**report.diagnostics, "epsilon": epsilon},
    )


def gamma_ps_amplified(
    tr: Trajectory,
    prefix: int = AMPLIFIED_PREFIX,
    threshold: float = AMPLIFIED_THRESHOLD,
) -> EstimateReport:
    """Amplified estimator: scan skip powers of two until the gap exceeds 3/8.

    At each p = 0, 1, 2, ... the prefix-16 estimator runs on the 2^p-skipped
    trajectory; the first p whose estimate exceeds the threshold stops the
    scan and the output is that estimate divided by 2^p.

    Raises:
        NoTriggerError: if the skipped data runs out before the threshold fires.
    """
    scan: dict[int, float] = {}
    p = 0
    while True:
        k = 2**p
        sub = skip_trajectory(tr, k) if k > 1 else tr
        if sub.m < 3:
            raise NoTriggerError(
                f"skipped trajectory exhausted at skip {k} before exceeding {threshold}"
            )
        try:
            inner = gamma_ps_prefix_hat(sub, prefix)
            estimate = inner.value
        except NoUsableKError:
            inner = None
            estimate = 0.0
        scan[k] = estimate
        if estimate > threshold:
            return EstimateReport(
                estimator="ps-amplified",
                value=float(min(max(estimate / k, 0.0), 1.0)),
                K_used=prefix,
                per_k_values=inner.per_k_values if inner else {},
                K_star=k,
                diagnostics={"scan": {str(kk): v for kk, v in scan.items()}},
            )
        p += 1


def adaptive_K_multiplicative(n_min: int, epsilon: float) -> tuple[int, bool]:
    """Data-driven prefix ceil((N_min/epsilon)^{1/3}); returns (K, clamped)."""
    K = math.ceil((n_min / epsilon) ** (1.0 / 3.0))
    return (K, False) if K >= 1 else (1, True)


def gamma_ps_adaptive_multiplicative(tr: Trajectory, epsilon: float) -> EstimateReport:
    """Prefix estimator with the data-driven K = ceil((N_min/epsilon)^{1/3})."""
    if not 0.0 < epsilon < 5.0:
        raise ValueError("epsilon must be in (0, 5)")
    n_min = tally(tr, 1).n_min
    K, clamped = adaptive_K_multiplicative(n_min, epsilon)
    report = gamma_ps_prefix_hat(tr, K)
    diagnostics = {**report.diagnostics, "epsilon": epsilon, "N_min": n_min}
    if clamped:
        diagnostics["K_clamped"] = True
    return EstimateReport(
        estimator="ps-adaptive",
        value=report.value,
        K_used=K,
        per_k_values=report.per_k_values,
        diagnostics=diagnostics,
    )


def adaptive_K_dps(n_min: int, m: int) -> int:
    """Data-driven prefix ceil(N_min^{3/2} / (m log^{3/2} m)), clamped to >= 1."""
    if m < 3:
        raise ValueError("m must be >= 3")
    K = math.ceil(n_min**1.5 / (m * math.log(m) ** 1.5))
    return max(K, 1)


def dilation_gap_of_smoothed(t: SkippedTallies, alpha: float) -> float:
    """Per-skip dilation gap 1 - sigma_2(L_hat) of the alpha-smoothed tallies.

    Equals 2 - lambda_2(S(L_hat) + I), since the dilation S(L_hat) has
    eigenvalues +/- the singular values of L_hat.
    """
    return 1.0 - eigensolve.second_singular_value(smoothed_estimates(t, alpha).L_hat)


def gamma_dps_from_tallies(
    tallies_by_k: dict[int, SkippedTallies], alpha: float
) -> tuple[float, dict[int, float]]:
    """Smoothed dilation plug-in over explicit per-skip tallies."""
    per_k = {k: dilation_gap_of_smoothed(t, alpha) for k, t in sorted(tallies_by_k.items())}
    value = max((g / k for k, g in per_k.items()), default=0.0)
    return float(min(max(value, 0.0), 1.0)), per_k


def gamma_dps_hat(
    tr: Trajectory, alpha: float = DEFAULT_ALPHA, K: int | None = None
) -> EstimateReport:
    """Smoothed dilation plug-in estimator of the dilated pseudo-spectral gap.

    With K omitted, the prefix is the adaptive ceil(N_min^{3/2}/(m log^{3/2} m)).
    Smoothing keeps every skip usable, so there is no unvisited-state failure
    mode here.
    """
    if tr.m < 3:
        raise TrajectoryTooShortError("need m >= 3 for the smoothed estimator")
    diagnostics: dict = {}
    if K is None:
        n_min = tally(tr, 1).n_min
        K = adaptive_K_dps(n_min, tr.m)
        diagnostics["N_min"] = n_min
        diagnostics["K_adaptive"] = True
        if n_min == 0:
            diagnostics["K_clamped"] = True
    elif K < 1:
        raise ValueError("K must be >= 1")
    tallies_by_k = {k: tally(tr, k) for k in range(1, _prefix_cap(tr, K) + 1)}
    value, per_k = gamma_dps_from_tallies(tallies_by_k, alpha)
    return EstimateReport(
        estimator="dps",
        value=value,
        K_used=K,
        per_k_values=per_k,
        diagnostics={**diagnostics, "alpha": alpha},
    )
