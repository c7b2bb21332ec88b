"""Point estimators computed from a single observed trajectory.

Every estimator is a function of per-skip count tables (`SkippedTallies`);
the trajectory-level entry points only choose which skips to tally. Each
pseudo-spectral estimator reads its per-skip gaps through one per-call memo
`_ps_gaps`, which tallies and solves each distinct skip once, and reduces
them with `_ps_reduce`. That serves the truncated prefix estimator, its
additive-error and adaptive-prefix schedules, and each level of the
amplified scan, which reads skips 2^p j of the trajectory itself.
The smoothed dilation reduce `gamma_dps_from_tallies` serves `_dps_scan`,
which the confidence interval shares with `gamma_dps_hat`.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace

from . import eigensolve
from .chain import Trajectory, _report_dict
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
        return _report_dict(self)


def pi_star_hat(tr: Trajectory) -> float:
    """Minimum-visit-frequency statistic N_min / (m - 1).

    Returns 0 when some state was never visited.
    """
    t = tally(tr, 1)
    return t.n_min / (tr.m - 1)


def _prefix_cap(tr: Trajectory, K: int) -> int:
    # skips with no complete pair cannot be tallied at all
    return min(K, tr.m - 1)


def _best_rate(per_k: dict[int, float]) -> float:
    """max_k gap_k / k clipped to [0, 1]; 0 when no skip is usable."""
    value = max((g / k for k, g in per_k.items()), default=0.0)
    return float(min(max(value, 0.0), 1.0))


def _ps_gap(t: SkippedTallies) -> float | None:
    """1 - sigma_2(L_hat)^2 of unsmoothed tallies; None when a state is unvisited."""
    try:
        L_hat = unsmoothed_L_hat(t)
    except UnvisitedStateError:
        return None
    return 1.0 - eigensolve.second_singular_value(L_hat) ** 2


def _ps_gaps(tr: Trajectory, first: SkippedTallies | None = None) -> Callable[[int], float | None]:
    """gap(k), the `_ps_gap` of skip k of tr, each skip tallied and solved once.

    Only the gaps are kept, not the tables. `first`, if given, is the skip-1 tally.
    """
    gaps = {} if first is None else {1: _ps_gap(first)}

    def gap(k: int) -> float | None:
        if k not in gaps:
            gaps[k] = _ps_gap(tally(tr, k))
        return gaps[k]

    return gap


def _ps_reduce(gaps: dict[int, float | None]) -> tuple[float, dict[int, float], list[int]]:
    """(max_k gap_k / k, the usable gaps, the skips whose tallies leave states unvisited)."""
    per_k = {k: g for k, g in gaps.items() if g is not None}
    return _best_rate(per_k), per_k, [k for k, g in gaps.items() if g is None]


def _ps_prefix(tr: Trajectory, K: int, gap: Callable[[int], float | None]) -> EstimateReport:
    """The prefix report over skips 1..K, read through the memo `gap`."""
    if K < 1:
        raise ValueError("K must be >= 1")
    value, per_k, skipped = _ps_reduce({k: gap(k) for k in range(1, _prefix_cap(tr, K) + 1)})
    if not per_k:
        raise NoUsableKError(f"no usable skip rate in 1..{K}")
    return EstimateReport(
        estimator="ps-prefix",
        value=value,
        K_used=K,
        per_k_values=per_k,
        diagnostics={"skipped_k": skipped} if skipped else {},
    )


def gamma_ps_prefix_hat(tr: Trajectory, K: int) -> EstimateReport:
    """Truncated empirical pseudo-spectral gap over skips 1..K.

    Skips whose tallies leave states unvisited are recorded in diagnostics
    rather than aborting the maximum.

    Raises:
        NoUsableKError: if every skip in the prefix is unusable.
    """
    return _ps_prefix(tr, K, _ps_gaps(tr))


def gamma_ps_additive(tr: Trajectory, epsilon: float) -> EstimateReport:
    """Prefix estimator with K = ceil(2/epsilon), the additive-error schedule."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be in (0, 1)")
    K = math.ceil(2.0 / epsilon)
    report = gamma_ps_prefix_hat(tr, K)
    diagnostics = {**report.diagnostics, "epsilon": epsilon}
    return replace(report, estimator="ps-additive", diagnostics=diagnostics)


def gamma_ps_amplified(tr: Trajectory) -> EstimateReport:
    """Amplified estimator: scan skip powers of two until the gap exceeds 3/8.

    At each k = 2^p, p = 0, 1, 2, ..., the prefix-16 estimator runs on the
    k-skipped trajectory, whose skip j counts the same pairs as skip k j of
    the trajectory itself. The first k whose estimate exceeds the threshold
    stops the scan, and the output is that estimate divided by k.

    Raises:
        NoTriggerError: if the skipped data runs out before the threshold fires.
    """
    scan: dict[int, float] = {}
    gap = _ps_gaps(tr)  # level 2k rereads the even skips of level k
    k = 1
    # the k-skipped trajectory keeps floor((m-1)/k) pairs; it needs two
    while (pairs := (tr.m - 1) // k) >= 2:
        estimate, per_j, _ = _ps_reduce(
            {j: gap(k * j) for j in range(1, min(AMPLIFIED_PREFIX, pairs) + 1)}
        )
        scan[k] = estimate
        if estimate > AMPLIFIED_THRESHOLD:
            return EstimateReport(
                estimator="ps-amplified",
                value=float(min(max(estimate / k, 0.0), 1.0)),
                K_used=AMPLIFIED_PREFIX,
                per_k_values=per_j,
                K_star=k,
                diagnostics={"scan": {str(kk): v for kk, v in scan.items()}},
            )
        k *= 2
    raise NoTriggerError(
        f"skipped trajectory exhausted at skip {k} before exceeding {AMPLIFIED_THRESHOLD}"
    )


def adaptive_K_multiplicative(n_min: int, epsilon: float) -> int:
    """Data-driven prefix ceil((N_min/epsilon)^{1/3}), clamped to >= 1."""
    return max(math.ceil((n_min / epsilon) ** (1.0 / 3.0)), 1)


def gamma_ps_adaptive_multiplicative(tr: Trajectory, epsilon: float) -> EstimateReport:
    """Prefix estimator with the data-driven K = ceil((N_min/epsilon)^{1/3})."""
    if not 0.0 < epsilon < 5.0:
        raise ValueError("epsilon must be in (0, 5)")
    base = tally(tr, 1)
    n_min = base.n_min
    report = _ps_prefix(tr, adaptive_K_multiplicative(n_min, epsilon), _ps_gaps(tr, base))
    diagnostics = {**report.diagnostics, "epsilon": epsilon, "N_min": n_min}
    if n_min == 0:  # the only N_min whose K is clamped up to 1
        diagnostics["K_clamped"] = True
    return replace(report, estimator="ps-adaptive", diagnostics=diagnostics)


def adaptive_K_dps(n_min: int, m: int) -> int:
    """Data-driven prefix ceil(N_min^{3/2} / (m log^{3/2} m)), clamped to >= 1."""
    if m < 3:
        raise ValueError("m must be >= 3")
    K = math.ceil(n_min**1.5 / (m * math.log(m) ** 1.5))
    return max(K, 1)


def gamma_dps_from_tallies(
    tallies_by_k: dict[int, SkippedTallies], alpha: float
) -> tuple[float, dict[int, float]]:
    """Smoothed dilation plug-in over explicit per-skip tallies.

    Per skip k the gap is 1 - sigma_2(L_hat) of the alpha-smoothed tallies.
    That equals 2 - lambda_2(S(L_hat) + I), since the dilation S(L_hat) has
    eigenvalues +/- the singular values of L_hat.
    """
    per_k = {
        k: 1.0 - eigensolve.second_singular_value(smoothed_estimates(t, alpha).L_hat)
        for k, t in sorted(tallies_by_k.items())
    }
    return _best_rate(per_k), per_k


def _dps_scan(
    tr: Trajectory, alpha: float, K: int | None
) -> tuple[EstimateReport, dict[int, SkippedTallies]]:
    """The dps estimate over skips 1..K, together with the tallies it read.

    Skip 1 opens every prefix, and with K omitted its N_min also sets the
    adaptive K, so one skip-1 tally serves both.
    """
    if tr.m < 3:
        raise TrajectoryTooShortError("need m >= 3 for the smoothed estimator")
    if K is not None and K < 1:
        raise ValueError("K must be >= 1")
    base = tally(tr, 1)
    diagnostics: dict = {}
    if K is None:
        K = adaptive_K_dps(base.n_min, tr.m)
        diagnostics = {"N_min": base.n_min, "K_adaptive": True}
        if base.n_min == 0:
            diagnostics["K_clamped"] = True
    tallies_by_k = {1: base}
    tallies_by_k.update((k, tally(tr, k)) for k in range(2, _prefix_cap(tr, K) + 1))
    value, per_k = gamma_dps_from_tallies(tallies_by_k, alpha)
    report = EstimateReport(
        estimator="dps",
        value=value,
        K_used=K,
        per_k_values=per_k,
        diagnostics={**diagnostics, "alpha": alpha},
    )
    return report, tallies_by_k


def gamma_dps_hat(
    tr: Trajectory, alpha: float = DEFAULT_ALPHA, K: int | None = None
) -> EstimateReport:
    """Smoothed dilation plug-in estimator of the dilated pseudo-spectral gap.

    With K omitted, the prefix is the adaptive ceil(N_min^{3/2}/(m log^{3/2} m)).
    Smoothing keeps every skip usable, so there is no unvisited-state failure
    mode here.
    """
    return _dps_scan(tr, alpha, K)[0]
