"""Point estimators computed from a single observed trajectory.

Every estimator here is one reduce, `_scan`: max_j gap(step j) / j over a
prefix of skips, where gap(k) is a per-skip gap of the count tables of skip k
(`SkippedTallies`) and the prefix stops at the last skip with a pair. The
estimators differ only in the gap, the prefix length and the step:

- ps-prefix and its additive and adaptive schedules: step 1 and the
  unsmoothed gap 1 - sigma_2(L_hat)^2;
- each level of the amplified scan: step 2^p and the same gap, since skip j
  of the 2^p-skipped trajectory counts the pairs of skip 2^p j; a level that
  cannot pass its threshold stops at the first j past which no gap can raise
  the maximum (`_scan`'s quiet bound), which then equals the reduce;
- dps: step 1 and the smoothed gap 1 - sigma_2(L_hat), in `gamma_dps_hat`.
`_gaps` solves the gaps of (trajectory, skip) cells and keeps each in its
trajectory's memo by (k, alpha), next to the memoized tables, so calls on one
trajectory build each table and solve each gap once. `gamma_dps_hat` is the
batch of one of `_dps_hat_batch`, which hands every cell of its scans to one
`_gaps` call.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from . import oracle
from .chain import Trajectory, _report_dict, _rescaled
from .errors import NoTriggerError, NoUsableKError, TrajectoryTooShortError
from .tallies import _smoothed_batch, tally

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


def _scan(
    tr: Trajectory, K: int, step: int = 1, alpha: float | None = None, quiet: float | None = None
) -> tuple[float, dict[int, float], int, dict]:
    """The prefix reduce every estimator shares: max_j gap(step j) / j, gaps by `_gaps`.

    j runs over 1..J, J = min(K, floor((m-1)/step)), since a skip with no
    complete pair cannot be tallied, and the gaps are asked for one j at a
    time. Returns the maximum clipped to [0, 1] (0 when no gap is usable),
    the usable gaps by j, J, and the diagnostics `skipped_k` (the js whose
    gap is None) and `K_requested` (when J < K).

    With `quiet`, a scan whose maximum best = max(0, gap / j) so far is still
    at most quiet ends at the first j with best >= 1 / j. A gap is at most 1,
    so no later skip j' >= j can give more than 1 / j' <= best, and the
    maximum is that of the whole scan; comparing with the rounded 1 / j keeps
    that true of the rounded quotients too. Only the maximum is then the
    whole scan's; a scan whose maximum passes quiet reads every skip.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    J = min(K, (tr.m - 1) // step)
    per_j: dict[int, float] = {}
    skipped = []
    best = 0.0
    for j in range(1, J + 1):
        if quiet is not None and 1 / j <= best <= quiet:
            break
        g = _gaps([(tr, step * j)], alpha)[0]
        if g is None:
            skipped.append(j)
        else:
            per_j[j] = g
            best = max(best, g / j)
    diagnostics: dict = {}
    if skipped:
        diagnostics["skipped_k"] = skipped
    if J < K:
        diagnostics["K_requested"] = K
    return float(min(best, 1.0)), per_j, J, diagnostics


def _gaps(cells: Sequence[tuple[Trajectory, int]], alpha: float | None = None) -> list[float | None]:
    """The gap of each (trajectory, skip k) cell over one n, kept in `tr._gaps` by (k, alpha).

    With alpha, 1 - sigma_2 of the alpha-smoothed L_hat, i.e. 2 - lambda_2(S(L_hat) + I) for the
    dilation S; without, 1 - sigma_2(L_hat)^2 of the unsmoothed L_hat = N_{xx'} / sqrt(N_x N_{x'}),
    None when N_min = 0 leaves it undefined. The cells not kept yet are solved skip by skip, the
    smoothed ones in one stacked SVD, so a trajectory holds one table at a time here.
    """
    miss: dict[int, dict[Trajectory, None]] = {}  # the trajectories of each skip, each once
    for tr, k in cells:
        if (k, alpha) not in tr._gaps:
            miss.setdefault(k, {})[tr] = None
    for k, trs in miss.items():
        tables = [tally(tr, k) for tr in trs]
        if alpha is None:
            roots = [np.sqrt(t.visits.astype(float)) for t in tables]
            gaps = [
                None if t.n_min == 0 else 1.0 - float(oracle.second_singular_values(t.counts / np.outer(r, r))) ** 2
                for t, r in zip(tables, roots)
            ]
        else:
            P_hats, pi_hats = _smoothed_batch(tables, alpha)
            L_hats = _rescaled(P_hats, np.sqrt(pi_hats), out=P_hats)
            gaps = (1.0 - oracle.second_singular_values(L_hats)).tolist()
        for tr, g in zip(trs, gaps):
            tr._gaps[k, alpha] = g
    return [tr._gaps[k, alpha] for tr, k in cells]


def _adaptive_diagnostics(n_min: int) -> dict:
    """Diagnostics of a prefix set from N_min; only N_min = 0 clamps K up to 1."""
    return {"N_min": n_min, "K_clamped": True} if n_min == 0 else {"N_min": n_min}


def gamma_ps_prefix_hat(tr: Trajectory, K: int) -> EstimateReport:
    """Truncated empirical pseudo-spectral gap over skips 1..K.

    Skips whose tallies leave states unvisited are recorded in diagnostics
    rather than aborting the maximum.

    Raises:
        NoUsableKError: if every skip in the prefix is unusable.
    """
    value, per_k, K_used, diagnostics = _scan(tr, K)
    if not per_k:
        raise NoUsableKError(f"no usable skip rate in 1..{K}")
    return EstimateReport(
        estimator="ps-prefix",
        value=value,
        K_used=K_used,
        per_k_values=per_k,
        diagnostics=diagnostics,
    )


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

    Each level is one `_scan` with the threshold as its quiet bound: a level
    that stays at or below it stops reading skips once no later one can raise
    its estimate, so only the level that fires reads all its skips, once
    each, and every reported number is that of the full scan.

    Raises:
        NoTriggerError: if the skipped data runs out before the threshold fires.
    """
    scan: dict[int, float] = {}
    k = 1
    # the k-skipped trajectory keeps floor((m-1)/k) pairs; it needs two
    while (tr.m - 1) // k >= 2:
        # level 2k rereads the even skips of level k from the gap memo
        estimate, per_j, J, diagnostics = _scan(tr, AMPLIFIED_PREFIX, step=k, quiet=AMPLIFIED_THRESHOLD)
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


def adaptive_K_multiplicative(n_min: int, epsilon: float) -> int:
    """Data-driven prefix ceil((N_min/epsilon)^{1/3}), clamped to >= 1."""
    return max(math.ceil((n_min / epsilon) ** (1.0 / 3.0)), 1)


def gamma_ps_adaptive_multiplicative(tr: Trajectory, epsilon: float) -> EstimateReport:
    """Prefix estimator with the data-driven K = ceil((N_min/epsilon)^{1/3})."""
    if not 0.0 < epsilon < 5.0:
        raise ValueError("epsilon must be in (0, 5)")
    n_min = tally(tr, 1).n_min
    report = gamma_ps_prefix_hat(tr, adaptive_K_multiplicative(n_min, epsilon))
    diagnostics = {**report.diagnostics, "epsilon": epsilon, **_adaptive_diagnostics(n_min)}
    return replace(report, estimator="ps-adaptive", diagnostics=diagnostics)


def adaptive_K_dps(n_min: int, m: int) -> int:
    """Data-driven prefix ceil(N_min^{3/2} / (m log^{3/2} m)), clamped to >= 1."""
    if m < 3:
        raise ValueError("m must be >= 3")
    K = math.ceil(n_min**1.5 / (m * math.log(m) ** 1.5))
    return max(K, 1)


def gamma_dps_hat(
    tr: Trajectory, alpha: float = DEFAULT_ALPHA, K: int | None = None
) -> EstimateReport:
    """Smoothed dilation plug-in estimator of the dilated pseudo-spectral gap.

    With K omitted, the prefix is the adaptive ceil(N_min^{3/2}/(m log^{3/2} m)).
    Smoothing keeps every skip usable, so there is no unvisited-state failure
    mode here. The trajectory's memos hand each table and gap on to the scan
    `confidence_interval` repeats.
    """
    return _dps_hat_batch([tr], alpha, K)[0]


def _dps_hat_batch(
    trs: Sequence[Trajectory], alpha: float, K: int | None = None
) -> list[EstimateReport]:
    """`gamma_dps_hat(tr, alpha, K)` of each trajectory, all over one n.

    Every cell of every scan goes to one `_gaps` call, which stacks each
    skip's smoothed gaps over the batch; each scan then reads them from its memo.
    """
    for tr in trs:
        if tr.m < 3:
            raise TrajectoryTooShortError("need m >= 3 for the smoothed estimator")
    diagnostics: list[dict] = [{} for _ in trs]
    if K is None:
        n_mins = [tally(tr, 1).n_min for tr in trs]
        Ks = [adaptive_K_dps(n_min, tr.m) for tr, n_min in zip(trs, n_mins)]
        diagnostics = [{**_adaptive_diagnostics(n_min), "K_adaptive": True} for n_min in n_mins]
    else:
        Ks = [K] * len(trs)
    prefix = [min(K, tr.m - 1) for tr, K in zip(trs, Ks)]  # the J of each scan
    _gaps([(tr, k) for tr, J in zip(trs, prefix) for k in range(1, J + 1)], alpha)
    reports = []
    for tr, K, given in zip(trs, Ks, diagnostics):
        value, per_k, K_used, scanned = _scan(tr, K, alpha=alpha)
        reports.append(
            EstimateReport(
                estimator="dps",
                value=value,
                K_used=K_used,
                per_k_values=per_k,
                diagnostics={**given, **scanned, "alpha": alpha},
            )
        )
    return reports
