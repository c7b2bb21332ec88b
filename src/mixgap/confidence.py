"""Fully empirical confidence intervals for the dilated pseudo-spectral gap.

The interval reads the scan of `gamma_dps_hat`: its point estimate and
adaptive prefix K_hat, with the tallies and smoothed gaps from the
trajectory's memos, so after `gamma_dps_hat` the scan solves nothing again.
T reads the exact gamma_ps of each smoothed P_hat, from the oracle loop that
certifies gamma_ps alone. This module adds the per-skip terms W, V, T, U and
the confidence split delta_hat, and assembles the interval point +/-
(1/K_hat + max_k (V + U(2+U))/k), clipped to [0, 1]. A blown-up U term (a
smoothed visit frequency at or below T) degrades the interval to the vacuous
[0, 1] with a flag instead of failing.

`confidence_interval` is the batch of one of `_intervals`, which `bench`
calls with the trajectories it walks together. The batch computes its
intervals together: the dps scans share stacked SVDs, W and U run elementwise
over stacks of count tables, and the gamma_ps of every smoothed P_hat comes
from one stacked oracle loop. Each stacked operation gives every matrix the
bits it gets alone and the scalar formulas run per term, so each report
equals the single-trajectory call byte for byte.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .chain import StochasticMatrix, Trajectory, _report_dict, _stack
from .errors import MixgapError
from .estimators import DEFAULT_ALPHA, _dps_hat_batch
from .oracle import DEFAULT_K_CAP, _skip_loop
from .tallies import SkippedTallies, _smoothed_batch, tally

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
    return _W_batch([t], alpha, [delta])[0]


def _W_batch(ts: Sequence[SkippedTallies], alpha: float, deltas: Sequence[float]) -> list[float]:
    """`term_W` of each table (all over one n) at its delta, elementwise over the stack."""
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    if not all(0.0 < delta < 1.0 for delta in deltas):
        raise ValueError("delta must be in (0, 1)")
    n = ts[0].n
    visits = _stack([t.visits for t in ts]).astype(float)
    root_sums = np.sqrt(_stack([t.counts for t in ts])).sum(axis=2)
    # with zero pairs every count is zero and the log factor has weight 0
    log_term = np.array(
        [math.sqrt(math.log(2.0 * t.num_pairs * n / d)) if t.num_pairs else 0.0
         for t, d in zip(ts, deltas)]
    )
    numer = root_sums + 3.0 * np.sqrt(visits / 2.0) * log_term[:, None] + alpha * n
    denom = visits + alpha * n
    return (2.0 * np.max(numer / denom, axis=1)).tolist()


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
    return _U_batch([t], alpha, [T])[0]


def _U_batch(ts: Sequence[SkippedTallies], alpha: float, Ts: Sequence[float]) -> list[float]:
    """`term_U` of each table (all over one n) at its T, elementwise over the stack."""
    if any(T < 0 for T in Ts):
        raise ValueError("T must be >= 0")
    n = ts[0].n
    T = np.array(Ts)
    pairs = np.array([t.num_pairs for t in ts])
    freq = (_stack([t.visits for t in ts]) + alpha * n) / (pairs + alpha * n * n)[:, None]
    slack = freq - T[:, None]
    # the ratios are read only where T > 0 and no frequency is at or below T
    finite = (T != 0.0) & ~(np.min(slack, axis=1) <= 0.0)
    U = np.where(T == 0.0, 0.0, math.inf)
    T, freq, slack = T[finite, None], freq[finite], slack[finite]
    U[finite] = 0.5 * np.maximum(np.max(T / freq, axis=1), np.max(T / slack, axis=1))
    return U.tolist()


def delta_hat(m: int, K_hat: int, n: int, delta: float) -> float:
    """Per-skip confidence split sqrt(log^3 m / m) * delta / (K_hat n)."""
    return math.sqrt(math.log(m) ** 3 / m) * delta / (K_hat * n)


def empirical_gamma_ps(t: SkippedTallies, alpha: float) -> float:
    """Exact pseudo-spectral gap of the alpha-smoothed P_hat, or 0 if it cannot be resolved.

    The oracle's skip loop stops once gamma_ps is certified, gamma_dps aside.
    The gap counts as 0 when that loop ends in an error: no certificate
    closes it, or the stationary vector of P_hat misses its entrywise
    relative test (a tiny alpha leaves unvisited states with pi near 1e-8,
    below what the solve resolves). Either way T is infinite and the interval
    vacuous.
    """
    return _empirical_gamma_ps_batch([t], alpha)[0]


def _empirical_gamma_ps_batch(ts: Sequence[SkippedTallies], alpha: float) -> list[float]:
    """`empirical_gamma_ps` of each table (all over one n), in one stacked oracle loop.

    The loop gives each P_hat its own slot, so an error slot counts as 0 and
    the others keep the bits they get alone.
    """
    P_hats = [StochasticMatrix(P_hat) for P_hat in _smoothed_batch(ts, alpha)[0]]
    slots = _skip_loop(P_hats, DEFAULT_K_CAP, with_dps=False)
    return [0.0 if isinstance(slot, MixgapError) else slot[1][0] for slot in slots]


def confidence_interval(
    tr: Trajectory,
    alpha: float = DEFAULT_ALPHA,
    delta: float = DEFAULT_DELTA,
    c: float = DEFAULT_C,
) -> ConfidenceReport:
    """Empirical confidence interval around the smoothed dilation estimator.

    The point estimate is the plug-in gamma over the adaptive prefix K_hat;
    the half-width is 1/K_hat plus the worst per-skip V + U(2 + U) scaled by
    the skip rate. A blown-up U (or an empirical gap inside T that is zero, or
    cannot be certified or resolved; see `empirical_gamma_ps`) yields the
    vacuous interval [0, 1] with the flag set.
    A trajectory with m < 3 raises the scan's TrajectoryTooShortError.
    """
    return _intervals([tr], alpha, delta, c)[0]


def _intervals(
    trs: Sequence[Trajectory], alpha: float, delta: float, c: float
) -> list[ConfidenceReport]:
    """`confidence_interval(tr, alpha, delta, c)` of each trajectory, all over one n.

    The trajectories go in groups of at most `size`, the number of n x n
    tables that hold as many entries as the batch has steps, and each stack
    below holds at most `size` matrices. A group runs one dps scan
    (`_dps_hat_batch`), then the terms of its (trajectory, skip) cells in
    chunks of `size`. Every stacked operation gives each matrix its own bits
    and every scalar formula runs per cell in Python, so each report is the
    one its trajectory gets alone.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"alpha must be finite and > 0, got {alpha}")
    if not 0.0 <= c < math.inf:
        raise ValueError(f"c must be finite and >= 0, got {c}")
    if not trs:
        return []
    size = max(1, sum(tr.m for tr in trs) // trs[0].n ** 2)
    groups = (trs[first : first + size] for first in range(0, len(trs), size))
    return [report for group in groups for report in _group_intervals(group, alpha, delta, c, size)]


def _group_intervals(
    group: Sequence[Trajectory], alpha: float, delta: float, c: float, size: int
) -> list[ConfidenceReport]:
    """The reports of one group of `_intervals`, its cells' terms in chunks of `size`."""
    n = group[0].n
    estimates = _dps_hat_batch(group, alpha)
    d_hats = [delta_hat(tr.m, e.K_used, n, delta) for tr, e in zip(group, estimates)]
    cells = [(g, k) for g, e in enumerate(estimates) for k in range(1, e.K_used + 1)]
    terms = {}
    for start in range(0, len(cells), size):
        chunk = cells[start : start + size]
        tables = [tally(group[g], k) for g, k in chunk]
        terms.update(zip(chunk, _cell_terms(tables, alpha, [d_hats[g] for g, _ in chunk], c)))
        del tables  # so that no two chunks' tables are held at once
    reports = []
    for g, (tr, estimate, d_hat) in enumerate(zip(group, estimates, d_hats)):
        point, K_hat = estimate.value, estimate.K_used
        per_k_terms: dict[int, dict[str, float]] = {}
        worst = 0.0
        diagnostics: dict = {"c": c}
        for k in range(1, K_hat + 1):
            gps, per_k_terms[k] = terms[g, k]
            if gps <= DEGENERATE_GAP_TOL:
                diagnostics["degenerate_empirical_gap_k"] = k
            V, U = per_k_terms[k]["V"], per_k_terms[k]["U"]
            worst = max(worst, (V + U * (2.0 + U)) / k)
        half_width = 1.0 / K_hat + worst
        # V is always finite, so the half-width is infinite exactly when some U is
        vacuous = not math.isfinite(half_width)
        lo, hi = (0.0, 1.0) if vacuous else (point - half_width, point + half_width)
        reports.append(
            ConfidenceReport(
                point=point,
                half_width=half_width,
                interval=(max(lo, 0.0), min(hi, 1.0)),
                per_k_terms=per_k_terms,
                delta_hat=d_hat,
                K_hat=K_hat,
                alpha=alpha,
                delta=delta,
                m=tr.m,
                vacuous=vacuous,
                diagnostics=diagnostics,
            )
        )
    return reports


def _cell_terms(
    ts: Sequence[SkippedTallies], alpha: float, d_hats: Sequence[float], c: float
) -> list[tuple[float, dict[str, float]]]:
    """gamma_ps(P_hat) and the terms W, V, T, U of each table, W at its delta_hat."""
    Ws = _W_batch(ts, alpha, d_hats)
    gammas = _empirical_gamma_ps_batch(ts, alpha)
    Ts = [term_T(t, alpha, W, gps, c=c) for t, W, gps in zip(ts, Ws, gammas)]
    Us = _U_batch(ts, alpha, Ts)
    return [
        (gps, {"W": W, "V": term_V(t, alpha, W), "T": T, "U": U})
        for t, W, gps, T, U in zip(ts, Ws, gammas, Ts, Us)
    ]
