"""Convergence and coverage benchmark producing plot-ready CSV.

Each (m, seed) cell simulates one trajectory, runs the smoothed dilation
estimator with its confidence interval, and records the error against the
exact oracle value plus a coverage bit. The trajectories of one m are walked
together, each exactly as `simulate(P, m, seed=seed)` would walk it, in
batches of `_BATCH_STEPS` // max(m, n^2) (at least one), the one bound on what
a cell holds at once. A batch's intervals come from one pass
(`confidence._intervals`), each `confidence_interval` of its trajectory alone.
Every cell is deterministic, so the output bytes depend only on the inputs.
"""

from __future__ import annotations

from statistics import median

from .chain import StochasticMatrix, _simulate_batch
from .confidence import DEFAULT_C, DEFAULT_DELTA, _intervals
from .estimators import DEFAULT_ALPHA
from .oracle import spectral_gaps

CSV_HEADER = "m,seed,point,abs_error,half_width,covered"
_BATCH_STEPS = 1 << 17  # entries of a batch; a trial holds max(m, n^2), as K_hat = 1 once n^2 > m


def _fmt(x: float) -> str:
    return repr(float(x))


def bench_convergence(
    P: StochasticMatrix,
    m_grid: list[int],
    seeds: int,
    alpha: float = DEFAULT_ALPHA,
    delta: float = DEFAULT_DELTA,
    c: float = DEFAULT_C,
) -> str:
    """Run the (m, seed) grid and return the CSV text.

    Emits one row per trial, ordered by (m, seed), then one aggregate
    (median) row per m in m_grid order, so repeated runs with identical
    inputs are byte-identical.
    """
    if seeds < 1:
        raise ValueError(f"seeds must be >= 1, got {seeds}")
    if len(set(m_grid)) != len(m_grid):
        raise ValueError(f"m_grid must not repeat an m, got {m_grid}")
    if min(m_grid, default=1) < 1:
        raise ValueError("m must be >= 1")  # as _simulate_batch says, but before any work
    gamma_dps = spectral_gaps(P).gamma_dps
    lines = [CSV_HEADER]
    cells = {}  # m -> (point, abs_error, half_width, covered) of each seed
    for m in sorted(m_grid):
        cell = cells[m] = []
        per_batch = max(1, _BATCH_STEPS // max(m, P.n**2))
        for b in range(0, seeds, per_batch):
            batch = range(b, min(b + per_batch, seeds))
            # the batch's trajectories are freed before the next batch is walked
            reports = _intervals(_simulate_batch(P, m, batch, "stationary"), alpha, delta, c)
            for seed, report in zip(batch, reports):
                lo, hi = report.interval
                point, err, hw = report.point, abs(report.point - gamma_dps), report.half_width
                covered = int(lo <= gamma_dps <= hi)
                cell.append((point, err, hw, covered))
                lines.append(f"{m},{seed},{_fmt(point)},{_fmt(err)},{_fmt(hw)},{covered}")
    for m in m_grid:
        point, err, hw, covered = zip(*cells[m])
        p, e, h = _fmt(median(point)), _fmt(median(err)), _fmt(median(hw))
        lines.append(f"{m},median,{p},{e},{h},{_fmt(sum(covered) / len(covered))}")
    return "\n".join(lines) + "\n"
