"""Convergence and coverage benchmark producing plot-ready CSV.

Each (m, seed) cell simulates one trajectory, runs the smoothed dilation
estimator with its confidence interval, and records the error against the
exact oracle value plus a coverage bit. Cells run one after another in
(m, seed) order, and each is deterministic, so the output bytes depend only
on the inputs.
"""

from __future__ import annotations

import io
from statistics import median

from .chain import StochasticMatrix, simulate
from .confidence import DEFAULT_C, DEFAULT_DELTA, confidence_interval
from .estimators import DEFAULT_ALPHA
from .oracle import spectral_gaps

CSV_HEADER = "m,seed,point,abs_error,half_width,covered"


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

    Emits one row per trial plus one aggregate (median) row per m; rows are
    ordered by (m, seed) so repeated runs with identical inputs are
    byte-identical.
    """
    if seeds < 1:
        raise ValueError(f"seeds must be >= 1, got {seeds}")
    gamma_dps = spectral_gaps(P).gamma_dps
    results = []
    for m in m_grid:
        for seed in range(seeds):
            report = confidence_interval(
                simulate(P, m, start="stationary", seed=seed), alpha=alpha, delta=delta, c=c
            )
            lo, hi = report.interval
            covered = int(lo <= gamma_dps <= hi)
            results.append(
                (m, seed, report.point, abs(report.point - gamma_dps), report.half_width, covered)
            )
    results.sort(key=lambda r: (r[0], r[1]))

    out = io.StringIO()
    out.write(CSV_HEADER + "\n")
    for m, seed, point, err, hw, covered in results:
        out.write(f"{m},{seed},{_fmt(point)},{_fmt(err)},{_fmt(hw)},{covered}\n")
    for m in m_grid:
        cell = [r for r in results if r[0] == m]
        out.write(
            "{m},median,{p},{e},{h},{c}\n".format(
                m=m,
                p=_fmt(median(r[2] for r in cell)),
                e=_fmt(median(r[3] for r in cell)),
                h=_fmt(median(r[4] for r in cell)),
                c=_fmt(sum(r[5] for r in cell) / len(cell)),
            )
        )
    return out.getvalue()
