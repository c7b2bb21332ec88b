"""The four benchmark workloads.

Each workload turns (seed, op index) into the inputs of one op, runs the op
through mixgap's public library calls, and reduces the reports to a plain
JSON-able summary. The correctness gate compares that summary with the
recorded reference and checks its invariants; the traced run compares it
with the untraced one. Every workload is picked so that a different layer
does most of the work (see README.md).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.linalg

import mixgap as mg
from mixgap import bench, eigensolve, fixtures
from mixgap import io as mio

from gate import close


def digest(a: np.ndarray) -> str:
    """Content hash of integer data that must stay bit-identical."""
    return hashlib.blake2b(np.ascontiguousarray(a).tobytes(), digest_size=16).hexdigest()


def _op_rng(seed: int, op: int) -> np.random.Generator:
    return np.random.default_rng([seed, op])


def _draw_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**63))


def _unit(x: float) -> list[str]:
    return [] if 0.0 <= x <= 1.0 else [f"value {x!r} outside [0, 1]"]


def _interval_problems(ci: dict) -> list[str]:
    lo, hi = ci["interval"]
    problems = _unit(ci["point"]) + _unit(lo) + _unit(hi)
    if not ci["vacuous"] and not lo <= ci["point"] <= hi:
        problems.append(f"point {ci['point']!r} outside interval [{lo!r}, {hi!r}]")
    return problems


# --- pipe-long: simulate | estimate / interval on ex31 at m = 1e6 -----------

PIPE_M = 1_000_000


def pipe_inputs(seed: int, op: int) -> dict:
    return {"sim_seed": _draw_seed(_op_rng(seed, op))}


def pipe_chains(inp: dict) -> list[mg.StochasticMatrix]:
    return [fixtures.get_fixture("ex31")]


def pipe_run(inp: dict, tmp: Path) -> dict:
    [P] = pipe_chains(inp)
    simulated = mg.simulate(P, PIPE_M, seed=inp["sim_seed"])
    mio.save_trajectory(simulated, tmp, fmt="text")
    tr = mio.load_trajectory(tmp, n=P.n)
    return {
        "trajectory": digest(simulated.states),
        "round_trip_equal": bool(np.array_equal(tr.states, simulated.states)),
        "dps": mg.gamma_dps_hat(tr).to_dict(),
        "interval": mg.confidence_interval(tr).to_dict(),
        "amplified": mg.gamma_ps_amplified(tr).to_dict(),
    }


def pipe_check(inp: dict, out: dict) -> list[str]:
    problems = [] if out["round_trip_equal"] else ["loaded trajectory differs from the simulated one"]
    problems += _unit(out["dps"]["value"]) + _unit(out["amplified"]["value"])
    return problems + _interval_problems(out["interval"])


def pipe_props(inp: dict, out: dict) -> dict:
    return {
        "m": PIPE_M,
        "K_hat": out["interval"]["K_hat"],
        "amplified_levels": len(out["amplified"]["diagnostics"]["scan"]),
    }


# --- coverage-grid: one bench_convergence call on a small dense chain -------

GRID_M = 10_000
GRID_TRIALS = 50


def grid_inputs(seed: int, op: int) -> dict:
    rng = _op_rng(seed, op)
    return {"n": int(3 + rng.integers(4)), "chain_seed": _draw_seed(rng)}


def grid_chains(inp: dict) -> list[mg.StochasticMatrix]:
    return [fixtures.random_dense_chain(inp["n"], inp["chain_seed"])]


def grid_run(inp: dict, tmp: Path) -> dict:
    [P] = grid_chains(inp)
    header, *lines = bench.bench_convergence(P, [GRID_M], GRID_TRIALS).splitlines()
    if header != bench.CSV_HEADER:
        raise ValueError(f"unexpected bench CSV header {header!r}")
    rows = []
    for line in lines:
        m, seed, point, err, width, covered = line.split(",")
        if seed == "median":
            rows.append([int(m), seed, float(point), float(err), float(width), float(covered)])
        else:
            rows.append([int(m), int(seed), float(point), float(err), float(width), int(covered)])
    return {"rows": rows}


def grid_check(inp: dict, out: dict) -> list[str]:
    rows = out["rows"]
    problems = [] if len(rows) == GRID_TRIALS + 1 else [f"expected {GRID_TRIALS + 1} CSV rows, got {len(rows)}"]
    for _, _, point, err, width, covered in rows:
        problems += _unit(point) + _unit(err) + _unit(covered)
        if not width >= 0.0:
            problems.append(f"negative half-width {width!r}")
    return problems


def grid_props(inp: dict, out: dict) -> dict:
    return {"m": GRID_M, "trials": GRID_TRIALS}


# --- oracle-slow: full_spectral_report on drifted lazy cycles ---------------

CYCLE_SIZES = (40, 60, 80)


def lazy_cycle(n: int, lazy: float, right: float) -> mg.StochasticMatrix:
    """Stay with probability `lazy`, else step +1 w.p. `right` and -1 otherwise."""
    P = np.zeros((n, n))
    i = np.arange(n)
    P[i, i] = lazy
    P[i, (i + 1) % n] += (1.0 - lazy) * right
    P[i, (i - 1) % n] += (1.0 - lazy) * (1.0 - right)
    return mg.StochasticMatrix(P)


def oracle_inputs(seed: int, op: int) -> dict:
    rng = _op_rng(seed, op)
    return {
        "chains": [
            {"n": n, "lazy": 0.5 + rng.uniform(-0.02, 0.02), "right": 0.6 + rng.uniform(-0.02, 0.02)}
            for n in CYCLE_SIZES
        ]
    }


def oracle_chains(inp: dict) -> list[mg.StochasticMatrix]:
    return [lazy_cycle(c["n"], c["lazy"], c["right"]) for c in inp["chains"]]


def oracle_run(inp: dict, tmp: Path) -> dict:
    reports = []
    for P in oracle_chains(inp):
        r = mg.full_spectral_report(P).to_dict()
        # the per-skip tables shrink under an early stop; the maxima must not move
        del r["gamma_dagger_at_k"], r["gamma_ddagger_at_k"]
        reports.append(r)
    return {"reports": reports}


def svd_gaps(P: mg.StochasticMatrix, k_max: int) -> tuple[float, float]:
    """(gamma_ps, gamma_dps) maximized over k <= k_max by an independent route.

    pi comes from the null space of P^T - I and sigma_2(L^k) from svdvals, in
    place of the library's linear solve and Gram-matrix eigvalsh.
    """
    pi = scipy.linalg.null_space(P.rows.T - np.eye(P.n))[:, 0]
    root = np.sqrt(pi / pi.sum())
    L = root[:, None] * P.rows / root[None, :]
    Lk = np.eye(P.n)
    best_ps = best_dps = 0.0
    for k in range(1, k_max + 1):
        Lk = Lk @ L
        s2 = scipy.linalg.svdvals(Lk)[1]
        best_ps = max(best_ps, (1.0 - s2 * s2) / k)
        best_dps = max(best_dps, (1.0 - s2) / k)
    return best_ps, best_dps


def oracle_check(inp: dict, out: dict) -> list[str]:
    problems = []
    for P, r in zip(oracle_chains(inp), out["reports"]):
        problems += _unit(r["gamma_ps"]) + _unit(r["gamma_dps"])
        if r["t_mix"] < 1:
            problems.append(f"t_mix {r['t_mix']} < 1")
        ps = svd_gaps(P, r["k_ps"])[0]
        dps = svd_gaps(P, r["k_dps"])[1]
        if not (close(r["gamma_ps"], ps) and close(r["gamma_dps"], dps)):
            problems.append(
                f"n={P.n}: svdvals route gives ({ps!r}, {dps!r}), "
                f"oracle gives ({r['gamma_ps']!r}, {r['gamma_dps']!r})"
            )
    return problems


def oracle_props(inp: dict, out: dict) -> dict:
    # in hundreds, so the few distinct values show the loop's size at a glance
    return {"skip_iters_hundreds": sum(r["k_explored"] for r in out["reports"]) // 100}


# --- wide-state: simulate, dps and interval on an 18 x 18 torus -------------

TORUS_SIDE = 18
TORUS_M = 300_000


def lazy_torus(side: int, lazy: float, moves: list[float]) -> mg.StochasticMatrix:
    """Lazy walk on a side x side torus; `moves` weights right, left, down, up."""
    n = side * side
    states = np.arange(n)
    r, c = np.divmod(states, side)
    P = np.zeros((n, n))
    P[states, states] = lazy
    weights = np.asarray(moves) / np.sum(moves) * (1.0 - lazy)
    for w, (dr, dc) in zip(weights, ((0, 1), (0, -1), (1, 0), (-1, 0))):
        P[states, ((r + dr) % side) * side + (c + dc) % side] += w
    return mg.StochasticMatrix(P)


def torus_inputs(seed: int, op: int) -> dict:
    rng = _op_rng(seed, op)
    return {
        "lazy": 0.5 + rng.uniform(-0.02, 0.02),
        "moves": (np.array([0.35, 0.15, 0.3, 0.2]) + rng.uniform(-0.02, 0.02, size=4)).tolist(),
        "sim_seed": _draw_seed(rng),
    }


def torus_chains(inp: dict) -> list[mg.StochasticMatrix]:
    return [lazy_torus(TORUS_SIDE, inp["lazy"], inp["moves"])]


def torus_run(inp: dict, tmp: Path) -> dict:
    [P] = torus_chains(inp)
    tr = mg.simulate(P, TORUS_M, seed=inp["sim_seed"])
    return {
        "trajectory": digest(tr.states),
        "dps": mg.gamma_dps_hat(tr).to_dict(),
        "interval": mg.confidence_interval(tr).to_dict(),
    }


def torus_check(inp: dict, out: dict) -> list[str]:
    return _unit(out["dps"]["value"]) + _interval_problems(out["interval"])


def torus_props(inp: dict, out: dict) -> dict:
    return {"m": TORUS_M, "K_hat": out["interval"]["K_hat"]}


@dataclass(frozen=True)
class Workload:
    name: str
    work_unit: str
    inputs: Callable[[int, int], dict]
    chains: Callable[[dict], list[mg.StochasticMatrix]]
    run: Callable[[dict, Path], dict]
    check: Callable[[dict, dict], list[str]]
    extra_props: Callable[[dict, dict], dict]
    work: Callable[[dict], int]

    def props(self, inp: dict, out: dict) -> dict:
        """The input properties this workload was chosen for."""
        chains = self.chains(inp)
        ns = [P.n for P in chains]
        return {
            "n": ns,
            "nnz_per_row": [int((P.rows > 0).sum(axis=1).max()) for P in chains],
            "two_n": [2 * n for n in ns],
            "dense_threshold": eigensolve.DENSE_THRESHOLD,
            **self.extra_props(inp, out),
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload("pipe-long", "steps", pipe_inputs, pipe_chains, pipe_run, pipe_check, pipe_props,
                 lambda inp: PIPE_M),
        Workload("coverage-grid", "trials", grid_inputs, grid_chains, grid_run, grid_check, grid_props,
                 lambda inp: GRID_TRIALS),
        Workload("oracle-slow", "chains", oracle_inputs, oracle_chains, oracle_run, oracle_check, oracle_props,
                 lambda inp: len(inp["chains"])),
        Workload("wide-state", "steps", torus_inputs, torus_chains, torus_run, torus_check, torus_props,
                 lambda inp: TORUS_M),
    )
}
