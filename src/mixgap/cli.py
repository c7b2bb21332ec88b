"""Command-line entry point.

Subcommands: simulate, stats, estimate, interval, oracle, bench, lemma-check.
Reports are JSON on stdout (or --out); domain errors exit with code 2 and a
machine-readable JSON error object on stderr; I/O and argument errors exit
with code 1 and an INVALID_INPUT error object. Reports are strict JSON: a
non-finite float (the infinite half-width of a vacuous interval) is written
as null. All randomness flows from --seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import bench as bench_mod
from . import confidence, estimators, io as mio, oracle
from .chain import StochasticMatrix, simulate
from .errors import MixgapError
from .fixtures import get_fixture
from .tallies import tally


@dataclass
class RunConfig:
    command: str
    matrix: str | None = None
    fixture: str | None = None
    trajectory: str | None = None
    out: str | None = None
    csv: str | None = None
    n: int | None = None
    m: int = 1000
    seed: int = 0
    start: str = "stationary"
    fmt: str = "text"
    method: str = "dps"
    alpha: float = 1e-2
    delta: float = 0.05
    epsilon: float = 0.1
    K: int | None = None
    k: int = 1
    k_max: int = 10
    c_override: float | None = None
    m_grid: list[int] = field(default_factory=lambda: [1000, 10000])
    seeds: int = 20


def _load_chain(cfg: RunConfig) -> StochasticMatrix:
    if cfg.fixture:
        return get_fixture(cfg.fixture)
    if not cfg.matrix:
        raise ValueError("need --matrix FILE or --fixture NAME")
    return mio.load_matrix(cfg.matrix)


def _load_trajectory(cfg: RunConfig):
    if not cfg.trajectory:
        raise ValueError("need --trajectory FILE (or '-' for stdin)")
    return mio.load_trajectory(cfg.trajectory, n=cfg.n)


def _emit(cfg: RunConfig, text: str) -> None:
    if cfg.out:
        Path(cfg.out).write_text(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _finite_or_null(obj):
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _finite_or_null(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(value) for value in obj]
    return obj


def _emit_json(cfg: RunConfig, obj: dict) -> None:
    _emit(cfg, json.dumps(_finite_or_null(obj), sort_keys=True, allow_nan=False))


def _parse_start(raw: str):
    if raw == "stationary":
        return raw
    if "," in raw:
        return [float(tok) for tok in raw.split(",")]
    return int(raw)


def _cmd_simulate(cfg: RunConfig) -> None:
    P = _load_chain(cfg)
    tr = simulate(P, cfg.m, start=_parse_start(cfg.start), seed=cfg.seed)
    if cfg.fmt == "binary":
        payload = mio.trajectory_to_bytes(tr)
        if cfg.out:
            Path(cfg.out).write_bytes(payload)
        else:
            sys.stdout.buffer.write(payload)
    else:
        _emit(cfg, mio.trajectory_to_text(tr))


def _cmd_stats(cfg: RunConfig) -> None:
    tr = _load_trajectory(cfg)
    _emit_json(cfg, tally(tr, cfg.k).to_dict())


def _cmd_estimate(cfg: RunConfig) -> None:
    tr = _load_trajectory(cfg)
    method = cfg.method
    if method == "pi-star":
        _emit_json(cfg, {"estimator": "pi-star", "value": estimators.pi_star_hat(tr)})
        return
    if method == "ps-prefix":
        report = estimators.gamma_ps_prefix_hat(tr, 10 if cfg.K is None else cfg.K)
    elif method == "ps-additive":
        report = estimators.gamma_ps_additive(tr, cfg.epsilon)
    elif method == "ps-amplified":
        report = estimators.gamma_ps_amplified(tr)
    elif method == "ps-adaptive":
        report = estimators.gamma_ps_adaptive_multiplicative(tr, cfg.epsilon)
    elif method == "dps":
        report = estimators.gamma_dps_hat(tr, alpha=cfg.alpha, K=cfg.K)
    else:
        raise ValueError(f"unknown method {method!r}")
    _emit_json(cfg, report.to_dict())


def _cmd_interval(cfg: RunConfig) -> None:
    tr = _load_trajectory(cfg)
    c = cfg.c_override if cfg.c_override is not None else confidence.DEFAULT_C
    report = confidence.confidence_interval(tr, alpha=cfg.alpha, delta=cfg.delta, c=c)
    if cfg.csv:
        lines = ["k,W,V,T,U"]
        for k, terms in sorted(report.per_k_terms.items()):
            lines.append(
                f"{k},{terms['W']!r},{terms['V']!r},{terms['T']!r},{terms['U']!r}"
            )
        Path(cfg.csv).write_text("\n".join(lines) + "\n")
    _emit_json(cfg, report.to_dict())


def _cmd_oracle(cfg: RunConfig) -> None:
    P = _load_chain(cfg)
    _emit_json(cfg, oracle.full_spectral_report(P).to_dict())


def _cmd_lemma_check(cfg: RunConfig) -> None:
    P = _load_chain(cfg)
    _emit_json(cfg, oracle.verify_lemma_properties(P, cfg.k_max).to_dict())


def _cmd_bench(cfg: RunConfig) -> None:
    P = _load_chain(cfg)
    c = cfg.c_override if cfg.c_override is not None else confidence.DEFAULT_C
    csv_text = bench_mod.bench_convergence(
        P, cfg.m_grid, cfg.seeds, alpha=cfg.alpha, delta=cfg.delta, c=c
    )
    _emit(cfg, csv_text)


_COMMANDS = {
    "simulate": _cmd_simulate,
    "stats": _cmd_stats,
    "estimate": _cmd_estimate,
    "interval": _cmd_interval,
    "oracle": _cmd_oracle,
    "lemma-check": _cmd_lemma_check,
    "bench": _cmd_bench,
}


def run(cfg: RunConfig) -> int:
    """Execute one command; returns the process exit code."""
    try:
        _COMMANDS[cfg.command](cfg)
        return 0
    except MixgapError as err:
        sys.stderr.write(json.dumps({"error": err.code, "message": str(err)}) + "\n")
        return 2
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as err:
        _invalid_input(str(err))
        return 1


def _invalid_input(message: str) -> None:
    sys.stderr.write(json.dumps({"error": "INVALID_INPUT", "message": message}) + "\n")


class _ArgumentParser(argparse.ArgumentParser):
    """Argument errors exit 1 with INVALID_INPUT, like every other bad input."""

    def error(self, message):
        _invalid_input(f"{self.prog}: {message}")
        sys.exit(1)


def _int_list(raw: str) -> list[int]:
    return [int(tok) for tok in raw.split(",")]


def _parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="mixgap",
        description="Spectral mixing parameters of ergodic Markov chains: "
        "exact oracles and single-trajectory estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", help="write the report here instead of stdout")
        p.add_argument("--seed", type=int, default=0)

    def add_matrix(p):
        p.add_argument("--matrix", help="matrix file (.json or .csv)")
        p.add_argument("--fixture", help="canned chain name (ex31, fast3, rand5a, rand5b)")

    def add_trajectory(p):
        p.add_argument("--trajectory", help="trajectory file, or '-' for stdin")
        p.add_argument("--n", type=int, help="state-space size (default: max index + 1)")

    p = sub.add_parser("simulate", help="sample a trajectory from a chain")
    add_common(p)
    add_matrix(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--start", default="stationary", help="state index, comma probs, or 'stationary'")
    p.add_argument("--format", dest="fmt", choices=["text", "binary"], default="text")

    p = sub.add_parser("stats", help="tally a k-skipped trajectory")
    add_common(p)
    add_trajectory(p)
    p.add_argument("--k", type=int, default=1)

    p = sub.add_parser("estimate", help="run a point estimator on a trajectory")
    add_common(p)
    add_trajectory(p)
    p.add_argument(
        "--method",
        choices=["pi-star", "ps-prefix", "ps-additive", "ps-amplified", "ps-adaptive", "dps"],
        default="dps",
    )
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--alpha", type=float, default=1e-2)
    p.add_argument("--K", type=int)

    p = sub.add_parser("interval", help="empirical confidence interval for the dilated gap")
    add_common(p)
    add_trajectory(p)
    p.add_argument("--alpha", type=float, default=1e-2)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--c-override", type=float, dest="c_override")
    p.add_argument("--csv", help="also write per-skip terms as CSV here")

    p = sub.add_parser("oracle", help="exact spectral report for a known matrix")
    add_common(p)
    add_matrix(p)

    p = sub.add_parser("lemma-check", help="verify the gap inequalities on a known matrix")
    add_common(p)
    add_matrix(p)
    p.add_argument("--k-max", type=int, dest="k_max", default=10)

    p = sub.add_parser("bench", help="convergence/coverage table as CSV")
    add_common(p)
    add_matrix(p)
    p.add_argument(
        "--m-grid", dest="m_grid", type=_int_list, default="1000,10000",
        help="comma-separated m values",
    )
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--alpha", type=float, default=1e-2)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--c-override", type=float, dest="c_override")
    return parser


def parse_args(argv: list[str] | None = None) -> RunConfig:
    ns = vars(_parser().parse_args(argv))
    fields = {f for f in RunConfig.__dataclass_fields__}
    return RunConfig(**{k: v for k, v in ns.items() if k in fields and v is not None})


def main(argv: list[str] | None = None) -> int:
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
