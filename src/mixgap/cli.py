"""Command-line entry point.

Subcommands: simulate, stats, estimate, interval, oracle, bench, lemma-check.
Reports are JSON on stdout (or --out); domain errors exit with code 2 and a
machine-readable JSON error object on stderr; I/O and argument errors exit
with code 1 and an INVALID_INPUT error object. Reports are strict JSON: a
non-finite float (the infinite half-width of a vacuous interval) is written
as null. All randomness flows from the --seed of simulate.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import bench as bench_mod
from . import confidence, estimators, io as mio, oracle
from .chain import StochasticMatrix, _report_dict, simulate
from .errors import MixgapError
from .fixtures import get_fixture
from .tallies import tally


def _load_chain(args: argparse.Namespace) -> StochasticMatrix:
    if args.fixture:
        return get_fixture(args.fixture)
    if not args.matrix:
        raise ValueError("need --matrix FILE or --fixture NAME")
    return mio.load_matrix(args.matrix)


def _load_trajectory(args: argparse.Namespace):
    if not args.trajectory:
        raise ValueError("need --trajectory FILE (or '-' for stdin)")
    return mio.load_trajectory(args.trajectory, n=args.n)


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text)
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


def _emit_json(args: argparse.Namespace, obj: dict) -> None:
    _emit(args, json.dumps(_finite_or_null(obj), sort_keys=True, allow_nan=False))


def _parse_start(raw: str):
    if raw == "stationary":
        return raw
    if "," in raw:
        return [float(tok) for tok in raw.split(",")]
    return int(raw)


def _cmd_simulate(args: argparse.Namespace) -> None:
    P = _load_chain(args)
    tr = simulate(P, args.m, start=_parse_start(args.start), seed=args.seed)
    payload = mio.encode_trajectory(tr, args.fmt)
    if args.out:
        Path(args.out).write_bytes(payload)
    else:
        sys.stdout.buffer.write(payload)


def _cmd_stats(args: argparse.Namespace) -> None:
    tr = _load_trajectory(args)
    _emit_json(args, tally(tr, args.k).to_dict())


# --method -> its estimator and the options it reads, with their defaults
_EPSILON = 0.1
_ESTIMATES = {
    "pi-star": (lambda tr: {"estimator": "pi-star", "value": estimators.pi_star_hat(tr)}, {}),
    "ps-prefix": (estimators.gamma_ps_prefix_hat, {"K": 10}),
    "ps-additive": (estimators.gamma_ps_additive, {"epsilon": _EPSILON}),
    "ps-amplified": (estimators.gamma_ps_amplified, {}),
    "ps-adaptive": (estimators.gamma_ps_adaptive_multiplicative, {"epsilon": _EPSILON}),
    "dps": (estimators.gamma_dps_hat, {"alpha": estimators.DEFAULT_ALPHA, "K": None}),
}


def _cmd_estimate(args: argparse.Namespace) -> None:
    estimate, options = _ESTIMATES[args.method]
    given = {name: getattr(args, name) for name in ("K", "epsilon", "alpha")}
    given = {name: value for name, value in given.items() if value is not None}
    unread = [f"--{name}" for name in given if name not in options]
    if unread:
        raise ValueError(f"--method {args.method} does not read {', '.join(unread)}")
    report = estimate(_load_trajectory(args), **{**options, **given})
    _emit_json(args, _report_dict(report))


def _cmd_interval(args: argparse.Namespace) -> None:
    tr = _load_trajectory(args)
    report = confidence.confidence_interval(tr, alpha=args.alpha, delta=args.delta, c=args.c)
    if args.csv:
        lines = ["k,W,V,T,U"]
        for k, terms in sorted(report.per_k_terms.items()):
            lines.append(
                f"{k},{terms['W']!r},{terms['V']!r},{terms['T']!r},{terms['U']!r}"
            )
        Path(args.csv).write_text("\n".join(lines) + "\n")
    _emit_json(args, report.to_dict())


def _cmd_oracle(args: argparse.Namespace) -> None:
    P = _load_chain(args)
    _emit_json(args, oracle.full_spectral_report(P).to_dict())


def _cmd_lemma_check(args: argparse.Namespace) -> None:
    P = _load_chain(args)
    _emit_json(args, oracle.verify_lemma_properties(P, args.k_max).to_dict())


def _cmd_bench(args: argparse.Namespace) -> None:
    P = _load_chain(args)
    csv_text = bench_mod.bench_convergence(
        P, args.m_grid, args.seeds, alpha=args.alpha, delta=args.delta, c=args.c
    )
    _emit(args, csv_text)


_COMMANDS = {
    "simulate": _cmd_simulate,
    "stats": _cmd_stats,
    "estimate": _cmd_estimate,
    "interval": _cmd_interval,
    "oracle": _cmd_oracle,
    "lemma-check": _cmd_lemma_check,
    "bench": _cmd_bench,
}


def run(args: argparse.Namespace) -> int:
    """Execute one command; returns the process exit code."""
    try:
        _COMMANDS[args.command](args)
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
    """Argument errors exit 1 with INVALID_INPUT; options match by full name only."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

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

    def add_matrix(p):
        p.add_argument("--matrix", help="matrix file (.json or .csv)")
        p.add_argument("--fixture", help="canned chain name (ex31, fast3, rand5a, rand5b)")

    def add_interval(p):
        p.add_argument("--alpha", type=float, default=estimators.DEFAULT_ALPHA)
        p.add_argument("--delta", type=float, default=confidence.DEFAULT_DELTA)
        p.add_argument("--c-override", type=float, dest="c", default=confidence.DEFAULT_C)

    def add_trajectory(p):
        p.add_argument("--trajectory", help="trajectory file, or '-' for stdin")
        p.add_argument("--n", type=int, help="state-space size (default: max index + 1)")

    p = sub.add_parser("simulate", help="sample a trajectory from a chain")
    add_common(p)
    add_matrix(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--start", default="stationary", help="state index, comma probs, or 'stationary'")
    p.add_argument("--format", dest="fmt", choices=["text", "binary"], default="text")

    p = sub.add_parser("stats", help="tally a k-skipped trajectory")
    add_common(p)
    add_trajectory(p)
    p.add_argument("--k", type=int, default=1)

    p = sub.add_parser("estimate", help="run a point estimator on a trajectory")
    add_common(p)
    add_trajectory(p)
    p.add_argument("--method", choices=list(_ESTIMATES), default="dps")
    # a method rejects the options it does not read; see _ESTIMATES for defaults
    p.add_argument("--epsilon", type=float, help="read by ps-additive and ps-adaptive")
    p.add_argument("--alpha", type=float, help="read by dps")
    p.add_argument("--K", type=int, help="read by ps-prefix and dps (dps default: adaptive)")

    p = sub.add_parser("interval", help="empirical confidence interval for the dilated gap")
    add_common(p)
    add_trajectory(p)
    add_interval(p)
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
    add_interval(p)
    return parser


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    return _parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
