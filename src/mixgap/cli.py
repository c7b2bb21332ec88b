"""Command-line entry point.

Subcommands: simulate, stats, estimate, interval, oracle, bench, lemma-check.
Each is one entry of `_COMMANDS` that returns its output, and `run` writes
every output one way: a report as strict JSON (a non-finite float, such as
the infinite half-width of a vacuous interval, as null), text as it is, and
a trajectory as bytes. On stdout, text ends in a newline; an --out file holds
the bytes as they are. Domain errors exit 2 with a JSON error object on
stderr; I/O and argument errors exit 1 with an INVALID_INPUT error object.
All randomness flows from the --seed of simulate.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import bench as bench_mod
from . import confidence, estimators, io as mio, oracle
from .chain import StochasticMatrix, simulate
from .errors import MixgapError
from .fixtures import FIXTURES, get_fixture
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


def _finite_or_null(obj):
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _finite_or_null(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(value) for value in obj]
    return obj


def _emit(out: str | None, output) -> None:
    """Write one command's output: bytes, text, or a report (a dict or a to_dict object)."""
    if not isinstance(output, (str, bytes)):
        report = output if isinstance(output, dict) else output.to_dict()
        output = json.dumps(_finite_or_null(report), sort_keys=True, allow_nan=False)
    text = isinstance(output, str)
    if out:
        (Path(out).write_text if text else Path(out).write_bytes)(output)
    elif text:
        sys.stdout.write(output if output.endswith("\n") else output + "\n")
    else:
        sys.stdout.buffer.write(output)


def _parse_start(raw: str):
    if raw == "stationary":
        return raw
    try:
        return [float(tok) for tok in raw.split(",")] if "," in raw else int(raw)
    except ValueError:
        raise ValueError(
            "--start must be a state index, comma-separated probabilities or "
            f"'stationary', got {raw!r}"
        ) from None


def _seed(seed: int) -> int:
    if seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {seed}")
    return seed


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


def _estimate(args: argparse.Namespace):
    estimate, options = _ESTIMATES[args.method]
    given = {name: getattr(args, name) for name in ("K", "epsilon", "alpha")}
    given = {name: value for name, value in given.items() if value is not None}
    unread = [f"--{name}" for name in given if name not in options]
    if unread:
        raise ValueError(f"--method {args.method} does not read {', '.join(unread)}")
    return estimate(_load_trajectory(args), **{**options, **given})


def _interval(args: argparse.Namespace):
    tr = _load_trajectory(args)
    report = confidence.confidence_interval(tr, alpha=args.alpha, delta=args.delta, c=args.c)
    if args.csv:
        rows = [f"{k},{t['W']!r},{t['V']!r},{t['T']!r},{t['U']!r}"
                for k, t in sorted(report.per_k_terms.items())]
        Path(args.csv).write_text("\n".join(["k,W,V,T,U", *rows]) + "\n")
    return report


# subcommand -> the function from its parsed arguments to its output
_COMMANDS = {
    "simulate": lambda args: mio.encode_trajectory(
        simulate(_load_chain(args), args.m, start=_parse_start(args.start), seed=_seed(args.seed)),
        args.fmt,
    ),
    "stats": lambda args: tally(_load_trajectory(args), args.k),
    "estimate": _estimate,
    "interval": _interval,
    "oracle": lambda args: oracle.full_spectral_report(_load_chain(args)),
    "lemma-check": lambda args: oracle.verify_lemma_properties(_load_chain(args), args.k_max),
    "bench": lambda args: bench_mod.bench_convergence(
        _load_chain(args), args.m_grid, args.seeds, alpha=args.alpha, delta=args.delta, c=args.c
    ),
}


def run(args: argparse.Namespace) -> int:
    """Execute one command; returns the process exit code."""
    try:
        _emit(args.out, _COMMANDS[args.command](args))
        return 0
    except MixgapError as err:
        sys.stderr.write(json.dumps({"error": err.code, "message": str(err)}) + "\n")
        return 2
    except (OSError, ValueError, KeyError) as err:
        # str() of a KeyError quotes its message; print the message itself
        _invalid_input(str(err.args[0]) if isinstance(err, KeyError) and err.args else str(err))
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

    def command(name, help, source):
        """A subparser with --out and the options of its input, "matrix" or "trajectory"."""
        p = sub.add_parser(name, help=help)
        p.add_argument("--out", help="write the report here instead of stdout")
        if source == "matrix":
            p.add_argument("--matrix", help="matrix file (.json or .csv)")
            p.add_argument("--fixture", help=f"canned chain name ({', '.join(FIXTURES)})")
        else:
            p.add_argument("--trajectory", help="trajectory file, or '-' for stdin")
            p.add_argument("--n", type=int, help="state-space size (default: max index + 1)")
        return p

    def add_interval(p):
        p.add_argument("--alpha", type=float, default=estimators.DEFAULT_ALPHA)
        p.add_argument("--delta", type=float, default=confidence.DEFAULT_DELTA)
        p.add_argument("--c-override", type=float, dest="c", default=confidence.DEFAULT_C)

    p = command("simulate", "sample a trajectory from a chain", "matrix")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--start", default="stationary", help="state index, comma probs, or 'stationary'")
    p.add_argument("--format", dest="fmt", choices=["text", "binary"], default="text")

    p = command("stats", "tally a k-skipped trajectory", "trajectory")
    p.add_argument("--k", type=int, default=1)

    p = command("estimate", "run a point estimator on a trajectory", "trajectory")
    p.add_argument("--method", choices=list(_ESTIMATES), default="dps")
    # a method rejects the options it does not read; see _ESTIMATES for defaults
    p.add_argument("--epsilon", type=float, help="read by ps-additive and ps-adaptive")
    p.add_argument("--alpha", type=float, help="read by dps")
    p.add_argument("--K", type=int, help="read by ps-prefix and dps (dps default: adaptive)")

    p = command("interval", "empirical confidence interval for the dilated gap", "trajectory")
    add_interval(p)
    p.add_argument("--csv", help="also write per-skip terms as CSV here")

    command("oracle", "exact spectral report for a known matrix", "matrix")

    p = command("lemma-check", "verify the gap inequalities on a known matrix", "matrix")
    p.add_argument("--k-max", type=int, dest="k_max", default=10)

    p = command("bench", "convergence/coverage table as CSV", "matrix")
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
