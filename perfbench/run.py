"""mixgap benchmark: four workloads through the public library calls.

Run from the repository root:

    python3 perfbench/run.py --workload pipe-long --seed 0 --seconds 20 --trace 0

One process, one client, closed loop: each op starts when the previous one
has been checked. Inputs come from --seed and the op index only. After one
untimed warm-up op, ops run until --seconds of wall time have passed (and at
least MIN_OPS have run). Each op's summary is checked for invariants, and for
the reference seed also against reference.json. Times are scaled to a fixed
machine speed by the probe in probe.py (see README.md).

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 each op runs once untraced and once traced (alternating which goes
first), the two summaries must be identical, and the last line carries the
per-layer metrics. The line before it is a JSON detail record: environment,
input properties, tail percentile and sample counts, failures.
"""

from __future__ import annotations

import os

# Set before numpy loads: with two OpenBLAS threads on a shared 2-core box the
# 40-648 sized solves here slowed by up to 20x whenever another process ran.
CALLER_OPENBLAS_THREADS = os.environ.get("OPENBLAS_NUM_THREADS")
os.environ["OPENBLAS_NUM_THREADS"] = "1"
# bench_convergence would start a process pool; the workload runs in one process
CALLER_MIXGAP_THREADS = os.environ.pop("MIXGAP_THREADS", None)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

from gate import compare  # noqa: E402
from probe import NOMINAL_S as PROBE_NOMINAL_S  # noqa: E402
from probe import Probe  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_build" / "perfbench"
REFERENCE = HERE / "reference.json"
REFERENCE_SEED = 0
MIN_OPS = 11  # op_tail_s needs 10 ops beyond it
MIN_TRACED_OPS = 3
SETUP_REPEATS = 9

IMPORT_SNIPPET = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import mixgap; print(time.perf_counter() - t); print(mixgap.__file__)"
)


def import_mixgap():
    """Import mixgap from this checkout's src/, never from an installed copy."""
    if not (SRC / "mixgap" / "__init__.py").is_file():
        sys.exit(f"perfbench: no mixgap sources at {SRC / 'mixgap'}")
    sys.path.insert(0, str(SRC))
    import mixgap

    if Path(mixgap.__file__).resolve().parent != SRC / "mixgap":
        sys.exit(f"perfbench: imported mixgap from {mixgap.__file__}, not from {SRC}")
    return mixgap


def measure_setup() -> tuple[float, float]:
    """Median time to import mixgap in a fresh process, scaled and raw.

    The first import is untimed; each timed one is scaled by the probe runs
    just before and after it, like op times.
    """
    probe = Probe()
    probe()
    times, raw = [], []
    before = probe()
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_SNIPPET, str(SRC)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        after = probe()
        seconds, where = proc.stdout.split("\n")[:2]
        if Path(where).resolve().parent != SRC / "mixgap":
            sys.exit(f"perfbench: fresh process imported mixgap from {where}")
        if i:
            raw.append(float(seconds))
            times.append(float(seconds) * PROBE_NOMINAL_S * 2.0 / (before + after))
        before = after
    return median(times), median(raw)


def openblas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports, by library file name."""
    found = {}
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower() and ".so" in line})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(lib).name] = fn()
                break
    return found


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "OPENBLAS_NUM_THREADS": {"caller": CALLER_OPENBLAS_THREADS, "used": os.environ["OPENBLAS_NUM_THREADS"]},
        "openblas_threads": openblas_threads(),
        "MIXGAP_THREADS": {"caller": CALLER_MIXGAP_THREADS, "used": None},
        "git_commit": git_commit(),
    }


def normalize(summary: dict) -> dict:
    """JSON round trip, so summaries compare like the recorded reference."""
    return json.loads(json.dumps(summary))


class Runner:
    """Runs and checks ops of one workload, counting attempts and failures."""

    def __init__(self, workload, seed: int, tmp: Path, reference: list[dict] | None):
        self.w = workload
        self.seed = seed
        self.tmp = tmp
        self.reference = reference or []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.props: dict[str, list] = defaultdict(list)
        self.reference_checked = 0

    def run(self, inp: dict) -> tuple[dict | str, float]:
        """The op's normalized summary, or the error it raised, and its time."""
        start = time.perf_counter()
        try:
            out = normalize(self.w.run(inp, self.tmp))
        except Exception as exc:  # a failed op is counted, and the run goes on
            out = f"raised {type(exc).__name__}: {exc}"
        return out, time.perf_counter() - start

    def check(self, op: int, inp: dict, out: dict | str, problems: list[str] = ()) -> None:
        self.attempted += 1
        problems = list(problems)
        if isinstance(out, str):
            problems.append(out)
        else:
            problems += self.w.check(inp, out)
            if op < len(self.reference):
                problems += compare(self.reference[op], out)
                self.reference_checked += 1
            for key, value in self.w.props(inp, out).items():
                if value not in self.props[key]:
                    self.props[key].append(value)
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems += [f"op {op}: {p}" for p in problems[:5]]

    def inputs_seen(self) -> dict:
        """Each input property's value, or its distinct values in order seen."""
        return {key: values[0] if len(values) == 1 else values for key, values in self.props.items()}


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with 10 samples beyond it."""
    ordered = sorted(times)
    i = len(ordered) - 11
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def measure(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics; times are scaled to the probe's nominal speed."""
    w = runner.w
    setup_s, raw_setup_s = measure_setup()
    probe = Probe()
    raw, probes, times, work = [], [], [], 0
    probe()  # untimed: the first call pays one-off costs
    before = probe()
    op = 1
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(times) < MIN_OPS:
        inp = w.inputs(runner.seed, op)
        out, dt = runner.run(inp)
        after = probe()
        runner.check(op, inp, out)
        raw.append(dt)
        probes.append(after)
        times.append(dt * PROBE_NOMINAL_S * 2.0 / (before + after))
        work += w.work(inp)
        before = after
        op += 1
    value, percentile = tail(times)
    metrics = {
        "op_p50_s": (median(times), "s"),
        "op_tail_s": (value, "s"),
        "work_per_s": (work / sum(times), "work/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_ratio": ((runner.attempted - runner.failed) / runner.attempted, "ratio"),
        "setup_s": (setup_s, "s"),
    }
    detail = {"ops": len(times), "op_tail_percentile": percentile, "work_unit": w.work_unit,
              "window_s": time.perf_counter() - start, "raw_op_p50_s": median(raw), "raw_setup_s": raw_setup_s,
              "probe_p50_s": median(probes), "probe_nominal_s": PROBE_NOMINAL_S}
    return metrics, detail


def measure_traced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    w = runner.w
    tracer = Tracer()
    times = {False: [], True: []}
    op = 1
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(times[True]) < MIN_TRACED_OPS:
        inp = w.inputs(runner.seed, op)
        outs = {}
        tracer.op = op
        for traced in (False, True) if op % 2 else (True, False):
            if traced:
                with tracer.installed():
                    outs[traced], dt = runner.run(inp)
            else:
                outs[traced], dt = runner.run(inp)
            times[traced].append(dt)
        differ = outs[True] != outs[False]
        runner.check(op, inp, outs[False], ["traced and untraced outputs differ"] if differ else [])
        op += 1
    metrics = layer_metrics(tracer, list(range(1, op)))
    metrics["trace.overhead_ratio"] = (median(times[True]) / median(times[False]) - 1.0, "ratio")
    SCRATCH.mkdir(parents=True, exist_ok=True)
    spans_file = SCRATCH / f"spans-{w.name}-seed{runner.seed}.jsonl"
    with open(spans_file, "w") as f:
        for record in tracer.to_records():
            f.write(json.dumps(record) + "\n")
    detail = {"ops": len(times[True]), "window_s": time.perf_counter() - start,
              "spans": len(tracer.spans), "spans_file": str(spans_file.relative_to(ROOT))}
    return metrics, detail


def _dup_ratio(spans) -> float:
    """Share of calls whose key equals the key of an earlier call in the same op."""
    seen, dups = set(), 0
    for s in spans:
        dups += (s.op, s.counters["key"]) in seen
        seen.add((s.op, s.counters["key"]))
    return dups / len(spans) if spans else 0.0


def layer_metrics(tracer: Tracer, ops: list[int]) -> dict:
    by_name = defaultdict(list)
    for s in tracer.spans:
        by_name[s.name].append(s)

    def per_op(name: str, value) -> float:
        totals = dict.fromkeys(ops, 0.0)
        for s in by_name[name]:
            totals[s.op] += value(s)
        return median(totals.values())

    metrics = {}
    for name in LAYERS:
        metrics[f"{name}.calls"] = (per_op(name, lambda s: 1), "count")
        metrics[f"{name}.self_s"] = (per_op(name, lambda s: s.self_ns / 1e9), "s")
    sim = by_name["chain.simulate"]
    sim_s = sum(s.self_ns for s in sim) / 1e9
    metrics["chain.simulate.steps_per_s"] = (sum(s.counters["steps"] for s in sim) / sim_s if sim else 0.0, "steps/s")
    metrics["io.bytes"] = (per_op("io.write", lambda s: s.counters["bytes"])
                           + per_op("io.load", lambda s: s.counters["bytes"]), "B")
    metrics["tallies.tally.dup_ratio"] = (_dup_ratio(by_name["tallies.tally"]), "ratio")
    solves = sorted(by_name["eigensolve.dense"] + by_name["eigensolve.lanczos"], key=lambda s: s.id)
    metrics["eigensolve.dup_ratio"] = (_dup_ratio(solves), "ratio")
    gaps = by_name["oracle.spectral_gaps"]
    iters = sum(s.counters["iters"] for s in gaps)
    metrics["oracle.skip.iters"] = (per_op("oracle.spectral_gaps", lambda s: s.counters["iters"]), "count")
    metrics["oracle.skip.useful_ratio"] = (sum(s.counters["useful"] for s in gaps) / iters if iters else 0.0, "ratio")
    metrics["estimators.amplified.levels"] = (per_op("estimators.amplified", lambda s: s.counters["levels"]), "count")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    import_mixgap()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    reference = json.loads(REFERENCE.read_text())
    ref = reference["workloads"][w.name] if args.seed == reference["seed"] else None

    env = environment()
    SCRATCH.mkdir(parents=True, exist_ok=True)
    tmp = SCRATCH / f"trajectory-{os.getpid()}.txt"
    try:
        runner = Runner(w, args.seed, tmp, ref and ref["ops"])
        warm = w.inputs(args.seed, 0)
        runner.check(0, warm, runner.run(warm)[0])
        metrics, detail = (measure_traced if args.trace else measure)(runner, args.seconds)
    finally:
        tmp.unlink(missing_ok=True)

    detail.update({
        "workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "inputs": runner.inputs_seen(),
        "reference_inputs": ref and ref["inputs"], "reference_ops_checked": runner.reference_checked,
        "problems": runner.problems,
    })
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
