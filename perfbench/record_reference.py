"""Record reference.json: the summaries of the first ops of every workload.

Run from the repository root, on the commit whose outputs become the
reference:

    python3 perfbench/record_reference.py

It records ops 0..REFERENCE_OPS-1 of the reference seed (the warm-up op and
the first timed ones) and refuses to record an op that fails its invariants.
"""

from __future__ import annotations

import json
import sys

import run

REFERENCE_OPS = 64


def main() -> int:
    run.import_mixgap()
    from workloads import WORKLOADS

    run.SCRATCH.mkdir(parents=True, exist_ok=True)
    tmp = run.SCRATCH / "trajectory-reference.txt"
    recorded = {}
    try:
        for w in WORKLOADS.values():
            runner = run.Runner(w, run.REFERENCE_SEED, tmp, None)
            ops = []
            for op in range(REFERENCE_OPS):
                inp = w.inputs(run.REFERENCE_SEED, op)
                out, _ = runner.run(inp)
                runner.check(op, inp, out)
                if runner.failed:
                    sys.exit(f"{w.name} op {op} failed: {runner.problems}")
                ops.append(out)
            recorded[w.name] = {"inputs": runner.inputs_seen(), "ops": ops}
            print(f"{w.name}: {len(ops)} ops", file=sys.stderr)
    finally:
        tmp.unlink(missing_ok=True)
    run.REFERENCE.write_text(json.dumps({"seed": run.REFERENCE_SEED, "workloads": recorded}, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
