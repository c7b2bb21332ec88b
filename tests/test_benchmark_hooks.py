"""The benchmark under perfbench/ looks package names up by string; keep them resolvable,
and keep its correctness gate passing."""

import importlib
import json
import runpy
from pathlib import Path

import numpy as np
import pytest

import mixgap.eigensolve
from mixgap.chain import Trajectory
from mixgap.tallies import tally

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def test_every_traced_layer_resolves():
    for name, (module, attr, _) in runpy.run_path(str(TRACER))["LAYERS"].items():
        target = importlib.import_module(f"mixgap.{module}")
        assert callable(getattr(target, attr, None)), (name, module, attr)


def test_workload_properties_read_dense_threshold():
    assert isinstance(mixgap.eigensolve.DENSE_THRESHOLD, int)


def test_tally_key_separates_count_tables():
    key = runpy.run_path(str(TRACER))["_tally_key"]
    # equal visit counts (3, 1); the transition counts differ
    a = Trajectory(np.array([0, 1, 0, 0, 1]), n=2)
    b = Trajectory(np.array([0, 0, 0, 1, 0]), n=2)
    assert key(tally(a, 1)) == key(tally(a, 1))
    assert key(tally(a, 1)) != key(tally(b, 1))


@pytest.mark.parametrize("name", ["pipe-long", "coverage-grid", "oracle-slow", "wide-state"])
def test_op_zero_passes_the_correctness_gate(name, tmp_path, monkeypatch):
    # what `perfbench/run.py --seed 0` checks first, so a change that fails
    # every benchmark op fails here too
    monkeypatch.syspath_prepend(str(PERFBENCH))
    gate = importlib.import_module("gate")
    w = importlib.import_module("workloads").WORKLOADS[name]
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    assert reference["seed"] == 0
    inp = w.inputs(0, 0)
    out = json.loads(json.dumps(w.run(inp, tmp_path / "trajectory.txt")))
    assert gate.compare(reference["workloads"][name]["ops"][0], out) == []
    assert w.check(inp, out) == []
