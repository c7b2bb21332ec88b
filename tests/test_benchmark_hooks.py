"""The benchmark under perfbench/ looks package names up by string; keep them resolvable."""

import importlib
import runpy
from pathlib import Path

import numpy as np

import mixgap.eigensolve
from mixgap.chain import Trajectory
from mixgap.tallies import tally

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
