"""The benchmark under perfbench/ looks package names up by string; keep them resolvable."""

import importlib
import runpy
from pathlib import Path

import mixgap.eigensolve

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_layer_resolves():
    for name, (module, attr, _) in runpy.run_path(str(TRACER))["LAYERS"].items():
        target = importlib.import_module(f"mixgap.{module}")
        assert callable(getattr(target, attr, None)), (name, module, attr)


def test_workload_properties_read_dense_threshold():
    assert isinstance(mixgap.eigensolve.DENSE_THRESHOLD, int)
