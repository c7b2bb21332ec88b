"""Spans around mixgap's public functions, recorded from outside the package.

`Tracer.installed()` replaces every binding of each function in LAYERS with a
wrapper, in every loaded mixgap module: besides the defining module that
covers the names other modules import under their own name, such as
`estimators.tally`, `confidence.tally`, `confidence.spectral_gaps`,
`bench.simulate`, `bench.confidence_interval` and `bench.spectral_gaps`.
Calls inside a module go through its globals, so they are caught too.

A span records its name, op id, parent span, start and end. Self time is the
duration minus the time its child spans cover. Spans stay in memory until
the run ends.
"""

from __future__ import annotations

import functools
import hashlib
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


def _matrix_key(a) -> str:
    # the Lanczos route receives a matrix-free operator holding the matrix as .A
    a = np.ascontiguousarray(getattr(a, "A", a))
    return hashlib.blake2b(a.tobytes(), digest_size=16).hexdigest() + str(a.shape)


def _tally_key(t) -> str:
    h = hashlib.blake2b(digest_size=16)
    h.update(np.ascontiguousarray(t.visits).tobytes())
    h.update(np.ascontiguousarray(t.transitions.toarray()).tobytes())
    return h.hexdigest()


# span name -> (module, function, counters taken from (args, result))
LAYERS = {
    "chain.simulate": ("chain", "simulate", lambda a, r: {"steps": r.m}),
    "chain.stationary": ("chain", "stationary_distribution", None),
    "chain.mixing_time": ("chain", "mixing_time", None),
    "io.write": ("io", "save_trajectory", lambda a, r: {"bytes": os.path.getsize(a[1])}),
    "io.load": ("io", "load_trajectory", lambda a, r: {"bytes": os.path.getsize(a[0])}),
    "tallies.tally": ("tallies", "tally", lambda a, r: {"key": _tally_key(r)}),
    "tallies.smooth": ("tallies", "smoothed_estimates", None),
    "eigensolve.dense": ("eigensolve", "dense_symmetric_spectrum", lambda a, r: {"key": _matrix_key(a[0])}),
    "eigensolve.lanczos": ("eigensolve", "lanczos_second_eigenvalue", lambda a, r: {"key": _matrix_key(a[0])}),
    "oracle.spectral_gaps": (
        "oracle", "spectral_gaps", lambda a, r: {"iters": r.k_explored, "useful": max(r.k_ps, r.k_dps)}
    ),
    "oracle.full_report": ("oracle", "full_spectral_report", None),
    "estimators.dps_hat": ("estimators", "gamma_dps_hat", None),
    "estimators.amplified": ("estimators", "gamma_ps_amplified", lambda a, r: {"levels": len(r.diagnostics["scan"])}),
    "confidence.interval": ("confidence", "confidence_interval", None),
    "confidence.empirical_gamma_ps": ("confidence", "empirical_gamma_ps", None),
    "bench.convergence": ("bench", "bench_convergence", None),
}


@dataclass
class Span:
    name: str
    op: int
    id: int
    parent: int | None
    start_ns: int
    end_ns: int = 0
    child_ns: int = 0
    counters: dict = field(default_factory=dict)

    @property
    def self_ns(self) -> int:
        return self.end_ns - self.start_ns - self.child_ns


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[Span] = []

    def _wrap(self, name: str, fn, counters):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, self.op, len(self.spans), None if parent is None else parent.id, time.perf_counter_ns())
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end_ns = time.perf_counter_ns()
                self._stack.pop()
                if parent is not None:
                    parent.child_ns += span.end_ns - span.start_ns
            if counters is not None:
                start = time.perf_counter_ns()
                span.counters = counters(args, result)
                if parent is not None:
                    # counting is tracing overhead, not the parent's work
                    parent.child_ns += time.perf_counter_ns() - start
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every binding of every LAYERS function for the duration."""
        modules = [m for name, m in list(sys.modules.items()) if name == "mixgap" or name.startswith("mixgap.")]
        patched = []
        try:
            for name, (module, attr, counters) in LAYERS.items():
                original = getattr(sys.modules[f"mixgap.{module}"], attr)
                wrapper = self._wrap(name, original, counters)
                for mod in modules:
                    for binding, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, binding, wrapper)
                            patched.append((mod, binding, original))
            yield
        finally:
            for mod, binding, original in reversed(patched):
                setattr(mod, binding, original)

    def to_records(self) -> list[dict]:
        return [
            {"name": s.name, "op": s.op, "id": s.id, "parent": s.parent,
             "start_ns": s.start_ns, "end_ns": s.end_ns, "self_ns": s.self_ns, **s.counters}
            for s in self.spans
        ]
