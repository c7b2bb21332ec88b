"""Correctness gate: compare an op's summary with its recorded reference.

Integer, boolean and string fields (skip rates, K_hat, coverage bits, the
trajectory digest) must match exactly, except `k_explored`, which an early
stop in the oracle loop may lower. Float fields may differ by TOL, scaled by
the magnitude of values above 1 (the interval's W, V, T terms). TOL admits the
documented error of the Gram-matrix route, at most 1.5e-8 in sigma_2, which
moves gamma_ddagger = 1 - sigma_2 by as much and gamma_dagger = 1 - sigma_2^2
by at most twice as much; nothing larger passes.
"""

from __future__ import annotations

import math

TOL = 3e-8
NOT_COMPARED = frozenset({"k_explored"})


def close(a: float, b: float) -> bool:
    if a == b:
        return True
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= TOL * max(1.0, abs(b))


def compare(ref, out, path: str = "") -> list[str]:
    """Differences of `out` from `ref`; keys that only `out` has are ignored."""
    if isinstance(ref, dict):
        if not isinstance(out, dict):
            return [f"{path}: expected a mapping, got {out!r}"]
        problems = []
        for key, value in ref.items():
            if key in NOT_COMPARED:
                continue
            if key not in out:
                problems.append(f"{path}/{key}: missing")
            else:
                problems += compare(value, out[key], f"{path}/{key}")
        return problems
    if isinstance(ref, list):
        if not isinstance(out, list) or len(out) != len(ref):
            return [f"{path}: expected {len(ref)} items, got {out!r}"]
        return [p for i, (r, o) in enumerate(zip(ref, out)) for p in compare(r, o, f"{path}/{i}")]
    if isinstance(ref, float) and not isinstance(out, bool) and isinstance(out, (int, float)):
        return [] if close(float(out), ref) else [f"{path}: {out!r} differs from {ref!r} by more than {TOL}"]
    if type(out) is not type(ref) or out != ref:
        return [f"{path}: {out!r} != {ref!r}"]
    return []
