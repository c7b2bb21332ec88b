"""File formats for matrices and trajectories.

Matrices: dense CSV (one row per line) or JSON ``{"n": ..., "rows": [[...]]}``.
Trajectories: one decimal state index per line (text), or binary with the
8-byte magic header ``MXGTRJ01`` followed by little-endian uint32 indices.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from .chain import StochasticMatrix, Trajectory

TRAJECTORY_MAGIC = b"MXGTRJ01"


def load_matrix(path: str | Path) -> StochasticMatrix:
    """Load a stochastic matrix from a .json or .csv file (sniffed by content)."""
    text = Path(path).read_text()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        obj = json.loads(text)
        rows = np.asarray(obj["rows"], dtype=float)
        if "n" in obj and int(obj["n"]) != rows.shape[0]:
            raise ValueError("declared n does not match row count")
    else:
        rows = np.array(
            [
                [float(v) for v in line.split(",")]
                for line in text.splitlines()
                if line.strip()
            ]
        )
    return StochasticMatrix(rows)


def save_matrix(P: StochasticMatrix, path: str | Path, fmt: str = "json") -> None:
    path = Path(path)
    if fmt == "json":
        path.write_text(matrix_to_json(P))
    elif fmt == "csv":
        lines = [",".join(repr(float(v)) for v in row) for row in P.rows]
        path.write_text("\n".join(lines) + "\n")
    else:
        raise ValueError(f"unknown matrix format {fmt!r}")


def matrix_to_json(P: StochasticMatrix) -> str:
    return json.dumps({"n": P.n, "rows": P.rows.tolist()}, sort_keys=True)


def trajectory_to_text(tr: Trajectory) -> str:
    # states repeat, so format each distinct state once and look the rest up
    states = tr.states.tolist()
    labels = {s: str(s) for s in set(states)}
    return "\n".join(map(labels.__getitem__, states)) + "\n"


def trajectory_to_bytes(tr: Trajectory) -> bytes:
    return TRAJECTORY_MAGIC + tr.states.astype("<u4").tobytes()


def save_trajectory(tr: Trajectory, path: str | Path, fmt: str = "text") -> None:
    path = Path(path)
    if fmt == "text":
        path.write_text(trajectory_to_text(tr))
    elif fmt == "binary":
        path.write_bytes(trajectory_to_bytes(tr))
    else:
        raise ValueError(f"unknown trajectory format {fmt!r}")


def _states_from_bytes(raw: bytes) -> np.ndarray:
    if raw.startswith(TRAJECTORY_MAGIC):
        return np.frombuffer(raw[len(TRAJECTORY_MAGIC):], dtype="<u4").astype(np.int64)
    tokens = raw.split()
    # parse each distinct token once; int() decides which tokens are valid
    values = {tok: int(tok) for tok in set(tokens)}
    return np.array(list(map(values.__getitem__, tokens)), dtype=np.int64)


def load_trajectory(path: str | Path, n: int | None = None) -> Trajectory:
    """Load a trajectory from a file or '-' for stdin.

    The binary format is recognized by its magic header; anything else is
    parsed as whitespace-separated decimal indices. When n is omitted it is
    inferred as max(state) + 1.
    """
    if str(path) == "-":
        raw = sys.stdin.buffer.read()
    else:
        raw = Path(path).read_bytes()
    states = _states_from_bytes(raw)
    if states.size == 0:
        raise ValueError("empty trajectory file")
    if n is None:
        n = int(states.max()) + 1
    return Trajectory(states, n)
