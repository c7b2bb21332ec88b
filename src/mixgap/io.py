"""File formats for matrices and trajectories.

Matrices: dense CSV (one row per line) or JSON ``{"n": ..., "rows": [[...]]}``.
Trajectories: text, or binary with the 8-byte magic header ``MXGTRJ01``
followed by little-endian uint32 indices.

Text is written as one decimal state index per line. It is read as tokens
separated by ASCII whitespace (the six bytes ``bytes.split()`` splits on),
each read as Python ``int()`` reads it. Input made only of whitespace and
plain ASCII digit tokens of at most 18 digits is parsed by numpy byte
kernels, in chunks cut before whitespace (`_digit_tokens` states the rule).
Any other byte, or a longer token, sends the whole input through ``int()``
token by token, which then decides what is accepted and how a bad token is
reported.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from .chain import StochasticMatrix, Trajectory

TRAJECTORY_MAGIC = b"MXGTRJ01"

# byte kinds of the text reader: 0 whitespace, 1 ASCII digit, 2 anything else
_BYTE_KIND = np.array(
    [0 if not bytes([b]).split() else 1 if bytes([b]).isdigit() else 2 for b in range(256)],
    dtype=np.uint8,
)
_MAX_DIGITS = 18  # 10**18 - 1 < 2**63, so no such token overflows int64
_POW10 = 10 ** np.arange(_MAX_DIGITS, dtype=np.int64)
# bytes the reader parses at a time, which bounds its temporaries
_CHUNK_BYTES = 1 << 18


def load_matrix(path: str | Path) -> StochasticMatrix:
    """Load a stochastic matrix from a .json or .csv file (sniffed by content)."""
    text = Path(path).read_text()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        obj = json.loads(text)
        try:
            rows = np.asarray(obj["rows"], dtype=float)
            if "n" in obj and (type(obj["n"]) is not int or (obj["n"],) != rows.shape[:1]):
                raise ValueError("declared n is not an integer matching the row count")
        except KeyError as err:
            raise ValueError(f"malformed matrix JSON: no {err} key") from None
        except (TypeError, OverflowError) as err:
            raise ValueError(f"malformed matrix JSON: {err}") from None
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


def _text_bytes(states: np.ndarray) -> np.ndarray:
    """ASCII bytes of one decimal index per line, for non-negative states."""
    top = int(states.max())
    width = len(str(top))
    rest = states.astype(np.min_scalar_type(top))
    grid = np.empty((states.size, width + 1), dtype=np.uint8)
    grid[:, width] = ord("\n")
    for col in range(width - 1, -1, -1):
        # rest - 10 * (rest // 10) is rest % 10, and much faster for integers
        quotient = rest // 10
        grid[:, col] = rest - 10 * quotient + ord("0")
        rest = quotient
    del rest, quotient
    # drop leading zeros; the last digit always stays, so 0 is written as "0"
    keep = np.ones(grid.shape, dtype=bool)
    np.logical_or.accumulate(grid[:, : width - 1] != ord("0"), axis=1, out=keep[:, : width - 1])
    return grid[keep]


def encode_trajectory(tr: Trajectory, fmt: str = "text") -> bytes:
    """The bytes of tr in the trajectory format fmt, "text" or "binary"."""
    if fmt == "text":
        return _text_bytes(tr.states).tobytes()
    if fmt == "binary":
        return TRAJECTORY_MAGIC + tr.states.astype("<u4").tobytes()
    raise ValueError(f"unknown trajectory format {fmt!r}")


def save_trajectory(tr: Trajectory, path: str | Path, fmt: str = "text") -> None:
    Path(path).write_bytes(encode_trajectory(tr, fmt))


def _digit_tokens(raw: bytes) -> np.ndarray | None:
    """The values of whitespace-separated ASCII digit tokens of at most 18
    digits; None when raw holds any other byte or a longer token.

    A chunk ends before the first whitespace byte of the 19 from _CHUNK_BYTES
    past its start, so no token straddles a cut; with none there, it ends at
    the end of raw if those 19 bytes reach it, else they make a token too long.
    """
    buf = np.frombuffer(raw, dtype=np.uint8)
    # room for the most tokens raw can hold; pages never written never become resident
    states = np.empty(buf.size // 2 + 1, dtype=np.int64)
    filled = lo = 0
    while lo < buf.size:
        cut = lo + _CHUNK_BYTES
        ahead = np.flatnonzero(_BYTE_KIND[buf[cut : cut + _MAX_DIGITS + 1]] == 0)
        if ahead.size:
            hi = cut + int(ahead[0])
        elif cut + _MAX_DIGITS + 1 >= buf.size:
            hi = buf.size
        else:
            return None
        chunk = buf[lo:hi]
        # byte kinds of the chunk between one whitespace kind at either end
        kind = np.zeros(chunk.size + 2, dtype=np.uint8)
        np.take(_BYTE_KIND, chunk, out=kind[1:-1], mode="clip")
        if kind.max() > 1:
            return None
        edges = np.flatnonzero(kind[1:] != kind[:-1])
        starts, ends = edges[0::2], edges[1::2]
        lengths = ends - starts
        longest = int(lengths.max(initial=0))
        if longest > _MAX_DIGITS:
            return None
        values = states[filled : filled + starts.size]
        values[:] = chunk[ends - 1] - ord("0")
        for j in range(1, longest):
            digit = chunk[np.maximum(ends - 1 - j, starts)] - ord("0")
            digit[lengths <= j] = 0
            values += digit * _POW10[j]
        filled += starts.size
        lo = hi
    return states[:filled]


def _int_tokens(raw: bytes) -> np.ndarray:
    tokens = raw.split()
    # parse each distinct token once; int() decides which tokens are valid
    try:
        values = {tok: int(tok) for tok in set(tokens)}
    except ValueError:
        for tok in tokens:  # name the first bad token in input order, not in set order
            int(tok)
        raise
    try:
        return np.array(list(map(values.__getitem__, tokens)), dtype=np.int64)
    except OverflowError as err:
        raise ValueError("state index outside the 64-bit integer range") from err


def _states_from_bytes(raw: bytes) -> np.ndarray:
    if raw.startswith(TRAJECTORY_MAGIC):
        size = len(raw) - len(TRAJECTORY_MAGIC)
        if size % 4:
            raise ValueError(f"binary trajectory payload of {size} bytes is not a multiple of 4 (uint32)")
        return np.frombuffer(raw, dtype="<u4", offset=len(TRAJECTORY_MAGIC)).astype(np.int64)
    states = _digit_tokens(raw)
    return _int_tokens(raw) if states is None else states


def load_trajectory(path: str | Path, n: int | None = None) -> Trajectory:
    """Load a trajectory from a file or '-' for stdin.

    The binary format is recognized by its magic header; anything else is
    read as ASCII-whitespace-separated tokens, each as ``int()`` reads it.
    When n is omitted it is inferred as max(state) + 1.
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
