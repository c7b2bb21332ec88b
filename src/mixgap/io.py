"""File formats for matrices and trajectories.

Matrices: dense CSV (one row per line) or JSON ``{"n": ..., "rows": [[...]]}``.
Trajectories: text, or binary with the 8-byte magic header ``MXGTRJ01``
followed by little-endian uint32 indices, so the binary writer refuses a
state above 2^32 - 1.

Text is written as one decimal state index per line, from a grid of one
column per digit whose leading zeros are then dropped; when every state is
below 10, each line is one little-endian uint16 of the digit and "\n". It is
read as tokens separated by ASCII whitespace (the six bytes ``bytes.split()``
splits on), each read as Python ``int()`` reads it, in chunks that end just
after the first whitespace byte at or past _CHUNK_BYTES from their start; so
no token straddles a cut, and a chunk of the writer's one-digit layout
starts at a digit. A chunk of even length whose even bytes are all digits
and odd bytes all whitespace holds only one-digit tokens and is read by one
slice; a chunk whose length is odd or whose second byte is not whitespace is
ruled out at once. A chunk made only of whitespace and plain ASCII digit
tokens of at most 18 digits is parsed by numpy byte kernels. They class each
byte by wrapping uint8 arithmetic, without a lookup table: b is a digit when
b - 48 < 10, which is then its value, and whitespace when it is 32 or
b - 9 < 5. Any other chunk is read through ``int()`` token by token, which
then decides what is accepted and how a bad token is reported; chunks are
read in order, so the first bad token is named, and a value outside int64 is
reported only after the last chunk.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import numpy as np

from .chain import StochasticMatrix, Trajectory

TRAJECTORY_MAGIC = b"MXGTRJ01"

_MAX_DIGITS = 18  # 10**18 - 1 < 2**63, so no such token overflows int64
_POW10 = 10 ** np.arange(_MAX_DIGITS, dtype=np.int64)
# bytes the reader parses at a time, which bounds its temporaries
_CHUNK_BYTES = 1 << 18
# for a bytes pattern, \s is the six bytes `bytes.split()` splits on
_SPACE = re.compile(rb"\s")


def load_matrix(path: str | Path) -> StochasticMatrix:
    """Load a stochastic matrix from a .json or .csv file (sniffed by content)."""
    text = Path(path).read_text()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(text)
            rows = np.asarray(obj["rows"], dtype=float)
            if "n" in obj and (type(obj["n"]) is not int or (obj["n"],) != rows.shape[:1]):
                raise ValueError("declared n is not an integer matching the row count")
        except KeyError as err:
            raise ValueError(f"malformed matrix JSON: no {err} key") from None
        except (TypeError, OverflowError, RecursionError) as err:
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
    if width == 1:
        # the layout `_text_states` reads by slices: each state's line is one
        # little-endian uint16, its digit in the low byte and "\n" in the high
        lines = states.astype("<u2")
        lines += ord("0") | ord("\n") << 8
        return lines.view(np.uint8)
    grid = np.empty((states.size, width + 1), dtype=np.uint8)
    grid[:, width] = ord("\n")
    rest = states.astype(np.min_scalar_type(top))
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
        top = int(tr.states.max())
        if top > np.iinfo("<u4").max:
            raise ValueError(f"the binary trajectory format holds states up to 2^32 - 1, got {top}")
        return TRAJECTORY_MAGIC + tr.states.astype("<u4").tobytes()
    raise ValueError(f"unknown trajectory format {fmt!r}")


def save_trajectory(tr: Trajectory, path: str | Path, fmt: str = "text") -> None:
    # text is written from the encoded array itself, without a bytes copy
    Path(path).write_bytes(_text_bytes(tr.states) if fmt == "text" else encode_trajectory(tr, fmt))


def _is_space(b: np.ndarray) -> np.ndarray:
    """Which uint8 bytes are ASCII whitespace: space, or 9-13 (tab to carriage
    return), which wrap to at most 4 below 9 once 9 is taken off."""
    return (b == ord(" ")) | (b - 9 < 5)


def _int_chunk(chunk: bytes) -> list[int]:
    """Each token of a chunk the byte kernels cannot read, as ``int()`` reads it."""
    return [int(tok) for tok in chunk.split()]


def _is_one_digit_block(chunk: np.ndarray) -> bool:
    """Whether a chunk of bytes alternates digit, whitespace from its first byte."""
    if chunk.size % 2 or not _is_space(chunk[1:2]).all():
        return False
    digits, spaces = chunk.reshape(-1, 2).T.copy()
    digits -= ord("0")
    return bool(digits.max() < 10) and np.count_nonzero(_is_space(spaces)) == spaces.size


def _text_states(raw: bytes) -> np.ndarray:
    """The values of raw's whitespace-separated tokens, each chunk read once
    (the module docstring states the cut rule, the one-digit layout and the
    order of errors)."""
    buf = np.frombuffer(raw, dtype=np.uint8)
    # room for the most tokens raw can hold; pages never written never become resident
    states = np.empty(buf.size // 2 + 1, dtype=np.int64)
    filled = lo = 0
    overflow = None
    while lo < buf.size:
        space = _SPACE.search(raw, lo + _CHUNK_BYTES)
        hi = space.end() if space else buf.size
        chunk = buf[lo:hi]
        if _is_one_digit_block(chunk):
            values = states[filled : filled + chunk.size // 2]
            values[:] = chunk[0::2]
            values -= ord("0")
        else:
            # uint8 arithmetic wraps the bytes below "0", so only a digit's value is below 10
            digits = chunk - ord("0")
            # which bytes of the chunk are digits, between one non-digit at either end
            is_digit = np.zeros(chunk.size + 2, dtype=bool)
            np.less(digits, 10, out=is_digit[1:-1])
            edges = np.flatnonzero(is_digit[1:] != is_digit[:-1])
            starts, ends = edges[0::2], edges[1::2]
            lengths = ends - starts
            longest = int(lengths.max(initial=0))
            plain = np.count_nonzero(is_digit) + np.count_nonzero(_is_space(chunk)) == chunk.size
            if plain and longest <= _MAX_DIGITS:
                values = states[filled : filled + starts.size]
                values[:] = digits[ends - 1]
                for j in range(1, longest):
                    digit = digits[np.maximum(ends - 1 - j, starts)]
                    digit[lengths <= j] = 0
                    values += digit * _POW10[j]
            else:
                tokens = _int_chunk(raw[lo:hi])
                values = states[filled : filled + len(tokens)]
                try:
                    values[:] = tokens
                except OverflowError as err:
                    overflow = err
        filled += values.size
        lo = hi
    if overflow is not None:
        raise ValueError("state index outside the 64-bit integer range") from overflow
    return states[:filled]


def _states_from_bytes(raw: bytes) -> np.ndarray:
    if raw.startswith(TRAJECTORY_MAGIC):
        size = len(raw) - len(TRAJECTORY_MAGIC)
        if size % 4:
            raise ValueError(f"binary trajectory payload of {size} bytes is not a multiple of 4 (uint32)")
        return np.frombuffer(raw, dtype="<u4", offset=len(TRAJECTORY_MAGIC)).astype(np.int64)
    return _text_states(raw)


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
    states.flags.writeable = False  # a fresh buffer, so Trajectory takes it without a copy
    return Trajectory(states, n)
