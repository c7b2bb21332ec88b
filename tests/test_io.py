import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from mixgap import io as mio
from mixgap.chain import Trajectory, simulate
from mixgap.cli import main
from mixgap.fixtures import example_chain
from mixgap.io import (
    TRAJECTORY_MAGIC,
    encode_trajectory,
    load_matrix,
    load_trajectory,
    save_matrix,
    save_trajectory,
)


def test_matrix_json_roundtrip(tmp_path):
    P = example_chain()
    path = tmp_path / "chain.json"
    save_matrix(P, path, fmt="json")
    assert_allclose(load_matrix(path).rows, P.rows)


def test_matrix_csv_roundtrip(tmp_path):
    P = example_chain()
    path = tmp_path / "chain.csv"
    save_matrix(P, path, fmt="csv")
    assert_allclose(load_matrix(path).rows, P.rows)


def test_matrix_json_declared_n_mismatch(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 3, "rows": [[0.5, 0.5], [0.5, 0.5]]}')
    with pytest.raises(ValueError):
        load_matrix(path)


def test_trajectory_text_roundtrip(tmp_path):
    tr = Trajectory(np.array([0, 2, 1, 1, 0]), n=3)
    path = tmp_path / "traj.txt"
    save_trajectory(tr, path, fmt="text")
    assert path.read_text() == "0\n2\n1\n1\n0\n"
    loaded = load_trajectory(path, n=3)
    assert np.array_equal(loaded.states, tr.states)
    assert loaded.n == 3


def test_trajectory_binary_roundtrip(tmp_path):
    tr = Trajectory(np.array([5, 0, 3] * 100), n=6)
    path = tmp_path / "traj.bin"
    save_trajectory(tr, path, fmt="binary")
    raw = path.read_bytes()
    assert raw == encode_trajectory(tr, "binary")
    assert raw[:8] == TRAJECTORY_MAGIC
    assert np.array_equal(load_trajectory(path).states, tr.states)
    with pytest.raises(ValueError, match="unknown trajectory format"):
        encode_trajectory(tr, "csv")


def test_trajectory_n_inferred(tmp_path):
    path = tmp_path / "traj.txt"
    path.write_text("0\n4\n2\n")
    assert load_trajectory(path).n == 5


def test_empty_trajectory_rejected(tmp_path):
    path = tmp_path / "empty.trj"
    path.write_text("")
    with pytest.raises(ValueError):
        load_trajectory(path)


def test_text_encoding_matches_per_state_formatting(tmp_path):
    # multi-digit indices, so a lookup-table encoder must not mix up labels
    tr = Trajectory(np.random.default_rng(7).integers(0, 300, size=10**5), n=300)
    expected = "\n".join(str(int(s)) for s in tr.states) + "\n"
    assert encode_trajectory(tr) == expected.encode()
    path = tmp_path / "traj.txt"
    save_trajectory(tr, path, fmt="text")
    assert path.read_bytes() == expected.encode()
    assert np.array_equal(load_trajectory(path, n=300).states, tr.states)


def test_text_tokens_follow_python_int(tmp_path):
    path = tmp_path / "traj.txt"
    path.write_text("+1\n1_0\n 0\t2\n")
    assert load_trajectory(path).states.tolist() == [1, 10, 0, 2]


@pytest.mark.parametrize("token", ["1.0", "abc", "\ufeff0", "99999999999999999999"])
def test_non_integer_token_rejected(tmp_path, token):
    path = tmp_path / "traj.txt"
    path.write_text(f"0\n{token}\n1\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_trajectory(path)


@pytest.mark.parametrize("token", ["1.0", "abc", "\ufeff0", "99999999999999999999"])
def test_stats_on_non_integer_token_is_invalid_input(tmp_path, capsys, token):
    path = tmp_path / "traj.txt"
    path.write_text(f"0\n{token}\n1\n", encoding="utf-8")
    assert main(["stats", "--trajectory", str(path)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "INVALID_INPUT"


WHITESPACE = " \t\n\r\x0b\x0c"  # the bytes `bytes.split()` splits on
# a sign, a separator, a decimal point, a BOM, a byte `str.split()` would
# split on but `bytes.split()` does not, and a non-ASCII digit
FOREIGN = ["+", "_", ".", "\ufeff", "\x1c", "\u0663"]


@st.composite
def token_texts(draw):
    digits = st.text("0123456789", min_size=1, max_size=20)
    tokens = draw(st.lists(digits, max_size=12))
    if tokens and draw(st.booleans()):
        at = draw(st.integers(0, len(tokens) - 1))
        cut = draw(st.integers(0, len(tokens[at])))
        tokens[at] = tokens[at][:cut] + draw(st.sampled_from(FOREIGN)) + tokens[at][cut:]
    gap = st.text(WHITESPACE, min_size=1, max_size=4)
    text = draw(st.text(WHITESPACE, max_size=3))
    for token in tokens:
        text += token + draw(gap)
    if draw(st.booleans()):
        text = text.rstrip(WHITESPACE)
    return text.encode()


def decode_outcome(decode, raw):
    try:
        return decode(raw).tolist()
    except ValueError as err:
        return type(err), str(err)


@given(raw=token_texts(), chunk=st.integers(1, 8))
@settings(max_examples=300, deadline=None)
# the cut rule's branches: a token ending exactly at a cut; a 19-digit token
# across a cut, then starting at one with 19 digits ahead; a last token with
# no whitespace in the 19 bytes at the last cut; empty and blank input
@example(raw=b"12 345\n", chunk=2)
@example(raw=b"5 1234567890123456789\n6", chunk=3)
@example(raw=b"5 1234567890123456789\n6", chunk=2)
@example(raw=b"7 123456789012345678", chunk=2)
@example(raw=b"", chunk=1)
@example(raw=b" \t\n\r\x0b\x0c", chunk=2)
def test_vectorized_and_per_token_decoders_agree(raw, chunk):
    # small chunks make tokens straddle chunk cuts
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mio, "_CHUNK_BYTES", chunk)
        fast = mio._digit_tokens(raw)
        outcome = decode_outcome(mio._states_from_bytes, raw)
    assert outcome == decode_outcome(mio._int_tokens, raw)
    plain = all(tok.isdigit() and len(tok) <= 18 for tok in raw.split())
    assert (fast is not None) == plain
    if plain:
        assert fast.dtype == np.int64 and fast.tolist() == outcome


def traced_peak(func, arg):
    tracemalloc.start()
    try:
        return func(arg), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_codec_memory_budget():
    # about 2.5 bytes per state to write and 20 to read on ex31 at m = 1e6;
    # index arrays over the whole input instead of a chunk would exceed them
    tr = simulate(example_chain(), 10**6, seed=0)
    raw, encode_peak = traced_peak(encode_trajectory, tr)
    states, decode_peak = traced_peak(mio._states_from_bytes, raw)
    assert np.array_equal(states, tr.states)
    assert encode_peak <= 8 * 2**20
    assert decode_peak <= 20 * 2**20
