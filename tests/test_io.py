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
from reference_routes import int_tokens


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


def test_binary_trajectory_refuses_states_above_uint32(tmp_path):
    # uint32 would wrap 2^32 + 5 to 5; the refusal comes before anything is written
    path = tmp_path / "traj.bin"
    with pytest.raises(ValueError, match=f"up to 2\\^32 - 1, got {2**32 + 5}"):
        save_trajectory(Trajectory(np.array([0, 2**32 + 5, 3]), n=2**32 + 6), path, fmt="binary")
    assert not path.exists()
    top = Trajectory(np.array([0, 2**32 - 1, 3]), n=2**32)
    save_trajectory(top, path, fmt="binary")
    assert load_trajectory(path).states.tolist() == [0, 2**32 - 1, 3]


def test_trajectory_n_inferred(tmp_path):
    path = tmp_path / "traj.txt"
    path.write_text("0\n4\n2\n")
    assert load_trajectory(path).n == 5


def test_empty_trajectory_rejected(tmp_path):
    path = tmp_path / "empty.trj"
    path.write_text("")
    with pytest.raises(ValueError):
        load_trajectory(path)


@pytest.mark.parametrize("n", [*range(1, 12), 300])
def test_text_encoding_matches_per_state_formatting(tmp_path, n):
    # up to 10 states a line is one uint16 of digit and newline, from 11 on
    # a digit grid; multi-digit indices, so an encoder must not mix up labels
    tr = Trajectory(np.random.default_rng(7).integers(0, n, size=10**5), n=n)
    expected = "\n".join(str(int(s)) for s in tr.states) + "\n"
    assert encode_trajectory(tr) == expected.encode()
    path = tmp_path / "traj.txt"
    save_trajectory(tr, path, fmt="text")
    assert path.read_bytes() == expected.encode()
    assert np.array_equal(load_trajectory(path, n=n).states, tr.states)


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


def is_plain(tok: bytes) -> bool:
    """Whether the byte kernels read tok: ASCII digits only, at most 18 of them."""
    return tok.isdigit() and len(tok) <= 18


def spy_int_chunks(patch) -> list[bytes]:
    """The chunks the reader hands to `_int_chunk`, in order, recorded before each parses."""
    calls = []
    parse = mio._int_chunk
    patch.setattr(mio, "_int_chunk", lambda chunk: calls.append(chunk) or parse(chunk))
    return calls


@given(raw=token_texts(), chunk=st.integers(1, 8))
@settings(max_examples=300, deadline=None)
# the cut rule: a token ending exactly at a cut; a 19-digit token across a
# cut, then starting at one; a last token with no whitespace after the last
# cut; an out-of-int64 token in an earlier chunk than a bad token, and in a
# later one (the bad token is named either way); empty and blank input
@example(raw=b"12 345\n", chunk=2)
@example(raw=b"5 1234567890123456789\n6", chunk=3)
@example(raw=b"5 1234567890123456789\n6", chunk=2)
@example(raw=b"7 123456789012345678", chunk=2)
@example(raw=b"99999999999999999999 1 x", chunk=1)
@example(raw=b"x 99999999999999999999", chunk=1)
@example(raw=b"", chunk=1)
@example(raw=b" \t\n\r\x0b\x0c", chunk=2)
def test_vectorized_and_per_token_decoders_agree(raw, chunk):
    # small chunks make tokens straddle chunk cuts
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mio, "_CHUNK_BYTES", chunk)
        calls = spy_int_chunks(patch)
        outcome = decode_outcome(mio._states_from_bytes, raw)
    assert outcome == decode_outcome(int_tokens, raw)
    # only chunks holding a token the kernels cannot read go through int(),
    # every such chunk up to the first bad token, and all of them on success
    assert all(not all(map(is_plain, c.split())) for c in calls)
    foreign = [tok for tok in raw.split() if not is_plain(tok)]
    seen = [tok for c in calls for tok in c.split() if not is_plain(tok)]
    assert seen == foreign[: len(seen)]
    if isinstance(outcome, list):
        assert seen == foreign


@pytest.mark.parametrize("b", range(256))
def test_every_byte_value_decodes_as_int_tokens(b):
    # the reader classifies digits and whitespace by uint8 arithmetic that
    # wraps below "0" and below tab; each byte, inside a token and alone,
    # must land in the class `bytes.split()` and `int()` give it
    for raw in (b"1" + bytes([b]) + b"2\n", bytes([b]) + b"\n"):
        with pytest.MonkeyPatch.context() as patch:
            calls = spy_int_chunks(patch)
            assert decode_outcome(mio._states_from_bytes, raw) == decode_outcome(int_tokens, raw)
        assert calls == ([] if all(map(is_plain, raw.split())) else [raw])


@st.composite
def one_digit_texts(draw):
    """The writer's layout when every state is below 10, any whitespace byte after each digit."""
    digits = draw(st.lists(st.sampled_from("0123456789"), min_size=1, max_size=40))
    return "".join(d + draw(st.sampled_from(WHITESPACE)) for d in digits).encode()


@st.composite
def mixed_texts(draw):
    """One-digit runs in the writer's layout and `token_texts()`, in any order."""
    return b"".join(draw(st.lists(st.one_of(one_digit_texts(), token_texts()), min_size=1, max_size=4)))


def alternates(chunk: bytes) -> bool:
    """Whether chunk is digit, whitespace, digit, whitespace, ... to its end."""
    return len(chunk) % 2 == 0 and chunk[0::2].isdigit() and chunk[1::2].isspace()


def spy_layout_checks(patch) -> list[tuple[bytes, bool]]:
    """Each chunk the one-digit layout check reads, in order, with its verdict."""
    checks = []
    check = mio._is_one_digit_block

    def recorded(chunk):
        checks.append((chunk.tobytes(), check(chunk)))
        return checks[-1][1]

    patch.setattr(mio, "_is_one_digit_block", recorded)
    return checks


@given(raw=mixed_texts(), chunk=st.integers(1, 8))
@settings(max_examples=300, deadline=None)
# near misses of the one-digit layout, each read by the kernels or int(): a
# two-digit token, an empty line, no last separator, a leading separator, a
# non-digit token and a two-byte line end; a one-digit line then others; and
# a three-digit token whose middle digit sits where the layout has whitespace
@example(raw=b"1\n10\n", chunk=1)
@example(raw=b"1\n\n2\n", chunk=1)
@example(raw=b"1\n2", chunk=1)
@example(raw=b"\n1\n", chunk=1)
@example(raw=b"+\n", chunk=1)
@example(raw=b"1\r\n", chunk=1)
@example(raw=b"5\n10\n7\n", chunk=8)
@example(raw=b"1 234 ", chunk=8)
def test_one_digit_chunks_are_read_by_one_slice(raw, chunk):
    # the layout check sees every chunk once, in order, up to a bad token, and
    # accepts exactly the chunks that alternate digit and whitespace; those are
    # read by the slice it guards, so none goes to the kernels or to int()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mio, "_CHUNK_BYTES", chunk)
        calls, checks = spy_int_chunks(patch), spy_layout_checks(patch)
        outcome = decode_outcome(mio._states_from_bytes, raw)
    assert outcome == decode_outcome(int_tokens, raw)
    read = b"".join(c for c, _ in checks)
    assert read == raw if isinstance(outcome, list) else raw.startswith(read)
    assert all(verdict == alternates(c) for c, verdict in checks)
    assert not any(map(alternates, calls))


def test_cuts_find_the_whitespace_the_kernels_class():
    # the cut search and the kernels' byte classes agree on every byte value
    every = np.arange(256, dtype=np.uint8)
    cuts = [mio._SPACE.match(bytes([b])) is not None for b in range(256)]
    assert cuts == mio._is_space(every).tolist()
    assert cuts == [bytes([b]).split() == [] for b in range(256)]


def test_only_the_chunk_with_a_foreign_token_goes_through_int(monkeypatch):
    # cuts after the first whitespace at or past 4 bytes: b"12 34 ", b"+5 67 ", b"89\n"
    monkeypatch.setattr(mio, "_CHUNK_BYTES", 4)
    calls = spy_int_chunks(monkeypatch)
    states = mio._states_from_bytes(b"12 34 +5 67 89\n")
    assert states.dtype == np.int64 and states.tolist() == [12, 34, 5, 67, 89]
    assert calls == [b"+5 67 "]


def traced_peak(func, arg):
    tracemalloc.start()
    try:
        return func(arg), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fmt", ["text", "binary"])
def test_load_keeps_the_decoded_buffer(tmp_path, monkeypatch, fmt):
    # the decoder's fresh array is frozen and taken by Trajectory without a copy
    decoded = []
    decode = mio._states_from_bytes
    monkeypatch.setattr(mio, "_states_from_bytes", lambda raw: decoded.append(decode(raw)) or decoded[-1])
    path = tmp_path / "tr"
    path.write_bytes(encode_trajectory(simulate(example_chain(), 1000, seed=0), fmt))
    assert load_trajectory(path).states is decoded[0]


def test_codec_memory_budget():
    # about 2.5 bytes per state to write and 20 to read on ex31 at m = 1e6;
    # index arrays over the whole input instead of a chunk would exceed them
    tr = simulate(example_chain(), 10**6, seed=0)
    raw, encode_peak = traced_peak(encode_trajectory, tr)
    states, decode_peak = traced_peak(mio._states_from_bytes, raw)
    assert np.array_equal(states, tr.states)
    assert encode_peak <= 8 * 2**20
    assert decode_peak <= 20 * 2**20


def test_one_foreign_token_costs_one_chunk_of_int():
    # a "+1" in front sends only the first chunk through int(); a second pass
    # over the whole input with a bytes object and an int per token would
    # peak at about 58 MiB on these 1e6 three-digit states
    cycle = np.arange(10**6) % 1000
    raw = b"+1\n" + encode_trajectory(Trajectory(cycle, n=1000))
    states, decode_peak = traced_peak(mio._states_from_bytes, raw)
    assert states[0] == 1 and np.array_equal(states[1:], cycle)
    assert decode_peak <= 28 * 2**20
