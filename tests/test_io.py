import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mixgap.chain import Trajectory
from mixgap.cli import main
from mixgap.fixtures import example_chain
from mixgap.io import (
    TRAJECTORY_MAGIC,
    load_matrix,
    load_trajectory,
    save_matrix,
    save_trajectory,
    trajectory_to_text,
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
    assert raw[:8] == TRAJECTORY_MAGIC
    assert np.array_equal(load_trajectory(path).states, tr.states)


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
    assert trajectory_to_text(tr) == expected
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
