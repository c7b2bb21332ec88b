import contextlib
import hashlib
import io
import json
import signal
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixgap.chain import StochasticMatrix, is_irreducible, simulate
from mixgap.cli import main, parse_args
from mixgap.fixtures import FIXTURES, example_chain
from mixgap.io import save_matrix, save_trajectory
from mixgap.oracle import full_spectral_report

from conftest import NEAR_PERIODIC_ROWS, PERIOD2_ROWS, birth_death


@pytest.fixture
def ex31_json(tmp_path):
    path = tmp_path / "ex31.json"
    save_matrix(example_chain(), path)
    return str(path)


@pytest.fixture
def traj_file(tmp_path):
    tr = simulate(example_chain(), 5000, seed=1)
    path = tmp_path / "traj.txt"
    save_trajectory(tr, path)
    return str(path)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestOracleCommand:
    def test_report_fields(self, ex31_json, tmp_path):
        out = tmp_path / "report.json"
        code = main(["oracle", "--matrix", ex31_json, "--out", str(out)])
        assert code == 0
        report = read_json(out)
        assert report["gamma_ps"] == pytest.approx(0.29495147459972404)
        assert report["gamma_dps"] == pytest.approx(0.19282161153045782)
        assert report["t_mix"] == 5
        assert report["k_ps"] == 2

    def test_finite_report_bytes(self, capsys):
        assert main(["oracle", "--fixture", "ex31"]) == 0
        report = full_spectral_report(example_chain()).to_dict()
        assert capsys.readouterr().out == json.dumps(report, sort_keys=True) + "\n"

    def test_one_state_matrix(self, tmp_path):
        path = tmp_path / "one.json"
        path.write_text('{"n": 1, "rows": [[1.0]]}')
        out = tmp_path / "r.json"
        assert main(["oracle", "--matrix", str(path), "--out", str(out)]) == 0
        report = read_json(out)
        assert report["gamma_ps"] == report["gamma_dps"] == 1.0

    def test_fixture_source(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["oracle", "--fixture", "ex31", "--out", str(out)]) == 0
        assert read_json(out)["t_mix"] == 5


class TestSimulateAndStats:
    def test_simulate_text_deterministic(self, ex31_json, tmp_path):
        out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (out1, out2):
            argv = ["simulate", "--matrix", ex31_json, "--m", "500", "--seed", "9", "--out", str(out)]
            assert main(argv) == 0
        assert out1.read_text() == out2.read_text()

    def test_simulate_binary_roundtrip(self, ex31_json, tmp_path):
        out = tmp_path / "a.bin"
        argv = ["simulate", "--matrix", ex31_json, "--m", "100", "--seed", "2", "--format", "binary"]
        assert main([*argv, "--out", str(out)]) == 0
        assert out.read_bytes()[:8] == b"MXGTRJ01"

    def test_m_beyond_physical_memory_exits_invalid_input(self):
        # 16 TB of draws and states: refused before anything is allocated
        code, out, err = run_in_process(["simulate", "--fixture", "ex31", "--m", "1000000000000"])
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "INVALID_INPUT"

    def test_stats_counts(self, traj_file, tmp_path):
        out = tmp_path / "stats.json"
        assert main(["stats", "--trajectory", traj_file, "--k", "2", "--out", str(out)]) == 0
        stats = read_json(out)
        assert stats["k"] == 2
        assert sum(stats["visits"]) == (stats["m"] - 1) // 2


# the options each estimate method reads, with a non-default value
METHOD_OPTIONS = {
    "pi-star": [],
    "ps-prefix": ["--K", "3"],
    "ps-additive": ["--epsilon", "0.5"],
    "ps-amplified": [],
    "ps-adaptive": ["--epsilon", "0.5"],
    "dps": ["--K", "3", "--alpha", "0.05"],
}


class TestEstimateCommand:
    @pytest.mark.parametrize("method", sorted(METHOD_OPTIONS))
    def test_methods_produce_reports(self, method, traj_file, tmp_path):
        out = tmp_path / "est.json"
        argv = ["estimate", "--trajectory", traj_file, "--method", method, "--n", "3",
                *METHOD_OPTIONS[method], "--out", str(out)]
        assert main(argv) == 0
        report = read_json(out)
        assert 0.0 <= report["value"] <= 1.0

    @pytest.mark.parametrize("method", sorted(METHOD_OPTIONS))
    @pytest.mark.parametrize("option", [["--K", "3"], ["--epsilon", "0.5"], ["--alpha", "0.05"]])
    def test_unread_option_exits_invalid_input(self, method, option, traj_file):
        argv = ["estimate", "--trajectory", traj_file, "--method", method, *option]
        code, out, err = run_in_process(argv)
        if option[0] in METHOD_OPTIONS[method]:
            assert code == 0
        else:
            assert (code, out) == (1, "")
            error = json.loads(err)
            assert error["error"] == "INVALID_INPUT"
            assert option[0] in error["message"]

    def test_trajectory_too_short_exit_code(self, tmp_path, capsys):
        path = tmp_path / "tiny.trj"
        path.write_text("0\n")
        code = main(["estimate", "--trajectory", str(path), "--method", "dps"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "TRAJECTORY_TOO_SHORT"

    def test_reducible_matrix_exit_code(self, tmp_path, capsys):
        path = tmp_path / "identity.json"
        path.write_text('{"n": 2, "rows": [[1.0, 0.0], [0.0, 1.0]]}')
        code = main(["oracle", "--matrix", str(path)])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "REDUCIBLE"

    def test_prefix_K_zero_is_invalid(self, traj_file, capsys):
        code = main(["estimate", "--trajectory", traj_file, "--method", "ps-prefix", "--K", "0"])
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"] == "INVALID_INPUT"

    def test_missing_file_exit_code(self, capsys):
        code = main(["estimate", "--trajectory", "/nonexistent/x.trj"])
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"] == "INVALID_INPUT"


class TestIntervalCommand:
    def test_interval_report_and_csv(self, traj_file, tmp_path):
        out = tmp_path / "ci.json"
        csv = tmp_path / "terms.csv"
        argv = ["interval", "--trajectory", traj_file, "--n", "3", "--delta", "0.1",
                "--out", str(out), "--csv", str(csv)]
        assert main(argv) == 0
        report = read_json(out)
        lo, hi = report["interval"]
        assert 0.0 <= lo <= hi <= 1.0
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "k,W,V,T,U"
        assert len(lines) == 1 + len(report["per_k_terms"])

    def test_c_override_flag(self, traj_file, tmp_path):
        out = tmp_path / "ci.json"
        argv = ["interval", "--trajectory", traj_file, "--n", "3", "--c-override", "0.001"]
        assert main([*argv, "--out", str(out)]) == 0
        assert not read_json(out)["vacuous"]

    def test_vacuous_report_is_strict_json(self, tmp_path, capsys):
        path = tmp_path / "zeros.txt"
        path.write_text("0\n0\n0\n0\n0\n")
        assert main(["interval", "--trajectory", str(path)]) == 0

        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        report = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert report["vacuous"]
        assert report["half_width"] is None
        assert report["per_k_terms"]["1"]["U"] is None

    def test_uncertifiable_empirical_gap_gives_vacuous_report(self, tmp_path):
        # with alpha = 1e-9 the smoothed P_hat of 0, 1, 0, 1, ... is within
        # about 1e-11 of periodic, and no certificate closes its oracle loop
        path = tmp_path / "alternating.txt"
        path.write_text("0\n1\n" * 500)
        start = time.perf_counter()
        code, out, err = run_in_process(["interval", "--trajectory", str(path), "--alpha", "1e-9"])
        assert time.perf_counter() - start < 2.0
        assert (code, err) == (0, "")
        report = json.loads(out, parse_constant=reject_constant)
        assert report["vacuous"] is True
        assert report["interval"] == [0.0, 1.0]
        assert report["diagnostics"]["degenerate_empirical_gap_k"] == 1

    def test_two_state_trajectory_is_too_short(self, tmp_path):
        path = tmp_path / "two.txt"
        path.write_text("0\n1\n")
        code, out, err = run_in_process(["interval", "--trajectory", str(path)])
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "TRAJECTORY_TOO_SHORT"


METHODS = ["pi-star", "ps-prefix", "ps-additive", "ps-amplified", "ps-adaptive", "dps"]
TRAJECTORY_COMMANDS = [["stats"], *(["estimate", "--method", m] for m in METHODS), ["interval"]]
# out of range, not an integer, outside int64, and a state index whose dense
# n x n count table (8 TB) no machine can hold
BAD_TOKENS = ["-1", "1.0", "abc", "99999999999999999999", "1000000"]


def reject_constant(token):
    raise ValueError(f"non-JSON constant {token}")


def run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@st.composite
def trajectory_texts(draw):
    tokens = draw(st.lists(st.integers(0, 4).map(str), min_size=1, max_size=12))
    if draw(st.booleans()):
        tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(BAD_TOKENS)))
    return "\n".join(tokens) + "\n"


class TestTrajectoryInputContract:
    @pytest.mark.parametrize(
        "text",
        ["0 1 99999999999999999999", "0 1 0 1000000 0"],
        ids=["int64-overflow", "huge-index"],
    )
    @pytest.mark.parametrize("command", TRAJECTORY_COMMANDS, ids=lambda c: c[-1])
    def test_former_traceback_inputs_exit_invalid_input(self, tmp_path, capsys, text, command):
        path = tmp_path / "traj.txt"
        path.write_text(text + "\n")
        assert main([*command, "--trajectory", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "INVALID_INPUT"

    @given(text=trajectory_texts(), n=st.one_of(st.none(), st.integers(1, 6)))
    @settings(max_examples=30, deadline=None)
    def test_report_or_typed_error_with_stable_bytes(self, text, n):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "traj.txt"
            path.write_text(text)
            n_flag = [] if n is None else ["--n", str(n)]
            for command in TRAJECTORY_COMMANDS:
                argv = [*command, "--trajectory", str(path), *n_flag]
                code, out, err = run_in_process(argv)
                if code == 0:
                    json.loads(out, parse_constant=reject_constant)
                    assert err == ""
                else:
                    assert code in (1, 2) and out == ""
                    error = json.loads(err)
                    assert set(error) == {"error", "message"}
                    assert (error["error"] == "INVALID_INPUT") == (code == 1)
                assert run_in_process(argv) == (code, out, err)


class Hang(Exception):
    pass


@contextlib.contextmanager
def time_cap(seconds):
    """Raise Hang in the running command once `seconds` pass, so a hang fails."""

    def fire(signum, frame):
        raise Hang(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def write_matrix(directory, rows):
    path = Path(directory) / "P.json"
    path.write_text(json.dumps({"n": len(rows), "rows": rows}))
    return str(path)


@st.composite
def stochastic_rows(draw):
    """Small row-stochastic matrices: dense, sparse, periodic, reducible or 1 x 1."""
    kind = draw(st.sampled_from(["one", "dense", "sparse", "periodic", "reducible"]))
    n = 1 if kind == "one" else draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    W = rng.random((n, n))
    if kind == "sparse":
        W *= rng.random((n, n)) < 0.4
    elif kind == "periodic":
        period = rng.integers(2, n + 1)
        cls = rng.permutation(n) % period
        W *= (cls[:, None] + 1) % period == cls[None, :]
    elif kind == "reducible":
        split = rng.integers(1, n)
        W[:split, split:] = 0.0
    for x in np.flatnonzero(W.sum(axis=1) == 0):
        W[x, rng.integers(n)] = 1.0
    return (W / W.sum(axis=1, keepdims=True)).tolist()


class TestMatrixInputContract:
    def test_unresolved_stationary_vector_exits_no_convergence(self, tmp_path):
        # pi_star = 2.5e-24; an absolute residual test lets through a pi whose
        # smallest entries are off by a factor of 1.2e6, and gaps off by 0.31
        rows = birth_death(40, 0.8).tolist()
        code, out, err = run_in_process(["oracle", "--matrix", write_matrix(tmp_path, rows)])
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "NO_CONVERGENCE"

    @pytest.mark.parametrize("command", ["oracle", "lemma-check"])
    def test_periodic_chain_exits_nonconvergent(self, tmp_path, command):
        argv = [command, "--matrix", write_matrix(tmp_path, PERIOD2_ROWS)]
        start = time.perf_counter()
        with time_cap(1.0):
            code, out, err = run_in_process(argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "NONCONVERGENT"

    @pytest.mark.parametrize("command", ["oracle", "lemma-check"])
    def test_near_periodic_chain_ends_in_report_or_typed_error(self, tmp_path, command):
        argv = [command, "--matrix", write_matrix(tmp_path, NEAR_PERIODIC_ROWS)]
        start = time.perf_counter()
        with time_cap(1.0):
            code, out, err = run_in_process(argv)
        assert time.perf_counter() - start < 1.0
        if code == 0:
            json.loads(out, parse_constant=reject_constant)
        else:
            assert (code, out) == (2, "")
            assert set(json.loads(err)) == {"error", "message"}

    @given(
        rows=stochastic_rows(),
        m=st.sampled_from([1, 300, 5000]),
        start=st.sampled_from(["stationary", "0", "uniform", "out-of-range"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_report_or_typed_error_with_stable_bytes(self, rows, m, start):
        n = len(rows)
        start = {"uniform": ",".join([repr(1.0 / n)] * n), "out-of-range": str(n)}.get(start, start)
        with tempfile.TemporaryDirectory() as tmp:
            path = write_matrix(tmp, rows)
            for command in ("oracle", "lemma-check"):
                argv = [command, "--matrix", path]
                with time_cap(5.0):
                    code, out, err = run_in_process(argv)
                    assert run_in_process(argv) == (code, out, err)
                if code == 0:
                    json.loads(out, parse_constant=reject_constant)
                    assert err == ""
                else:
                    assert (code, out) == (2, "")
                    assert set(json.loads(err)) == {"error", "message"}
            argv = ["simulate", "--matrix", path, "--m", str(m), "--start", start]
            with time_cap(5.0):
                code, out, err = run_in_process(argv)
                assert run_in_process(argv) == (code, out, err)
            if code == 0:
                states = [int(tok) for tok in out.split()]
                assert len(states) == m and 0 <= min(states) and max(states) < n
                assert err == ""
            else:
                assert code in (1, 2) and out == ""
                error = json.loads(err)
                assert set(error) == {"error", "message"}
                assert (error["error"] == "INVALID_INPUT") == (code == 1)
            if start == "stationary" and not is_irreducible(StochasticMatrix(rows)):
                assert code == 2
            if start == str(n):
                assert code == 1


class TestValueRanges:
    @pytest.mark.parametrize(
        "argv, name",
        [
            (["interval", "--trajectory", "TRAJ", "--c-override", "nan"], "c"),
            (["interval", "--trajectory", "TRAJ", "--c-override", "-1"], "c"),
            (["interval", "--trajectory", "TRAJ", "--c-override", "inf"], "c"),
            (["bench", "--fixture", "fast3", "--m-grid", "500", "--c-override", "nan"], "c"),
            (["estimate", "--trajectory", "TRAJ", "--method", "dps", "--alpha", "nan"], "alpha"),
            (["estimate", "--trajectory", "TRAJ", "--method", "dps", "--alpha", "inf"], "alpha"),
            (["interval", "--trajectory", "TRAJ", "--alpha", "nan"], "alpha"),
            (["interval", "--trajectory", "TRAJ", "--alpha", "inf"], "alpha"),
            (["bench", "--fixture", "fast3", "--m-grid", "500", "--alpha", "inf"], "alpha"),
            (["lemma-check", "--fixture", "ex31", "--k-max", "0"], "k_max"),
            (["lemma-check", "--fixture", "ex31", "--k-max", "-3"], "k_max"),
            (["lemma-check", "--fixture", "ex31", "--k-max", "21"], "k_max"),
            (["bench", "--fixture", "fast3", "--seeds", "0"], "seeds"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else v,
    )
    def test_out_of_range_value_exits_invalid_input(self, argv, name, traj_file):
        argv = [traj_file if tok == "TRAJ" else tok for tok in argv]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning on the way to the refusal
            code, out, err = run_in_process(argv)
        assert (code, out) == (1, "")
        error = json.loads(err)
        assert error["error"] == "INVALID_INPUT"
        assert error["message"].startswith(f"{name} must")


class TestLemmaCheckCommand:
    def test_ledger_passes(self, ex31_json, tmp_path):
        out = tmp_path / "ledger.json"
        assert main(["lemma-check", "--matrix", ex31_json, "--k-max", "6", "--out", str(out)]) == 0
        ledger = read_json(out)
        assert ledger["all_passed"] is True
        assert len(ledger["checks"]) > 10


class TestBenchCommand:
    def test_row_count_contract_and_reproducibility(self, tmp_path):
        outs = []
        for name in ("b1.csv", "b2.csv"):
            out = tmp_path / name
            argv = ["bench", "--fixture", "fast3", "--m-grid", "500,1000", "--seeds", "3"]
            assert main([*argv, "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        lines = outs[0].decode().strip().splitlines()
        assert lines[0] == "m,seed,point,abs_error,half_width,covered"
        assert len(lines) == 1 + 2 * 3 + 2  # header + trials + medians


# (argv, extra file the command writes) for every subcommand; TRAJ and TINY
# stand for trajectory files written by `golden_files`, CSV for a file to write
GOLDEN_CASES = {
    **{f"oracle-{f}": (["oracle", "--fixture", f], None) for f in FIXTURES},
    **{f"lemma-{f}": (["lemma-check", "--fixture", f, "--k-max", "6"], None) for f in FIXTURES},
    "simulate-text": (["simulate", "--fixture", "ex31", "--m", "5000", "--seed", "4"], None),
    "simulate-binary": (
        ["simulate", "--fixture", "rand5a", "--m", "5000", "--seed", "4", "--format", "binary"],
        None,
    ),
    "stats-k2": (["stats", "--trajectory", "TRAJ", "--k", "2"], None),
    **{f"estimate-{m}": (["estimate", "--trajectory", "TRAJ", "--method", m], None) for m in METHODS},
    **{
        f"estimate-{m}-K3": (["estimate", "--trajectory", "TRAJ", "--method", m, "--K", "3"], None)
        for m in METHODS
    },
    "interval-csv": (["interval", "--trajectory", "TRAJ", "--csv", "CSV"], "CSV"),
    "interval-c1": (["interval", "--trajectory", "TRAJ", "--c-override", "1"], None),
    "interval-alpha-delta": (
        ["interval", "--trajectory", "TRAJ", "--alpha", "0.1", "--delta", "0.2", "--n", "4"],
        None,
    ),
    "bench": (["bench", "--fixture", "fast3", "--m-grid", "2000,1000", "--seeds", "3"], None),
    "exit1-K0": (["estimate", "--trajectory", "TRAJ", "--method", "ps-prefix", "--K", "0"], None),
    "exit1-bad-method": (["estimate", "--trajectory", "TRAJ", "--method", "bogus"], None),
    "exit2-too-short": (["estimate", "--trajectory", "TINY"], None),
}

# blake2b-128 of the exit code, stdout, stderr and extra file of each case
# above, recorded before the CLI dropped its config dataclass; the bytes of
# every command must never change. The four estimate-*-K3 cases whose method
# does not read --K were re-recorded when estimate began to reject unread
# options: they exit 1 with INVALID_INPUT.
GOLDEN_DIGESTS = {
    "bench": "b71c410a4e9c8b86451f1bd11863bbc8",
    "estimate-dps": "ef42cd350332fb7baada5da5f7c30f6f",
    "estimate-dps-K3": "824b4ebeeec1cbdd6d802bf8d95038c0",
    "estimate-pi-star": "312372b2ae0eca5ec3d67540ad8aa276",
    "estimate-pi-star-K3": "13a10035528f573975e6336c96042464",
    "estimate-ps-adaptive": "cdeed7fe1f84b578e302ec9868b76efc",
    "estimate-ps-adaptive-K3": "85cd85010b69cdabc854e414b5b686e3",
    "estimate-ps-additive": "8e78d14265cc151c74757eb87a022960",
    "estimate-ps-additive-K3": "0ca7db8d48b4e5003ad361d519183f0d",
    "estimate-ps-amplified": "c68d639c3825fdc170d8255fc5744d6a",
    "estimate-ps-amplified-K3": "383baed2b9f2d738704b161804390b17",
    "estimate-ps-prefix": "18ca2b964185c8a537dedc88b621f4fd",
    "estimate-ps-prefix-K3": "512822bd10f4d4d68cb4c25c46de9793",
    "exit1-K0": "5eedf5f273c05e4b8172544d8f2501d7",
    "exit1-bad-method": "15142d54783c67c057cd3ed04e44ef22",
    "exit2-too-short": "cf1f24006a726818e9440fbebc616fd5",
    "interval-alpha-delta": "e35f2c61d4fd1111655fcb74a3854c31",
    "interval-c1": "988e5b785b6d871b46a6d155fc19f2c6",
    "interval-csv": "bb055dd843641bb22c7c20b6efb2bad1",
    "lemma-ex31": "c312fa099fd34a8c7e0431bc87751da6",
    "lemma-fast3": "e7d57288c37081790e02363e6b399ad5",
    "lemma-rand5a": "00d6cb15b15ff8266cda40198a92cd9a",
    "lemma-rand5b": "035389f6730dc735d18083e1a450a039",
    "oracle-ex31": "5401d81df46b4d62a9273e3e15c4a87a",
    "oracle-fast3": "1a3178b0b2e5d8f239f0f7dc19129a9e",
    "oracle-rand5a": "291dbfa96d836591a65cc4b608ed5862",
    "oracle-rand5b": "767f3d70be44dea690b1d7b961bf65db",
    "simulate-binary": "b5587f336a97613acbcf2ea71466c5dc",
    "simulate-text": "f223806a09aefe39d68b6b8a46a3f5ea",
    "stats-k2": "7315f3753ff41360ec3b17865854d09e",
}


def golden_bytes(argv, extra, files):
    """(exit code, stdout, stderr, extra file) bytes of main(argv)."""
    argv = [str(files.get(tok, tok)) for tok in argv]
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out.flush()
    written = Path(files[extra]).read_bytes() if extra else b""
    return code, out.buffer.getvalue(), err.getvalue().encode(), written


def golden_files(directory):
    directory = Path(directory)
    save_trajectory(simulate(example_chain(), 5000, seed=1), directory / "traj.txt")
    (directory / "tiny.txt").write_text("0\n")
    return {"TRAJ": directory / "traj.txt", "TINY": directory / "tiny.txt", "CSV": directory / "terms.csv"}


def golden_digest(code, out, err, written):
    h = hashlib.blake2b(digest_size=16)
    for part in (str(code).encode(), out, err, written):
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


class TestGoldenBytes:
    @pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
    def test_command_bytes_unchanged(self, case, tmp_path):
        argv, extra = GOLDEN_CASES[case]
        assert golden_digest(*golden_bytes(argv, extra, golden_files(tmp_path))) == GOLDEN_DIGESTS[case]


class TestArgumentParsing:
    def test_parse_bench_grid(self):
        cfg = parse_args(
            ["bench", "--fixture", "fast3", "--m-grid", "100,200", "--seeds", "2"]
        )
        assert cfg.m_grid == [100, 200]
        assert cfg.command == "bench"

    def test_parse_estimate_defaults(self, traj_file):
        cfg = parse_args(["estimate", "--trajectory", "x.trj"])
        assert cfg.method == "dps"
        code, out, _ = run_in_process(["estimate", "--trajectory", traj_file])
        assert code == 0
        assert json.loads(out)["diagnostics"]["alpha"] == pytest.approx(0.01)

    @pytest.mark.parametrize(
        "extra", [["--bogus"], ["--lanczos-iters", "50"], ["--m", "x"]], ids=["unknown", "removed", "bad-type"]
    )
    def test_argument_errors_exit_invalid_input(self, extra, capsys):
        # --lanczos-iters was an eigensolver knob; old scripts passing it land here
        with pytest.raises(SystemExit) as exc:
            parse_args(["simulate", "--fixture", "ex31", "--m", "10", *extra])
        assert exc.value.code == 1
        assert json.loads(capsys.readouterr().err)["error"] == "INVALID_INPUT"

    @pytest.mark.parametrize(
        "argv",
        [
            ["stats", "--trajectory", "x.trj"],
            ["estimate", "--trajectory", "x.trj"],
            ["interval", "--trajectory", "x.trj"],
            ["oracle", "--fixture", "ex31"],
            ["lemma-check", "--fixture", "ex31"],
            ["bench", "--fixture", "fast3"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_seed_is_read_by_simulate_only(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_args([*argv, "--seed", "3"])
        assert exc.value.code == 1
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "INVALID_INPUT"
        assert "--seed" in error["message"]

    def test_main_pipe_stdin(self, ex31_json, tmp_path):
        sim = subprocess.run(
            [sys.executable, "-m", "mixgap.cli", "simulate", "--matrix", ex31_json,
             "--m", "2000", "--seed", "3"],
            capture_output=True, check=True,
        )
        est = subprocess.run(
            [sys.executable, "-m", "mixgap.cli", "estimate", "--method", "dps",
             "--trajectory", "-", "--n", "3"],
            input=sim.stdout, capture_output=True, check=True,
        )
        report = json.loads(est.stdout)
        assert report["estimator"] == "dps"
