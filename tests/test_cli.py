import json
import subprocess
import sys

import pytest

from mixgap.chain import simulate
from mixgap.cli import RunConfig, main, parse_args, run
from mixgap.fixtures import example_chain
from mixgap.io import save_matrix, save_trajectory
from mixgap.oracle import full_spectral_report


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
        code = run(RunConfig(command="oracle", matrix=ex31_json, out=str(out)))
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
        assert run(RunConfig(command="oracle", matrix=str(path), out=str(out))) == 0
        report = read_json(out)
        assert report["gamma_ps"] == report["gamma_dps"] == 1.0

    def test_fixture_source(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(RunConfig(command="oracle", fixture="ex31", out=str(out))) == 0
        assert read_json(out)["t_mix"] == 5


class TestSimulateAndStats:
    def test_simulate_text_deterministic(self, ex31_json, tmp_path):
        out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (out1, out2):
            cfg = RunConfig(command="simulate", matrix=ex31_json, m=500, seed=9, out=str(out))
            assert run(cfg) == 0
        assert out1.read_text() == out2.read_text()

    def test_simulate_binary_roundtrip(self, ex31_json, tmp_path):
        out = tmp_path / "a.bin"
        cfg = RunConfig(command="simulate", matrix=ex31_json, m=100, seed=2, fmt="binary", out=str(out))
        assert run(cfg) == 0
        assert out.read_bytes()[:8] == b"MXGTRJ01"

    def test_stats_counts(self, traj_file, tmp_path):
        out = tmp_path / "stats.json"
        assert run(RunConfig(command="stats", trajectory=traj_file, k=2, out=str(out))) == 0
        stats = read_json(out)
        assert stats["k"] == 2
        assert sum(stats["visits"]) == (stats["m"] - 1) // 2


class TestEstimateCommand:
    @pytest.mark.parametrize(
        "method", ["pi-star", "ps-prefix", "ps-additive", "ps-amplified", "ps-adaptive", "dps"]
    )
    def test_methods_produce_reports(self, method, traj_file, tmp_path):
        out = tmp_path / "est.json"
        cfg = RunConfig(
            command="estimate", trajectory=traj_file, method=method, n=3,
            epsilon=0.5, K=3, out=str(out),
        )
        assert run(cfg) == 0
        report = read_json(out)
        assert 0.0 <= report["value"] <= 1.0

    def test_trajectory_too_short_exit_code(self, tmp_path, capsys):
        path = tmp_path / "tiny.trj"
        path.write_text("0\n")
        code = run(RunConfig(command="estimate", trajectory=str(path), method="dps"))
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "TRAJECTORY_TOO_SHORT"

    def test_reducible_matrix_exit_code(self, tmp_path, capsys):
        path = tmp_path / "identity.json"
        path.write_text('{"n": 2, "rows": [[1.0, 0.0], [0.0, 1.0]]}')
        code = run(RunConfig(command="oracle", matrix=str(path)))
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "REDUCIBLE"

    def test_prefix_K_zero_is_invalid(self, traj_file, capsys):
        code = main(["estimate", "--trajectory", traj_file, "--method", "ps-prefix", "--K", "0"])
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"] == "INVALID_INPUT"

    def test_missing_file_exit_code(self, capsys):
        code = run(RunConfig(command="estimate", trajectory="/nonexistent/x.trj"))
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"] == "INVALID_INPUT"


class TestIntervalCommand:
    def test_interval_report_and_csv(self, traj_file, tmp_path):
        out = tmp_path / "ci.json"
        csv = tmp_path / "terms.csv"
        cfg = RunConfig(
            command="interval", trajectory=traj_file, n=3, delta=0.1,
            out=str(out), csv=str(csv),
        )
        assert run(cfg) == 0
        report = read_json(out)
        lo, hi = report["interval"]
        assert 0.0 <= lo <= hi <= 1.0
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "k,W,V,T,U"
        assert len(lines) == 1 + len(report["per_k_terms"])

    def test_c_override_flag(self, traj_file, tmp_path):
        out = tmp_path / "ci.json"
        cfg = RunConfig(
            command="interval", trajectory=traj_file, n=3, c_override=0.001, out=str(out)
        )
        assert run(cfg) == 0
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


class TestLemmaCheckCommand:
    def test_ledger_passes(self, ex31_json, tmp_path):
        out = tmp_path / "ledger.json"
        cfg = RunConfig(command="lemma-check", matrix=ex31_json, k_max=6, out=str(out))
        assert run(cfg) == 0
        ledger = read_json(out)
        assert ledger["all_passed"] is True
        assert len(ledger["checks"]) > 10


class TestBenchCommand:
    def test_row_count_contract_and_reproducibility(self, tmp_path):
        outs = []
        for name in ("b1.csv", "b2.csv"):
            out = tmp_path / name
            cfg = RunConfig(
                command="bench", fixture="fast3", m_grid=[500, 1000], seeds=3, out=str(out)
            )
            assert run(cfg) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        lines = outs[0].decode().strip().splitlines()
        assert lines[0] == "m,seed,point,abs_error,half_width,covered"
        assert len(lines) == 1 + 2 * 3 + 2  # header + trials + medians


class TestArgumentParsing:
    def test_parse_bench_grid(self):
        cfg = parse_args(
            ["bench", "--fixture", "fast3", "--m-grid", "100,200", "--seeds", "2"]
        )
        assert cfg.m_grid == [100, 200]
        assert cfg.command == "bench"

    def test_parse_estimate_defaults(self):
        cfg = parse_args(["estimate", "--trajectory", "x.trj"])
        assert cfg.method == "dps"
        assert cfg.alpha == pytest.approx(0.01)

    @pytest.mark.parametrize(
        "extra", [["--bogus"], ["--lanczos-iters", "50"], ["--m", "x"]], ids=["unknown", "removed", "bad-type"]
    )
    def test_argument_errors_exit_invalid_input(self, extra, capsys):
        # --lanczos-iters was an eigensolver knob; old scripts passing it land here
        with pytest.raises(SystemExit) as exc:
            parse_args(["simulate", "--fixture", "ex31", "--m", "10", *extra])
        assert exc.value.code == 1
        assert json.loads(capsys.readouterr().err)["error"] == "INVALID_INPUT"

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
