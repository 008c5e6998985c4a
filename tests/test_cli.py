"""End-to-end CLI tests: parsing, precedence, emission, exit codes."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from conftest import read_csv_rows, read_trajectory_rows

from mfcir.cli import ConfigError, main, main_entry, parse_config
from mfcir.noise import CirculantEmbeddingError


class TestParseConfig:
    def test_long_horizon_ensemble_line(self):
        config = parse_config(
            "simulate --k 1 --theta 1 --sigma 1 --hurst 0.75 --T 10 "
            "--n 4096 --paths 50 --seed 7".split()
        )
        assert config.command == "simulate"
        assert config.params.k == 1.0
        assert config.mixed.hurst == 0.75
        assert config.grid.horizon_t == 10.0
        assert config.grid.steps_n == 4096
        assert config.n_paths == 50
        assert config.seed == 7

    def test_defaults(self):
        config = parse_config(["simulate"])
        assert config.params.k == 1.0
        assert config.params.theta == 1.0
        assert config.params.sigma == 1.0
        assert config.mixed.hurst == 0.75
        assert config.grid.horizon_t == 1.0
        assert config.grid.steps_n == 1024
        assert config.seed == 42
        assert config.format == "csv"
        assert config.output_path == "-"

    def test_rejects_small_hurst(self):
        with pytest.raises(ConfigError, match="hurst"):
            parse_config(["simulate", "--hurst", "0.4"])

    def test_rejects_bad_numbers(self):
        with pytest.raises(ConfigError):
            parse_config(["simulate", "--sigma", "-1"])
        with pytest.raises(ConfigError):
            parse_config(["simulate", "--paths", "0"])
        with pytest.raises(ConfigError):
            parse_config(["simulate", "--seed", "-1"])
        with pytest.raises(ConfigError):
            parse_config(["mcstats", "--T", "1", "--t-eval", "2"])

    def test_rejects_unknown_flag(self):
        with pytest.raises(ConfigError):
            parse_config(["simulate", "--bogus", "1"])

    def test_preset_and_override(self):
        config = parse_config(["simulate", "--preset", "figure1"])
        assert config.grid.horizon_t == 10.0
        assert config.grid.steps_n == 4096
        assert config.n_paths == 50
        assert config.params.r0 == 1.0
        assert config.seed == 42  # preset leaves the seed alone
        override = parse_config(["simulate", "--preset", "figure1", "--paths", "5"])
        assert override.n_paths == 5
        with pytest.raises(ConfigError, match="preset"):
            parse_config(["simulate", "--preset", "figure99"])

    def test_feller_warning_not_fatal(self, capsys):
        config = parse_config(["simulate", "--sigma", "2"])
        assert config.params.sigma == 2.0
        assert "Feller" in capsys.readouterr().err

    def test_config_file_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment line\ntheta = 2\nn = 8\n", encoding="utf-8")
        config = parse_config(["simulate", "--config", str(cfg), "--theta", "3"])
        assert config.params.theta == 3.0  # flag beats file
        assert config.grid.steps_n == 8  # file beats default

    def test_config_file_rejects_unknown_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus=1\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="bogus"):
            parse_config(["simulate", "--config", str(cfg)])

    def test_config_file_rejects_bad_syntax(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just some words\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="key=value"):
            parse_config(["simulate", "--config", str(cfg)])

    def test_missing_config_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config(["simulate", "--config", "/no/such/file.cfg"])


class TestSimulateCommand:
    def test_row_count_and_order(self, tmp_path):
        out = tmp_path / "paths.csv"
        assert main(["simulate", "--n", "2", "--paths", "2", "--out", str(out)]) == 0
        rows = read_trajectory_rows(out)
        assert len(rows) == 6  # (n + 1) rows per path
        assert [pid for pid, *_ in rows] == [0, 0, 0, 1, 1, 1]
        times = [t for _, t, _, _ in rows[:3]]
        assert times == sorted(times)
        assert times[0] == 0.0

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["simulate", "--n", "16", "--paths", "3", "--seed", "9"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_transform_survives_round_trip(self, tmp_path):
        out = tmp_path / "paths.csv"
        assert main(["simulate", "--n", "32", "--sigma", "0.7", "--out", str(out)]) == 0
        for _, _, z, r in read_trajectory_rows(out):
            assert abs(r - (0.7 * z / 2.0) ** 2) <= np.spacing(max(r, 1e-300))

    def test_stdout_sink(self, capsys):
        assert main(["simulate", "--n", "2", "--paths", "1", "--out", "-"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "path_id,t,z,r"
        assert len(lines) == 4

    def test_json_lines(self, tmp_path):
        out = tmp_path / "paths.jsonl"
        code = main(
            ["simulate", "--n", "2", "--paths", "2", "--format", "json-lines", "--out", str(out)]
        )
        assert code == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(records) == 6
        assert set(records[0]) == {"path_id", "t", "z", "r"}


class TestReportCommands:
    def test_convergence_rows_and_footer(self, tmp_path):
        out = tmp_path / "conv.csv"
        argv = [
            "convergence", "--n-list", "8,16,32", "--n-ref", "256",
            "--paths", "3", "--out", str(out),
        ]
        assert main(argv) == 0
        header, rows, footer = read_csv_rows(out)
        assert header == ["n", "median_sup_error", "q25", "q75"]
        assert [int(r[0]) for r in rows] == [8, 16, 32]
        for _, median, q25, q75 in rows:
            assert q25 <= median <= q75
        assert set(footer) == {"fitted_order", "r2"}
        assert np.isfinite(footer["fitted_order"])

    def test_positivity_single_row(self, tmp_path):
        out = tmp_path / "pos.csv"
        assert main(["positivity", "--n", "64", "--paths", "4", "--out", str(out)]) == 0
        header, rows, footer = read_csv_rows(out)
        assert header == ["n_paths", "min_z", "min_r", "feller_ok"]
        assert footer is None
        assert len(rows) == 1
        n_paths, min_z, min_r, feller_ok = rows[0]
        assert n_paths == 4
        assert min_z > 0.0 and min_r > 0.0
        assert feller_ok is True

    def test_bracket_rows(self, tmp_path):
        out = tmp_path / "bracket.csv"
        argv = ["bracket", "--n", "16", "--refinements", "1,4", "--paths", "3", "--out", str(out)]
        assert main(argv) == 0
        header, rows, footer = read_csv_rows(out)
        assert header == ["n", "refinement", "qv", "bracket_value"]
        assert [(int(r[0]), int(r[1])) for r in rows] == [(16, 1), (4, 4)]
        assert rows[0][2] == rows[0][3]  # refinement 1: bracket equals QV

    def test_mcstats_row(self, tmp_path):
        out = tmp_path / "mc.csv"
        assert main(["mcstats", "--n", "32", "--paths", "8", "--out", str(out)]) == 0
        header, rows, footer = read_csv_rows(out)
        assert header == ["t_eval", "sample_mean", "sample_se", "n_paths", "closed_form_mean"]
        assert len(rows) == 1
        assert rows[0][4] is None  # no closed form under the mixed driver

    def test_mcstats_closed_form_when_brownian(self, tmp_path):
        out = tmp_path / "mc.csv"
        argv = ["mcstats", "--n", "32", "--paths", "8", "--weight-fbm", "0", "--out", str(out)]
        assert main(argv) == 0
        _, rows, _ = read_csv_rows(out)
        assert rows[0][4] is not None

    def test_convergence_json_lines(self, tmp_path):
        out = tmp_path / "conv.jsonl"
        argv = [
            "convergence", "--n-list", "8,16", "--n-ref", "128", "--paths", "2",
            "--format", "json-lines", "--out", str(out),
        ]
        assert main(argv) == 0
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(lines) == 3
        assert set(lines[-1]) == {"fitted_order", "r2"}


class TestExitCodes:
    def test_config_error_is_2(self, capsys):
        assert main(["simulate", "--hurst", "0.4"]) == 2
        assert "hurst" in capsys.readouterr().err

    def test_io_error_is_3(self, capsys):
        code = main(["simulate", "--n", "2", "--out", "/no/such/dir/out.csv"])
        assert code == 3
        assert "i/o" in capsys.readouterr().err

    def test_numerical_failure_is_4(self, monkeypatch, capsys):
        def explode(spec, grid, seed):
            raise CirculantEmbeddingError("synthetic eigenvalue failure")

        monkeypatch.setattr("mfcir.cli.build_mixed", explode)
        assert main(["simulate", "--n", "2", "--out", "-"]) == 4
        assert "numerical failure" in capsys.readouterr().err

    def test_success_is_0(self, capsys):
        assert main(["simulate", "--n", "2", "--out", "-"]) == 0
        capsys.readouterr()

    def test_entry_point_raises_system_exit(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["mfcir", "simulate", "--hurst", "0.4"])
        with pytest.raises(SystemExit) as excinfo:
            main_entry()
        assert excinfo.value.code == 2
        capsys.readouterr()


def test_installed_entry_point_subprocess(tmp_path):
    out = tmp_path / "smoke.csv"
    proc = subprocess.run(
        [
            sys.executable, "-c", "from mfcir.cli import main_entry; main_entry()",
            "simulate", "--n", "2", "--paths", "1", "--out", str(out),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


def _run_python(*args):
    """A fresh interpreter that imports mfcir from this checkout's src/."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120)


def test_python_dash_m_runs_the_cli(tmp_path):
    out = tmp_path / "pos.csv"
    proc = _run_python("-m", "mfcir", "positivity", "--n", "16", "--paths", "3", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    header, rows, footer = read_csv_rows(out)
    assert header == ["n_paths", "min_z", "min_r", "feller_ok"]
    assert rows[0][0] == 3 and rows[0][1] > 0.0
    proc = _run_python("-m", "mfcir.cli", "positivity", "--hurst", "0.4")
    assert proc.returncode == 2
    assert "hurst" in proc.stderr


def test_cli_import_does_not_load_scipy():
    # SciPy serves only the Cholesky cross-check oracle, loaded on first use.
    proc = _run_python("-c", "import sys, mfcir.cli; print('scipy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
