"""End-to-end CLI tests: parsing, precedence, emission, exit codes."""

import json
import os
import stat
import subprocess
import sys
import threading
import weakref

import numpy as np
import pytest
from conftest import read_csv_rows, read_trajectory_rows

import mfcir.cli
import mfcir.noise
from mfcir.cli import _COMMANDS, _OPTIONS, ConfigError, _Parser, main, main_entry, parse_config
from mfcir.mixed import build_mixed
from mfcir.noise import CirculantEmbeddingError, GridSpec
from mfcir.scheme import simulate_z


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

    def test_writes_nothing(self, capsys):
        # outside the Feller regime too: the warning belongs to a run (TestFellerWarning)
        config = parse_config(["simulate", "--sigma", "2"])
        assert config.params.sigma == 2.0
        assert capsys.readouterr() == ("", "")

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


# A value other than the default for each option, for the option-table tests.
_SAMPLE_VALUES = {
    "k": "2", "theta": "1.5", "sigma": "0.5", "r0": "0.5", "hurst": "0.6", "weight-bm": "0.5",
    "weight-fbm": "0.5", "T": "2", "n": "8", "paths": "2", "seed": "7", "out": "x.csv",
    "format": "json-lines", "preset": "figure1", "n-list": "8,16", "n-ref": "4096",
    "refinements": "1,4", "t-eval": "0.5",
}


class TestOptionTable:
    @pytest.mark.parametrize("option", _OPTIONS, ids=lambda o: o.key)
    def test_flag_parses_on_exactly_its_commands(self, option, capsys):
        for command in _COMMANDS:
            argv = [command, "--" + option.key, _SAMPLE_VALUES[option.key]]
            if not option.commands or command in option.commands:
                parse_config(argv)
            else:
                with pytest.raises(ConfigError, match="unrecognized"):
                    parse_config(argv)
                assert main(argv) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("option", _OPTIONS, ids=lambda o: o.key)
    def test_every_key_is_a_config_file_key(self, option, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{option.key} = {_SAMPLE_VALUES[option.key]}\n", encoding="utf-8")
        command = option.commands[0] if option.commands else "mcstats"
        via_flag = parse_config([command, "--" + option.key, _SAMPLE_VALUES[option.key]])
        assert via_flag != parse_config([command])
        assert parse_config([command, "--config", str(cfg)]) == via_flag

    def test_command_specific_flags_and_defaults(self):
        assert {option.key: option.commands for option in _OPTIONS if option.commands} == {
            "n-list": ("convergence",),
            "n-ref": ("convergence",),
            "refinements": ("bracket",),
            "t-eval": ("mcstats",),
        }
        assert parse_config(["convergence"]).n_list == (64, 128, 256, 512, 1024)
        assert parse_config(["convergence"]).n_ref == 16384
        assert parse_config(["bracket"]).refinements == (1,)
        assert parse_config(["mcstats", "--T", "2.5"]).t_eval == 2.5


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

    # Checked against the per-cell format() / json.dumps emitter that the
    # line templates replaced; any drift in either format shows here.  The
    # values are those of STREAM_VERSION 3 and move with the stream.
    GOLDEN = {
        "csv": (
            "path_id,t,z,r\n"
            "0,0,2,1\n"
            "0,0.33333333333333331,1.1747011583088096,0.34498070283301474\n"
            "0,0.66666666666666663,1.455608874436813,0.52969929883480138\n"
            "0,1,2.0432882905805831,1.0437567596059303\n"
            "1,0,2,1\n"
            "1,0.33333333333333331,1.6013712913411602,0.6410975031829137\n"
            "1,0.66666666666666663,1.0525087378831566,0.2769436608300988\n"
            "1,1,1.1683885622496082,0.34128295809892661\n"
        ),
        "json-lines": (
            '{"path_id": 0, "t": 0.0, "z": 2.0, "r": 1.0}\n'
            '{"path_id": 0, "t": 0.3333333333333333, "z": 1.1747011583088096, "r": 0.34498070283301474}\n'
            '{"path_id": 0, "t": 0.6666666666666666, "z": 1.455608874436813, "r": 0.5296992988348014}\n'
            '{"path_id": 0, "t": 1.0, "z": 2.043288290580583, "r": 1.0437567596059303}\n'
            '{"path_id": 1, "t": 0.0, "z": 2.0, "r": 1.0}\n'
            '{"path_id": 1, "t": 0.3333333333333333, "z": 1.6013712913411602, "r": 0.6410975031829137}\n'
            '{"path_id": 1, "t": 0.6666666666666666, "z": 1.0525087378831566, "r": 0.2769436608300988}\n'
            '{"path_id": 1, "t": 1.0, "z": 1.1683885622496082, "r": 0.3412829580989266}\n'
        ),
    }

    @pytest.mark.parametrize("fmt", ["csv", "json-lines"])
    def test_golden_bytes(self, fmt, tmp_path):
        out = tmp_path / "paths"
        argv = ["simulate", "--n", "3", "--paths", "2", "--seed", "5", "--format", fmt, "--out", str(out)]
        assert main(argv) == 0
        assert out.read_bytes() == self.GOLDEN[fmt].encode("ascii")

    def test_failing_first_path_leaves_no_file(self, tmp_path, capsys):
        out = tmp_path / "paths.csv"
        argv = ["simulate", "--sigma", "3", "--n", "8", "--out", str(out)]  # m < -1/2
        assert main(argv) == 2
        assert "-1/2" in capsys.readouterr().err
        assert not out.exists()
        out.write_text("earlier output\n")  # only the temporary file beside it was written
        assert main(argv) == 2
        assert out.read_text() == "earlier output\n"

    @staticmethod
    def _fail_on_third_path(monkeypatch, error):
        real = mfcir.cli.simulate_z
        calls = []

        def fail_third(params, noise):
            calls.append(None)
            if len(calls) == 3:
                raise error
            return real(params, noise)

        monkeypatch.setattr(mfcir.cli, "simulate_z", fail_third)
        return calls

    @pytest.mark.parametrize("existing", [False, True])
    def test_failing_later_path_leaves_the_target_as_it_was(self, existing, monkeypatch, tmp_path, capsys):
        calls = self._fail_on_third_path(monkeypatch, ValueError("synthetic failure on the third path"))
        out = tmp_path / "paths.csv"
        if existing:
            out.write_text("earlier output\n")
        assert main(["simulate", "--n", "8", "--paths", "5", "--out", str(out)]) == 2
        assert "third path" in capsys.readouterr().err
        assert len(calls) == 3
        assert os.listdir(tmp_path) == (["paths.csv"] if existing else [])  # no temporary file left
        if existing:
            assert out.read_text() == "earlier output\n"

    def test_interrupt_leaves_the_target_and_no_temporary_file(self, monkeypatch, tmp_path):
        self._fail_on_third_path(monkeypatch, KeyboardInterrupt())
        out = tmp_path / "paths.csv"
        out.write_text("earlier output\n")
        with pytest.raises(KeyboardInterrupt):
            main(["simulate", "--n", "8", "--paths", "5", "--out", str(out)])
        assert os.listdir(tmp_path) == ["paths.csv"]
        assert out.read_text() == "earlier output\n"

    def test_replacing_keeps_the_mode_and_a_symlink(self, tmp_path):
        target = tmp_path / "paths.csv"
        target.write_text("earlier output\n")
        target.chmod(0o640)
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        assert main(["simulate", "--n", "3", "--paths", "2", "--seed", "5", "--out", str(link)]) == 0
        assert link.is_symlink()
        assert target.read_text() == self.GOLDEN["csv"]
        assert stat.S_IMODE(target.stat().st_mode) == 0o640
        assert sorted(os.listdir(tmp_path)) == ["link.csv", "paths.csv"]

    @pytest.mark.parametrize("fail", [False, True])
    def test_non_regular_target_is_written_directly(self, fail, monkeypatch, tmp_path, capsys):
        if fail:
            self._fail_on_third_path(monkeypatch, ValueError("synthetic failure on the third path"))
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
        reader.start()
        assert main(["simulate", "--n", "3", "--paths", "5", "--seed", "5", "--out", str(fifo)]) == (2 if fail else 0)
        reader.join(timeout=30)
        assert not reader.is_alive()  # the pipe itself was opened, not a file put in its place
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert os.listdir(tmp_path) == ["pipe"]
        lines = received[0].splitlines()
        assert lines[0] == "path_id,t,z,r"
        assert len(lines) == 1 + 4 * (2 if fail else 5)
        if fail:
            assert "third path" in capsys.readouterr().err

    # One line per (path, grid point), formatted row by row: the reference
    # for the per-grid template of emit_trajectories.
    REFERENCE_ROW = {
        "csv": "%d,%.17g,%.17g,%.17g\n",
        "json-lines": '{"path_id": %d, "t": %r, "z": %r, "r": %r}\n',
    }

    @pytest.mark.parametrize("fmt", ["csv", "json-lines"])
    @pytest.mark.parametrize("n", [1, 3, 4096])
    @pytest.mark.parametrize("horizon", ["1e-7", "3e5"])  # t cells in exponent and long forms
    def test_rows_equal_a_per_row_reference(self, fmt, n, horizon, monkeypatch, tmp_path):
        real = mfcir.cli.simulate_z
        trajectories = []

        def spy(params, noise):
            trajectories.append(real(params, noise))
            return trajectories[-1]

        monkeypatch.setattr(mfcir.cli, "simulate_z", spy)
        out = tmp_path / "paths"
        argv = ["simulate", "--n", str(n), "--T", horizon, "--paths", "12", "--format", fmt, "--out", str(out)]
        assert main(argv) == 0
        row = self.REFERENCE_ROW[fmt]
        expected = "path_id,t,z,r\n" if fmt == "csv" else ""
        for pid, traj in enumerate(trajectories):
            values = zip(traj.grid.times.tolist(), traj.z_values.tolist(), traj.r_values.tolist())
            expected += "".join(row % (pid, t, z, r) for t, z, r in values)
        assert len(trajectories) == 12
        assert out.read_bytes() == expected.encode("ascii")

    def test_path_off_the_run_grid_is_rejected(self, tmp_path):
        config = parse_config(["simulate", "--n", "4", "--out", str(tmp_path / "paths")])
        traj = simulate_z(config.params, build_mixed(config.mixed, GridSpec(2.0, 4), 1))
        with pytest.raises(ValueError, match="not on the run's grid"):
            mfcir.cli.emit_trajectories([traj], config)
        assert os.listdir(tmp_path) == []

    def test_paths_are_streamed_not_held(self, monkeypatch, tmp_path):
        real = mfcir.cli.simulate_z
        alive = []
        most = []

        def spy(params, noise):
            traj = real(params, noise)
            alive.append(weakref.ref(traj))
            most.append(sum(ref() is not None for ref in alive))
            return traj

        monkeypatch.setattr(mfcir.cli, "simulate_z", spy)
        for fmt in ("csv", "json-lines"):
            alive.clear()
            argv = ["simulate", "--n", "16", "--paths", "6", "--format", fmt, "--out", str(tmp_path / fmt)]
            assert main(argv) == 0
            assert len(alive) == 6
        assert max(most) <= 2

    def test_seeds_are_derived_one_chunk_at_a_time(self, monkeypatch):
        # a million paths, of which three are drawn: no seed array beyond the first chunk's 1024
        real = mfcir.noise._splitmix64
        lengths = []

        def spy(z):
            lengths.append(len(z))
            return real(z)

        def take_three(trajectories, config):
            [next(trajectories) for _ in range(3)]

        monkeypatch.setattr(mfcir.noise, "_splitmix64", spy)
        monkeypatch.setattr(mfcir.cli, "emit_trajectories", take_three)
        assert main(["simulate", "--n", "1", "--paths", "1000000"]) == 0
        assert lengths and max(lengths) <= 1024


# Weights so large that c * c overflows inside the implicit step.
_OVERFLOW_ARGV = ["--weight-bm", "1e160", "--weight-fbm", "0", "--n", "4", "--paths", "3"]
# Path 0 of seed 2 ends near z = 9.4e153: finite, but sigma = 3 puts its
# rate (sigma z / 2)**2 past the float range.
_RATE_OVERFLOW_ARGV = [
    "--k", "0.01", "--theta", "300", "--sigma", "3", "--T", "0.01", "--n", "1",
    "--weight-bm", "1e155", "--seed", "2", "--paths", "1",
]


@pytest.mark.parametrize("fmt", ["csv", "json-lines"])
@pytest.mark.parametrize(
    "argv",
    [
        ["simulate"],
        ["simulate", "--seed", "1", "--n", "3", "--paths", "1"],  # this path reaches inf, not 0
        ["simulate"] + _RATE_OVERFLOW_ARGV,
        ["positivity"] + _RATE_OVERFLOW_ARGV,
        ["positivity"],
        ["mcstats"],
        ["bracket"],
        ["convergence", "--n-list", "4,8", "--n-ref", "64"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_overflowing_state_is_a_config_error(argv, fmt, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(argv[:1] + _OVERFLOW_ARGV + argv[1:] + ["--format", fmt, "--out", str(out)]) == 2
    assert "overflowed" in capsys.readouterr().err
    assert not out.exists()


_ALL_COMMANDS = [["simulate"], ["positivity"], ["mcstats"], ["bracket"],
                 ["convergence", "--n-list", "4,8", "--n-ref", "64"]]


# A horizon whose fractional increment variance dt**(2H) is past the float range.
_HORIZON_OVERFLOW_ARGV = ["--n", "4", "--paths", "2", "--T", "1e300"]


@pytest.mark.parametrize(
    "argv, overflow",
    [(argv, _OVERFLOW_ARGV) for argv in _ALL_COMMANDS] + [(argv, _HORIZON_OVERFLOW_ARGV) for argv in _ALL_COMMANDS],
    ids=[argv[0] for argv in _ALL_COMMANDS] + [argv[0] + "-horizon" for argv in _ALL_COMMANDS],
)
def test_overflow_prints_only_the_error_line(argv, overflow, tmp_path):
    # a fresh interpreter, with Python's default warning filters: numpy's
    # overflow warning must not reach stderr ahead of the error
    out = tmp_path / "out"
    proc = _run_python("-m", "mfcir", *argv[:1], *overflow, *argv[1:], "--out", str(out))
    assert proc.returncode == 2
    [line] = proc.stderr.splitlines()
    assert line.startswith("mfcir: error:") and "overflowed" in line
    assert not out.exists()


@pytest.mark.parametrize("argv", _ALL_COMMANDS, ids=lambda argv: argv[0])
def test_single_path(argv, tmp_path, capsys):
    # a standard error needs two paths; every other command runs on one
    out = tmp_path / "out"
    code = main(argv[:1] + ["--n", "16", "--paths", "1", "--out", str(out)] + argv[1:])
    err = capsys.readouterr().err
    if argv[0] == "mcstats":
        assert code == 2 and "n_paths must be >= 2" in err
        assert not out.exists()
    else:
        assert code == 0, err
        assert out.stat().st_size > 0


@pytest.mark.parametrize("argv", _ALL_COMMANDS, ids=lambda argv: argv[0])
def test_largest_seed(argv, tmp_path, capsys):
    out = tmp_path / "out"
    base = argv[:1] + ["--n", "16", "--paths", "2", "--out", str(out)] + argv[1:]
    assert main(base + ["--seed", str(2**64 - 1)]) == 0, capsys.readouterr().err
    assert out.stat().st_size > 0
    assert main(base + ["--seed", str(2**64)]) == 2
    assert "unsigned 64-bit" in capsys.readouterr().err


class TestReportCommands:
    # Every report's exact bytes at a tiny size, as TestSimulateCommand
    # pins simulate's: any drift in the numbers, the cells or the line
    # layout of either format shows here.  The values are those of
    # STREAM_VERSION 3 and move with the stream.
    GOLDEN = {
        "positivity": (
            ["positivity", "--n", "8", "--paths", "3", "--seed", "5"],
            "n_paths,min_z,min_r,feller_ok\n3,1.1317680523028903,0.32022473105336946,true\n",
            '{"n_paths": 3, "min_z": 1.1317680523028903, "min_r": 0.32022473105336946, "feller_ok": true}\n',
        ),
        "mcstats": (
            ["mcstats", "--weight-fbm", "0", "--n", "8", "--paths", "3", "--seed", "5"],
            "t_eval,sample_mean,sample_se,n_paths,closed_form_mean\n1,1.2321097880780563,0.03254625637482355,3,1\n",
            '{"t_eval": 1.0, "sample_mean": 1.2321097880780563, "sample_se": 0.03254625637482355, '
            '"n_paths": 3, "closed_form_mean": 1.0}\n',
        ),
        "bracket": (
            ["bracket", "--n", "16", "--refinements", "1,4", "--paths", "3", "--seed", "5"],
            "n,refinement,qv,bracket_value\n"
            "16,1,1.1584323088917543,1.1584323088917543\n"
            "4,4,1.10410467560216,1.1584323088917543\n",
            '{"n": 16, "refinement": 1, "qv": 1.1584323088917543, "bracket_value": 1.1584323088917543}\n'
            '{"n": 4, "refinement": 4, "qv": 1.10410467560216, "bracket_value": 1.1584323088917543}\n',
        ),
        "convergence": (
            ["convergence", "--n-list", "2,4", "--n-ref", "32", "--paths", "3", "--seed", "5"],
            "n,median_sup_error,q25,q75\n"
            "2,0.65257957940108779,0.60749320021338682,0.96539472134803939\n"
            "4,0.52809511941455578,0.52503551745996613,0.59244262806570058\n"
            "fitted_order=0.30535603487519825,r2=1\n",
            '{"n": 2, "median_sup_error": 0.6525795794010878, "q25": 0.6074932002133868, "q75": 0.9653947213480394}\n'
            '{"n": 4, "median_sup_error": 0.5280951194145558, "q25": 0.5250355174599661, "q75": 0.5924426280657006}\n'
            '{"fitted_order": 0.30535603487519825, "r2": 1.0}\n',
        ),
    }

    @pytest.mark.parametrize("fmt", ["csv", "json-lines"])
    @pytest.mark.parametrize("command", sorted(GOLDEN))
    def test_golden_bytes(self, command, fmt, tmp_path):
        argv, csv, json_lines = self.GOLDEN[command]
        out = tmp_path / "report"
        assert main(argv + ["--format", fmt, "--out", str(out)]) == 0
        assert out.read_bytes() == (csv if fmt == "csv" else json_lines).encode("ascii")

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


def _strict_json(line):
    """json.loads, but NaN and Infinity, which RFC 8259 does not allow, are errors."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(line, parse_constant=reject)


# One grid, so the order has no fit: fitted_order and r2 are NaN.
_UNFITTED_CONVERGENCE = ["convergence", "--n-list", "8", "--n-ref", "64", "--paths", "2"]


class TestJsonLines:
    @pytest.mark.parametrize("argv", _ALL_COMMANDS + [_UNFITTED_CONVERGENCE], ids=lambda argv: " ".join(argv))
    def test_every_line_is_strict_json(self, argv, tmp_path):
        out = tmp_path / "out"
        argv = argv[:1] + ["--n", "16", "--paths", "2"] + argv[1:]
        assert main(argv + ["--format", "json-lines", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines
        for line in lines:
            _strict_json(line)

    def test_non_finite_footer_is_null_in_json_and_nan_in_csv(self, tmp_path):
        out = tmp_path / "out"
        assert main(_UNFITTED_CONVERGENCE + ["--format", "json-lines", "--out", str(out)]) == 0
        assert _strict_json(out.read_text().splitlines()[-1]) == {"fitted_order": None, "r2": None}
        assert main(_UNFITTED_CONVERGENCE + ["--out", str(out)]) == 0
        assert out.read_text().splitlines()[-1] == "fitted_order=nan,r2=nan"

    def test_emit_report_writes_null_for_every_non_finite_value(self, tmp_path):
        out = tmp_path / "out"
        rows = [{"a": float("inf"), "b": np.float64("nan"), "c": 1.5, "d": None, "e": 3, "f": True}]
        footer = {"x": float("-inf"), "y": 0.25}
        mfcir.cli.emit_report(rows, footer, parse_config(["bracket", "--format", "json-lines", "--out", str(out)]))
        assert out.read_text() == (
            '{"a": null, "b": null, "c": 1.5, "d": null, "e": 3, "f": true}\n{"x": null, "y": 0.25}\n'
        )
        mfcir.cli.emit_report(rows, footer, parse_config(["bracket", "--out", str(out)]))
        assert out.read_text() == "a,b,c,d,e,f\ninf,nan,1.5,,3,true\nx=-inf,y=0.25\n"


class TestCommandOnlyChecks:
    """A list flag is checked only by the command that takes it."""

    @pytest.mark.parametrize("command, line", [("simulate", "n-list="), ("positivity", "refinements=,")])
    def test_another_commands_key_in_a_config_file_is_not_checked(self, command, line, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n", encoding="utf-8")
        assert main([command, "--n", "4", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["convergence", "--n-list", ","], "n-list must not be empty"),
            (["bracket", "--n", "8", "--refinements", ","], "refinements must not be empty"),
        ],
        ids=["convergence", "bracket"],
    )
    def test_its_own_command_still_rejects_an_empty_list(self, argv, message, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == f"mfcir: error: {message}\n"
        assert not out.exists()


class TestIntegerListErrors:
    """A bad integer list names the form it expects, on the command line and in a config file."""

    @pytest.mark.parametrize(
        "argv, flag, text",
        [(["convergence", "--n-list", "4,x"], "n-list", "4,x"), (["bracket", "--refinements", "2.5"], "refinements", "2.5")],
        ids=["n-list", "refinements"],
    )
    def test_flag(self, argv, flag, text, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2
        expected = f"mfcir: error: argument --{flag}: expected a comma-separated list of integers, got {text!r}\n"
        assert capsys.readouterr().err == expected
        assert not out.exists()

    def test_config_file_names_the_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n-list=4,x\n", encoding="utf-8")
        assert main(["convergence", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"mfcir: error: {cfg}:1: invalid value for n-list: '4,x'\n"


def _full_parser():
    """Every flag on every command: the parser whose texts the command line keeps."""
    parser = _Parser(prog="mfcir")
    sub = parser.add_subparsers(dest="command", required=True, metavar="|".join(_COMMANDS))
    for command, (summary, _) in _COMMANDS.items():
        cmd = sub.add_parser(command, help=summary)
        for option in _OPTIONS:
            if not option.commands or command in option.commands:
                cmd.add_argument("--" + option.key, dest=option.key, type=option.convert, help=option.help)
        cmd.add_argument("--config", help="flat key=value config file; its keys are the flags' names")
    return parser


def _texts(run, argv, capsys):
    """(exit code, stdout, stderr) of ``run(argv)``, which returns a code or exits."""
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def _full_parser_main(argv):
    """main's exit code and error line, with the full parser in place of the one it builds."""
    try:
        _full_parser().parse_args(argv)
    except ConfigError as exc:
        print(f"mfcir: error: {exc}", file=sys.stderr)
        return 2
    return 0


with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_text.json"), encoding="utf-8") as _handle:
    _CLI_TEXT = json.load(_handle)


class TestCliText:
    """The parser gives only the command it runs its flags; every text stays that of the full parser.

    ``cli_text.json`` holds stdout, stderr and the exit code of each command
    line as the full parser printed them.  argparse words and wraps its texts
    differently from one Python version to another, so those bytes are
    compared on the version that recorded them; on every version, each
    command line is compared with the full parser itself.
    """

    ARGVS = [case["argv"] for case in _CLI_TEXT["cases"]] + [
        ["-h"], ["positivity", "-h", "--bogus"], ["bracket", "--refinements", "2.5"], ["positivity", "--n"],
        ["positivity", "--n", "x"], ["positivity", "simulate"], ["simulate", "--n-list", "4"], ["pos"],
        ["--seed", "3", "simulate"], ["mcstats", "--t-eval"], ["simulate", "--config"],
        # the command's parser reads the flags after it, though argv[0] names no command
        ["--bogus", "simulate", "--n", "5"], ["--bogus", "bracket", "--refinements", "x"],
    ]

    @pytest.mark.parametrize("case", _CLI_TEXT["cases"], ids=lambda case: " ".join(case["argv"]) or "(none)")
    def test_recorded_bytes(self, case, monkeypatch, capsys):
        if "%d.%d" % sys.version_info[:2] != _CLI_TEXT["python"]:
            pytest.skip(f"recorded on Python {_CLI_TEXT['python']}")
        monkeypatch.setenv("COLUMNS", "80")
        assert _texts(main, case["argv"], capsys) == (case["code"], case["stdout"], case["stderr"])

    @pytest.mark.parametrize("argv", ARGVS, ids=lambda argv: " ".join(argv) or "(none)")
    def test_same_as_the_full_parser(self, argv, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        expected = _texts(_full_parser_main, argv, capsys)
        assert expected[0] in (0, 2) and expected[1] + expected[2]
        assert _texts(main, argv, capsys) == expected

    @pytest.mark.parametrize("argv", [["positivity", "--n", "8"], ["convergence", "--n-list", "4,8"], ["--help"]])
    def test_only_the_named_command_gets_flags(self, argv):
        parser = mfcir.cli._build_parser(argv)
        (commands,) = [action.choices for action in parser._actions if action.dest == "command"]
        assert list(commands) == list(_COMMANDS)
        with_flags = {name for name, cmd in commands.items() if "--config" in cmd._option_string_actions}
        assert with_flags == ({argv[0]} if argv[0] in _COMMANDS else set(_COMMANDS))


# The mfcir.cli names through which the commands reach the library and the
# emitters.  perfbench/spans.py replaces names on mfcir.cli to time a layer,
# so a command that held on to the functions themselves would go untimed.
_CLI_NAMES = (
    "run_convergence", "run_positivity", "run_bracket", "run_mc_stats",
    "emit_report", "simulate_z", "build_mixed", "emit_trajectories",
)


# Each command line, and the calls it makes through those names.
_CLI_CALLS = [
    (["simulate", "--n", "4", "--paths", "3"], {"simulate_z": 3, "build_mixed": 3, "emit_trajectories": 1}),
    (["convergence", "--n-list", "4,8", "--n-ref", "64", "--paths", "2"], {"run_convergence": 1, "emit_report": 1}),
    (["positivity", "--n", "4", "--paths", "2"], {"run_positivity": 1, "emit_report": 1}),
    (["bracket", "--n", "8", "--refinements", "1,2", "--paths", "2"], {"run_bracket": 1, "emit_report": 1}),
    (["mcstats", "--n", "4", "--paths", "2"], {"run_mc_stats": 1, "emit_report": 1}),
]


@pytest.mark.parametrize("argv, expected", _CLI_CALLS, ids=[argv[0] for argv, _ in _CLI_CALLS])
def test_each_command_calls_the_cli_module_names(argv, expected, monkeypatch, tmp_path):
    calls = dict.fromkeys(_CLI_NAMES, 0)
    for name in _CLI_NAMES:
        def spy(*args, _name=name, _real=getattr(mfcir.cli, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(mfcir.cli, name, spy)
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    assert out.stat().st_size > 0
    assert calls == {**dict.fromkeys(_CLI_NAMES, 0), **expected}


def _feller_warning(m):
    return (
        f"warning: Feller condition 2*k*theta > sigma^2 fails (m = {m}); "
        "the scheme stays positive, but the exact rate may touch zero\n"
    )


class TestFellerWarning:
    """Printed once, after a run that stepped the scheme outside the Feller regime."""

    @pytest.mark.parametrize(
        "argv, m",
        [
            (["positivity", "--theta", "0.4", "--n", "4", "--paths", "2"], "-0.2"),
            (["simulate", "--sigma", "1.5", "--n", "4"], "-0.111111"),
            (["mcstats", "--theta", "0.5", "--n", "4", "--paths", "2"], "0"),  # m = 0 exactly
        ],
        ids=lambda value: value[0] if isinstance(value, list) else value,
    )
    def test_after_a_stepping_run(self, argv, m, capsys):
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert out != ""
        assert err == _feller_warning(m)

    def test_not_for_a_rejected_step(self, capsys):
        assert main(["positivity", "--theta", "0.25", "--n", "4"]) == 2  # m = -1/2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("mfcir: error: implicit step requires m > -1/2")

    def test_not_for_convergence(self, capsys):
        assert main(["convergence", "--sigma", "3", "--paths", "1"]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line == "mfcir: error: convergence study requires the Feller regime 2 k theta > sigma^2"

    def test_not_for_bracket(self, capsys):
        assert main(["bracket", "--sigma", "3", "--n", "8"]) == 0
        assert capsys.readouterr().err == ""

    def test_not_after_a_failed_write(self, capsys):
        assert main(["simulate", "--theta", "0.4", "--n", "4", "--out", "/no/such/dir/out.csv"]) == 3
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("mfcir: i/o error:")


class TestExitCodes:
    def test_config_error_is_2(self, capsys):
        assert main(["simulate", "--hurst", "0.4"]) == 2
        assert "hurst" in capsys.readouterr().err

    def test_io_error_is_3(self, capsys):
        code = main(["simulate", "--n", "2", "--out", "/no/such/dir/out.csv"])
        assert code == 3
        assert "i/o" in capsys.readouterr().err

    def test_io_error_names_the_requested_file(self, tmp_path):
        # two processes write under temporary names with different pids;
        # the error names the file asked for, so their stderr is equal
        target = str(tmp_path / "no" / "such" / "x")
        runs = [_run_python("-m", "mfcir", "simulate", "--n", "4", "--paths", "3", "--out", target) for _ in range(2)]
        assert [proc.returncode for proc in runs] == [3, 3]
        assert runs[0].stderr == runs[1].stderr
        assert runs[0].stderr == f"mfcir: i/o error: [Errno 2] No such file or directory: {target!r}\n"

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


def test_the_package_runs_without_scipy():
    # numpy is the one runtime dependency: with every import of SciPy refused,
    # the Cholesky oracle draws and a command runs
    script = (
        "import os, sys; sys.modules['scipy'] = None; "
        "from mfcir import GridSpec, sample_fbm_cholesky; from mfcir.cli import main; "
        "sample_fbm_cholesky(0.75, GridSpec(1.0, 64), 1); "
        "print(main(['positivity', '--n', '64', '--paths', '4', '--out', os.devnull]))"
    )
    proc = _run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


def test_bracket_run_does_not_load_numpy_ma(tmp_path):
    # np.median imports numpy.ma on its first call; the ensemble medians do not use it.
    out = tmp_path / "bracket.csv"
    script = (
        "import sys; from mfcir.cli import main; "
        f"rc = main(['bracket', '--n', '64', '--refinements', '1,4', '--paths', '4', '--out', {str(out)!r}]); "
        "print(rc, 'numpy.ma' in sys.modules)"
    )
    proc = _run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 False"
    assert out.exists()
