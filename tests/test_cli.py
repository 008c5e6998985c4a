"""End-to-end CLI tests: parsing, precedence, emission, exit codes."""

import contextlib
import dataclasses
import functools
import json
import math
import os
import shlex
import stat
import subprocess
import sys
import threading
import types

import numpy as np
import pytest
import record_streams
from conftest import read_csv_rows, read_trajectory_rows

import mfcir._csvtext
import mfcir.cli
import mfcir.experiments
import mfcir.mixed
import mfcir.noise
from mfcir.cli import _COMMANDS, _OPTIONS, ConfigError, main, main_entry, parse_config
from mfcir.mixed import build_mixed
from mfcir.noise import CirculantEmbeddingError, substream_seed
from mfcir.scheme import simulate_z

with open(record_streams.TABLE, encoding="utf-8") as _handle:
    _STREAMS = json.load(_handle)


def _recorded_stdout(line):
    """The stdout that ``streams.json`` records for ``line``, which it stores as text."""
    return "\n".join(_STREAMS["lines"][line]["stdout"])


def _check_out_file(line, fmt, tmp_path):
    """``line`` of the table in ``fmt``, run with ``--out``, writes the stdout that the table records."""
    if fmt != "csv":
        line += " --format " + fmt
    out = tmp_path / "out"
    assert main(line.split() + ["--out", str(out)]) == 0
    assert out.read_bytes() == _recorded_stdout(line).encode("ascii")


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

    @pytest.mark.parametrize("fmt", ["csv", "json-lines"])
    def test_golden_bytes(self, fmt, tmp_path):
        _check_out_file("simulate --n 3 --paths 2 --seed 5", fmt, tmp_path)

    def test_failing_first_path_leaves_no_file(self, tmp_path, capsys):
        out = tmp_path / "paths.csv"
        argv = ["simulate", "--sigma", "3", "--n", "8", "--out", str(out)]  # m < -1/2
        assert main(argv) == 2
        assert "-1/2" in capsys.readouterr().err
        assert not out.exists()
        out.write_text("earlier output\n")  # only the temporary file beside it was written
        assert main(argv) == 2
        assert out.read_text() == "earlier output\n"
        capsys.readouterr()
        assert main(argv[:-1] + ["-"]) == 2
        assert capsys.readouterr().out == ""  # not even the CSV header

    @staticmethod
    def _fail_on_third_path(monkeypatch, error):
        # one-path draw blocks, so that the third block _step is called on is the third path
        real = mfcir.cli._step
        calls = []

        def fail_third(*args):
            calls.append(None)
            if len(calls) == 3:
                raise error
            return real(*args)

        monkeypatch.setattr(mfcir.cli, "_SIMULATE_BLOCK_BYTES", 1)
        monkeypatch.setattr(mfcir.cli, "_step", fail_third)
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
        assert target.read_text() == _recorded_stdout("simulate --n 3 --paths 2 --seed 5")
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

    # seed and weights of each run of test_rows_equal_a_per_row_reference
    INPUTS = [
        ("42", "1", "1"),  # the defaults
        (str(2**64 - 1), "1", "1"),
        ("42", "0.3", "-1.7"),
        ("42", "1", "0"),
        ("42", "0", "1"),
    ]

    @staticmethod
    def _reference(argv, row):
        """The text of ``simulate argv`` built path by path, through build_mixed and simulate_z, row by row."""
        config = parse_config(["simulate", *argv])
        text = "path_id,t,z,r\n" if config.format == "csv" else ""
        for pid in range(config.n_paths):
            traj = simulate_z(config.params, build_mixed(config.mixed, config.grid, substream_seed(config.seed, pid)))
            values = zip(config.grid.times.tolist(), traj.z_values.tolist(), traj.r_values.tolist())
            text += "".join(row % (pid, t, z, r) for t, z, r in values)
        return text.encode("ascii")

    @pytest.mark.parametrize("fmt", ["csv", "json-lines"])
    @pytest.mark.parametrize("n", [1, 3, 4096])
    @pytest.mark.parametrize("horizon", ["1e-7", "3e5"])  # t cells in exponent and long forms
    def test_rows_equal_a_per_row_reference(self, fmt, n, horizon, tmp_path):
        out = tmp_path / "paths"
        for seed, weight_bm, weight_fbm in self.INPUTS:
            argv = ["--n", str(n), "--T", horizon, "--paths", "12", "--format", fmt, "--seed", seed,
                    "--weight-bm", weight_bm, "--weight-fbm", weight_fbm]
            assert main(["simulate", *argv, "--out", str(out)]) == 0
            assert out.read_bytes() == self._reference(argv, self.REFERENCE_ROW[fmt]), argv

    @pytest.mark.parametrize("fmt", ["csv", "json-lines"])
    @pytest.mark.parametrize("n, paths", [(1, 3000), (65536, 2)], ids=["many-paths-per-block", "many-blocks-per-path"])
    def test_blocks_equal_a_per_row_reference(self, fmt, n, paths, monkeypatch, tmp_path):
        real = mfcir._csvtext.csv_rows
        blocks = []

        def spy(first, rows, times, z, r):
            blocks.append((first, len(z)))
            return real(first, rows, times, z, r)

        monkeypatch.setattr(mfcir._csvtext, "csv_rows", spy)
        argv = ["--n", str(n), "--paths", str(paths), "--format", fmt]
        out = tmp_path / "paths"
        assert main(["simulate", *argv, "--out", str(out)]) == 0
        assert out.read_bytes() == self._reference(argv, self.REFERENCE_ROW[fmt])
        if fmt == "csv":  # one renderer call per block of rows, whatever the paths
            size = mfcir.cli._BLOCK_ROWS
            total = (n + 1) * paths
            assert blocks == [(first, min(size, total - first)) for first in range(0, total, size)]
        else:
            assert blocks == []

    @pytest.mark.parametrize("fmt", ["csv", "json-lines"])
    @pytest.mark.parametrize("n, paths", [(4096, 2), (1, 3000)], ids=["blocks-within-a-path", "paths-within-a-block"])
    def test_each_write_holds_one_block(self, fmt, n, paths, monkeypatch):
        writes = []

        class Recorder:
            write = writes.append

        @contextlib.contextmanager
        def recording(path):
            yield Recorder()

        monkeypatch.setattr(mfcir.cli, "_sink", recording)
        assert main(["simulate", "--n", str(n), "--paths", str(paths), "--format", fmt]) == 0
        if fmt == "csv":
            assert writes.pop(0) == "path_id,t,z,r\n"
        size = mfcir.cli._BLOCK_ROWS
        total = (n + 1) * paths
        assert all(text.endswith("\n") for text in writes)
        assert [text.count("\n") for text in writes] == [min(size, total - first) for first in range(0, total, size)]

    def test_benchmark_line_is_golden(self, monkeypatch):
        # the simulate-csv benchmark line at --seed 1: 25 x 4097 rows in 101
        # blocks; streams.json holds its bytes, recorded before the renderer's
        # cells were NUL-padded
        real = mfcir._csvtext.csv_rows
        blocks = []

        def spy(first, rows, times, z, r):
            blocks.append(len(z))
            return real(first, rows, times, z, r)

        monkeypatch.setattr(mfcir._csvtext, "csv_rows", spy)
        line = "simulate --preset figure1 --paths 25 --format csv --seed 1"
        assert line in record_streams.LINES
        assert main(line.split() + ["--out", os.devnull]) == 0
        assert (len(blocks), sum(blocks)) == (101, 102_425)

    @pytest.mark.parametrize(
        "state",
        [0.0, math.inf, math.nan, 1e155],  # 1e155 is finite, but sigma = 3 puts its rate past the float range
        ids=["zero", "inf", "nan", "rate-inf"],
    )
    def test_rejected_states_write_no_file(self, state, tmp_path):
        config = parse_config(["simulate", "--n", "4", "--sigma", "3", "--out", str(tmp_path / "paths")])
        good = [2.0, 1.0, 1.0, 1.0, 1.0]
        states = [2.0, 1.0, state, 1.0, 1.0]
        with pytest.raises(ValueError, match="overflowed"):
            mfcir.cli.emit_trajectories([good, states], config)
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("fmt", ["csv", "json-lines"])
    @pytest.mark.parametrize("length", [4, 6])
    def test_path_of_another_length_writes_no_file(self, fmt, length, tmp_path):
        config = parse_config(["simulate", "--n", "4", "--format", fmt, "--out", str(tmp_path / "paths")])
        with pytest.raises(ValueError, match="not n [+] 1 = 5"):
            mfcir.cli.emit_trajectories([[2.0] * 5, [2.0] * length], config)
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("fmt", ["csv", "json-lines"])
    def test_block_does_not_depend_on_the_path_count(self, fmt, tmp_path):
        # the emitter writes the paths it is given, whatever config.n_paths says
        config = parse_config(["simulate", "--n", "4", "--format", fmt, "--out", str(tmp_path / "one")])
        path = [2.0, 1.5, 1.0, 0.5, 0.25]
        mfcir.cli.emit_trajectories([path], config)
        mfcir.cli.emit_trajectories([path], dataclasses.replace(config, n_paths=0, output_path=str(tmp_path / "zero")))
        assert (tmp_path / "zero").read_bytes() == (tmp_path / "one").read_bytes()
        assert len((tmp_path / "one").read_text().splitlines()) == 5 + (fmt == "csv")

    def test_paths_are_streamed_not_held(self, monkeypatch, tmp_path):
        # one-path draw blocks: each is stepped in the same one-column buffer,
        # so a path's states are overwritten by the next path's
        real = mfcir.cli._step
        buffers = []

        def spy(params, grid, z):
            buffers.append((z.__array_interface__["data"][0], z.shape))
            return real(params, grid, z)

        monkeypatch.setattr(mfcir.cli, "_SIMULATE_BLOCK_BYTES", 1)
        monkeypatch.setattr(mfcir.cli, "_step", spy)
        for fmt in ("csv", "json-lines"):
            buffers.clear()
            argv = ["--n", "16", "--paths", "6", "--format", fmt]
            assert main(["simulate", *argv, "--out", str(tmp_path / fmt)]) == 0
            assert len(buffers) == 6
            assert (tmp_path / fmt).read_bytes() == self._reference(argv, self.REFERENCE_ROW[fmt])
            assert set(buffers) == {(buffers[0][0], (17, 1))}  # one buffer, one path wide

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
# A horizon whose dt**(2H) is finite but whose circulant spectrum is not.
_SPECTRUM_OVERFLOW_ARGV = ["--n", "4", "--paths", "2", "--T", "4e205"]


@pytest.mark.parametrize(
    "argv, overflow",
    [(argv, _OVERFLOW_ARGV) for argv in _ALL_COMMANDS]
    + [(argv, _HORIZON_OVERFLOW_ARGV) for argv in _ALL_COMMANDS]
    + [(argv, _SPECTRUM_OVERFLOW_ARGV) for argv in _ALL_COMMANDS],
    ids=[argv[0] for argv in _ALL_COMMANDS]
    + [argv[0] + "-horizon" for argv in _ALL_COMMANDS]
    + [argv[0] + "-spectrum" for argv in _ALL_COMMANDS],
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


@pytest.mark.parametrize(
    "argv",
    [["simulate"], ["positivity"], ["mcstats"], ["bracket"], ["convergence", "--n-list", "2", "--n-ref", "16"]],
    ids=lambda argv: argv[0],
)
def test_horizon_whose_step_rounds_to_zero_is_rejected(argv, tmp_path, capsys):
    # dt = 5e-324 / 2 rounds to 0: mcstats divided by it, the others blamed the circulant embedding (exit 4)
    out = tmp_path / "out"
    assert main(argv[:1] + ["--T", "5e-324", "--n", "2", "--paths", "3", "--out", str(out)] + argv[1:]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("mfcir: error:") and "rounds to 0" in line
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["simulate"], ["positivity"], ["mcstats"], ["bracket"], ["convergence", "--n-list", "2", "--n-ref", "16"]],
    ids=lambda argv: argv[0],
)
def test_fractional_variance_that_underflows_is_rejected(argv, tmp_path, capsys):
    # dt = 2.5e-301 is a positive step, but dt**1.5 underflows to 0: every
    # command blamed the circulant embedding for it (exit 4)
    out = tmp_path / "out"
    line_argv = argv[:1] + ["--T", "1e-300", "--n", "4", "--paths", "2", "--out", str(out)] + argv[1:]
    assert main(line_argv) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("mfcir: error:") and "underflowed" in line
    assert not out.exists()
    assert main(line_argv + ["--weight-fbm", "0"]) == 0  # no fractional part, nothing to underflow


@pytest.mark.parametrize("command", ["positivity", "bracket"])
@pytest.mark.parametrize(
    "params",
    [["--sigma", "1e-200"], ["--sigma", "1e-160"], ["--k", "1e300", "--theta", "1e300"], ["--sigma", "1e200"]],
    ids=["sigma2-underflows", "m-inf", "k-theta-inf", "m-nan"],
)
def test_model_whose_m_is_not_finite_prints_only_the_error_line(command, params, tmp_path):
    # sigma^2 = 0 was a ZeroDivisionError; an infinite m blamed the driver
    out = tmp_path / "out"
    proc = _run_python("-m", "mfcir", command, *params, "--out", str(out))
    assert proc.returncode == 2
    [line] = proc.stderr.splitlines()
    assert line.startswith("mfcir: error:") and "is not finite" in line
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
    # One line per shape of the harnesses' chunks, at the default seed, and
    # the kernel calls each makes: a chunk of _SCALAR_WIDTH (32) paths or more
    # takes one implicit_steps call per segment of _RING_ROWS (64) steps of
    # each grid, every grid here a multiple of 64 steps, recorded by its
    # steps; a narrower one takes one _scalar_steps call per grid, recorded by
    # the shape of the buffer it steps.  tests/streams.json holds each
    # line's bytes (they were first recorded while sup |M| was taken from a
    # cumsum of each loaded block, and each chunk was stepped in one call).
    SWEEP_LINES = {
        "wide": ("mcstats --weight-fbm 0 --n 1024 --paths 1100", "implicit_steps", [64] * 32),  # 1024 wide, then 76
        "long": ("positivity --n 131072 --paths 3", "_scalar_steps", [(131073, 3)]),  # one 3-wide chunk
        # the 2**14-step reference lane and coarse lanes of 64, 128, 256, 512 and 1024 steps, each 2 wide
        "lanes": ("convergence --paths 2", "_scalar_steps", [(16385, 2), (65, 2), (129, 2), (257, 2), (513, 2),
                                                              (1025, 2)]),
    }

    @pytest.mark.parametrize("sweep", sorted(SWEEP_LINES))
    def test_sweep_lines_are_golden(self, monkeypatch, sweep):
        line, kernel, calls = self.SWEEP_LINES[sweep]
        assert line in record_streams.LINES
        taken = {"implicit_steps": [], "_scalar_steps": []}

        def steps(*args, _real=mfcir.experiments.implicit_steps, **kwargs):
            taken["implicit_steps"].append(len(args[2]) - 1)
            return _real(*args, **kwargs)

        def scalar(*args, _real=mfcir.experiments._scalar_steps, **kwargs):
            taken["_scalar_steps"].append(args[2].shape)
            return _real(*args, **kwargs)

        monkeypatch.setattr(mfcir.experiments, "implicit_steps", steps)
        monkeypatch.setattr(mfcir.experiments, "_scalar_steps", scalar)
        assert main(line.split() + ["--out", os.devnull]) == 0
        assert taken == {"implicit_steps": [], "_scalar_steps": [], kernel: calls}

    # Each command's seed-5 line of the table, whose every byte shows there.
    SEED_5_LINES = {
        "positivity": "positivity --n 8 --paths 3 --seed 5",
        "mcstats": "mcstats --weight-fbm 0 --n 8 --paths 3 --seed 5",  # Brownian only: the closed-form cell too
        "bracket": "bracket --n 16 --refinements 1,4 --paths 3 --seed 5",
        "convergence": "convergence --n-list 2,4 --n-ref 32 --paths 3 --seed 5",
    }

    @pytest.mark.parametrize("fmt", ["csv", "json-lines"])
    @pytest.mark.parametrize("command", sorted(SEED_5_LINES))
    def test_golden_bytes(self, command, fmt, tmp_path):
        _check_out_file(self.SEED_5_LINES[command], fmt, tmp_path)

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


class TestCliText:
    """Each help and parser-error line of ``streams.json`` prints what it printed when the table was recorded.

    The table's ``help`` section was recorded when ``main`` printed the same
    texts as a full copy of its parser.  argparse words and wraps its help
    and errors differently from one Python version to another, so the texts
    are compared on the version that recorded them, and the exit code and
    the streams that carry text on every version.
    """

    @pytest.mark.parametrize("line", list(_STREAMS["help"]), ids=lambda line: line or "(none)")
    def test_recorded_bytes(self, line):
        recorded = _STREAMS["help"][line]
        ran = record_streams.run_line(line)
        if record_streams.provenance()["python"] == _STREAMS["python"]:
            assert ran == recorded
        else:
            assert ran["code"] == recorded["code"]

    @pytest.mark.parametrize("line", list(_STREAMS["help"]), ids=lambda line: line or "(none)")
    def test_same_as_the_full_parser(self, line):
        recorded = _STREAMS["help"][line]
        ran = record_streams.run_line(line)
        assert ran["code"] == recorded["code"] in (0, 2)
        for stream in ("stdout", "stderr"):
            assert (ran[stream] == [""]) == (recorded[stream] == [""]), stream


def _layout(line):
    """The seven layout constants that ``line`` runs under in ``test_no_byte_depends_on_the_layout``.

    They follow the line's work, its steps (the fine grid's for
    ``convergence``) times its paths.  Up to 2**9 it takes the finest cuts:
    one-row draw blocks, two-path chunks, one-row segments and write blocks,
    a two-path chunk stepped by the array kernel and a one-path one by the
    scalar kernel.  Up to 2**14, cuts that leave a partial last piece, chunks
    of 16 paths or more stepped by the array kernel.  Above, the coarsest:
    one segment a grid and one write block for every line of the table,
    chunks under 300 paths stepped by the scalar kernel.
    """
    try:
        config = parse_config(shlex.split(line))
        n = config.n_ref if config.command == "convergence" else config.grid.steps_n
        work = n * config.n_paths
    except ConfigError:  # rejected before any path is drawn
        n = work = 1
    if work <= 2**9:
        budget, rows, cells, ring, write, width = 1, 2, 2**9, 1, 1, 2
    elif work <= 2**14:
        budget, rows, cells, ring, write, width = 6144, 1000, 2**12, n // 2 + 1, 7, 16
    else:
        budget, rows, cells, ring, write, width = 2**22, 2**11, 2**23, 2**20, 2**17, 300
    return [
        (mfcir.mixed, "_BLOCK_BYTES", budget), (mfcir.cli, "_SIMULATE_BLOCK_BYTES", budget),
        (mfcir.experiments, "_SWEEP_ROWS", rows), (mfcir.experiments, "_SWEEP_CELLS", cells),
        (mfcir.experiments, "_RING_ROWS", ring), (mfcir.cli, "_BLOCK_ROWS", write),
        (mfcir.experiments, "_SCALAR_WIDTH", width),
    ]


_SHIPPED = {name: getattr(module, name) for module, name, _ in _layout("")}


def _cut(length, size):
    """``length`` in pieces of ``size``, as (the size of a full piece, the length of the partial last one or 0)."""
    size = min(size, length)
    return size, length % size


def _cuts(line, **values):
    """The pieces that each layout constant cuts ``line``'s run into, at the shipped values but for ``values``.

    They follow ``_chunks`` (the chunks, which both sweep constants cut),
    ``_increment_blocks`` (each chunk's draw blocks), ``_step`` (which of
    the chunks, or of simulate's draw blocks, are narrow, and the ring's
    segments of each grid that a wide one steps) and ``emit_trajectories``
    (the write blocks).  A constant that does not reach the line cuts it
    into ().
    """
    cuts = dict.fromkeys(_SHIPPED, ())
    try:
        config = parse_config(shlex.split(line))
    except ConfigError:
        return cuts
    value = _SHIPPED | values
    n = config.n_ref if config.command == "convergence" else config.grid.steps_n
    chunks = _cut(config.n_paths, min(value["_SWEEP_ROWS"], max(1, value["_SWEEP_CELLS"] // n)))
    cuts["_SWEEP_ROWS"] = cuts["_SWEEP_CELLS"] = chunks
    budget = "_SIMULATE_BLOCK_BYTES" if config.command == "simulate" else "_BLOCK_BYTES"
    rows = mfcir.mixed._block_rows(n, config.mixed.weight_fbm != 0.0, value[budget])
    cuts[budget] = tuple(_cut(width, rows) for width in chunks if width)
    if config.command == "bracket":
        return cuts
    stepped = [width for piece in (cuts[budget] if config.command == "simulate" else [chunks]) for width in piece]
    narrow = cuts["_SCALAR_WIDTH"] = tuple(width < value["_SCALAR_WIDTH"] for width in stepped if width)
    grids = (n, *config.n_list) if config.command == "convergence" else (n,)
    if not all(narrow):
        cuts["_RING_ROWS"] = tuple(_cut(steps, value["_RING_ROWS"]) for steps in grids)
    if config.command == "simulate":
        cuts["_BLOCK_ROWS"] = _cut(config.n_paths * (n + 1), value["_BLOCK_ROWS"])
    return cuts


@functools.cache
def _moved(line):
    """``line``'s layout values that alone cut it otherwise than the shipped values, by constant."""
    shipped = _cuts(line)
    return {name: value for _, name, value in _layout(line) if _cuts(line, **{name: value})[name] != shipped[name]}


class TestLayout:
    """``_layout`` moves the pieces of some line of the table for each constant: from below and from
    above its shipped value, at each extreme of the block-budget and ring tests it replaced, and on
    each command that the constant reaches.  ``_cuts`` models the pieces from the code that cuts
    them, so a change to how a constant cuts a run must be made there too."""

    @pytest.mark.parametrize("side", ["below", "above"])
    @pytest.mark.parametrize("name", list(_SHIPPED))
    def test_each_constant_moves_a_line_from_each_side(self, name, side):
        values = [_moved(line)[name] for line in record_streams.LINES if name in _moved(line)]
        assert any((value < _SHIPPED[name]) == (side == "below") for value in values)

    # one-row draw blocks, one draw block a chunk, one-row segments, one segment a grid
    @pytest.mark.parametrize("name, value", [
        ("_BLOCK_BYTES", 1), ("_BLOCK_BYTES", 2**22), ("_SIMULATE_BLOCK_BYTES", 1), ("_SIMULATE_BLOCK_BYTES", 2**22),
        ("_RING_ROWS", 1), ("_RING_ROWS", 2**20),
    ])
    def test_each_extreme_moves_a_line(self, name, value):
        assert value in {_moved(line).get(name) for line in record_streams.LINES}

    @pytest.mark.parametrize("name, command", sorted(
        {(name, line.split()[0]) for line in record_streams.LINES for name, cut in _cuts(line).items() if cut}
    ))
    def test_each_constant_moves_a_line_of_each_command_it_reaches(self, name, command):
        assert any(name in _moved(line) for line in record_streams.LINES if line.split()[0] == command)


class TestStreams:
    """Each command line of ``streams.json`` prints what it printed when the table was recorded.

    ``tests/record_streams.py`` rewrites the table and runs each line as
    this test does.  Every output line also runs under a second layout, the
    one that ``_layout`` picks from its steps and paths, and must print the
    same.  A stream that differs only on another numpy or CPU, say because
    ``irfft`` rounds differently there, is a finding to report, not a reason
    to drop the line.
    """

    def test_the_table_holds_the_recorded_lines(self):
        assert list(_STREAMS["lines"]) == list(record_streams.LINES)
        assert list(_STREAMS["help"]) == list(record_streams.HELP_LINES)

    @pytest.mark.parametrize("line", list(_STREAMS["lines"]))
    def test_recorded_hashes(self, line):
        assert record_streams.run_line(line) == _STREAMS["lines"][line], (
            f"recorded with numpy {_STREAMS['numpy']} on {_STREAMS['platform']}, run with {record_streams.provenance()}"
        )

    @pytest.mark.parametrize("line", record_streams.LINES)
    def test_no_byte_depends_on_the_layout(self, monkeypatch, line):
        for module, name, value in _layout(line):
            assert getattr(module, name) != value, name  # a layout that is not the shipped one
            monkeypatch.setattr(module, name, value)
        assert record_streams.run_line(line) == _STREAMS["lines"][line]

    # OpenBLAS splits a long dot product over its threads, and so rounds it
    # differently at each thread count: the bracket sums of squares and the
    # convergence fit must not reach BLAS
    @pytest.mark.parametrize("line", [line for line in record_streams.LINES if line.startswith("bracket")]
                             + ["convergence --paths 2"])
    def test_no_byte_depends_on_the_blas_thread_count(self, line):
        runs = [_run_python("-m", "mfcir", *line.split(), OPENBLAS_NUM_THREADS=threads) for threads in ("1", "2")]
        assert len({(proc.returncode, proc.stdout, proc.stderr) for proc in runs}) == 1


# The mfcir.cli names through which the commands reach the library and the
# emitters.  perfbench/spans.py replaces names on mfcir.cli to time a layer,
# so a command that held on to the functions themselves would go untimed.
# No command calls the per-path references simulate_z and build_mixed.
_CLI_NAMES = (
    "run_convergence", "run_positivity", "run_bracket", "run_mc_stats", "emit_report",
    "_increment_blocks", "_step", "emit_trajectories", "simulate_z", "build_mixed",
)


# Each command line, and the calls it makes through those names.
_CLI_CALLS = [
    (["simulate", "--n", "4", "--paths", "3"], {"_increment_blocks": 1, "_step": 1, "emit_trajectories": 1}),
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
        def explode(spec, grid, seeds, block_bytes):
            raise CirculantEmbeddingError("synthetic eigenvalue failure")

        monkeypatch.setattr("mfcir.cli._increment_blocks", explode)
        assert main(["simulate", "--n", "2", "--out", "-"]) == 4
        assert "numerical failure" in capsys.readouterr().err

    # 10**16 paths or steps ask for about 71 PiB or more, past the 128 TiB
    # x86-64 address space, so the allocation fails even under memory
    # overcommit.  positivity and simulate hold no per-path array, so a huge
    # --paths would really run there.
    @pytest.mark.parametrize(
        "line",
        [
            "mcstats --n 2 --paths 10000000000000000",
            "bracket --n 2 --paths 10000000000000000",
            "convergence --paths 10000000000000000 --n-list 2 --n-ref 16",
            "simulate --n 10000000000000000",
            "positivity --n 10000000000000000",
        ],
    )
    def test_out_of_memory_is_2(self, capsys, tmp_path, line):
        out = tmp_path / "out.csv"
        assert main(line.split() + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("mfcir: error: out of memory") and err.count("\n") == 1, err
        assert list(tmp_path.iterdir()) == []

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


def _run_python(*args, **variables):
    """A fresh interpreter that imports mfcir from this checkout's src/, with ``variables`` in its environment."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, **variables)
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
        "from mfcir.noise import GridSpec, sample_fbm_cholesky; from mfcir.cli import main; "
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


def test_only_a_csv_simulate_loads_the_renderer():
    # mfcir._csvtext builds its tables at import: no other run may pay for them;
    # nor may a run that writes no json-lines report pay about 1 ms to import json
    script = (
        "import os, sys; from mfcir.cli import main\n"
        "for argv in [['simulate', '--n', '8', '--paths', '2', '--format', 'json-lines'],\n"
        "             ['positivity', '--n', '16', '--paths', '4'], ['mcstats', '--n', '16', '--paths', '4'],\n"
        "             ['bracket', '--n', '64', '--refinements', '1,4', '--paths', '4'],\n"
        "             ['convergence', '--paths', '2', '--n-list', '8,16', '--n-ref', '128'],\n"
        "             ['simulate', '--n', '8', '--paths', '2', '--format', 'csv'],\n"
        "             ['mcstats', '--n', '16', '--paths', '4', '--format', 'json-lines']]:\n"
        "    rc = main(argv + ['--out', os.devnull])\n"
        "    print(argv[0], rc, 'mfcir._csvtext' in sys.modules, 'json' in sys.modules)\n"
    )
    proc = _run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "simulate 0 False False", "positivity 0 False False", "mcstats 0 False False", "bracket 0 False False",
        "convergence 0 False False", "simulate 0 True False", "mcstats 0 True True",
    ]


_GLIBC = "CS_GNU_LIBC_VERSION" in getattr(os, "confstr_names", ()) and bool(os.confstr("CS_GNU_LIBC_VERSION"))


class TestMallocThresholds:
    """main fixes glibc's mmap and trim thresholds, and runs the same without them."""

    ARGV = ["bracket", "--n", "256", "--refinements", "1,4", "--paths", "3"]

    def _bytes(self, tmp_path, name):
        out = tmp_path / name
        assert main(self.ARGV + ["--out", str(out)]) == 0
        return out.read_bytes()

    @pytest.mark.skipif(not _GLIBC, reason="the allocator setting is glibc's")
    def test_a_fine_bracket_run_does_not_fault_in_each_transform(self):
        # Each one-row irfft at n = 2**16 mapped and faulted in pocketfft's ~1.9 MB
        # work space afresh: 4.66 k minor faults in main at --paths 4, against
        # 1.66 k with the fixed thresholds (2-core x86-64 box, numpy 2.4.6).
        script = (
            "import os, resource; from mfcir.cli import main\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "rc = main(['bracket', '--n', '65536', '--refinements', '1,16,256', '--paths', '4', '--out', os.devnull])\n"
            "print(rc, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        proc = _run_python("-c", script)
        assert proc.returncode == 0, proc.stderr
        rc, faults = map(int, proc.stdout.split())
        assert rc == 0
        assert faults < 2500

    @pytest.mark.skipif(not _GLIBC, reason="the allocator setting is glibc's")
    def test_sets_both_thresholds(self, monkeypatch, tmp_path):
        calls = []
        monkeypatch.setattr("ctypes.CDLL", lambda name: types.SimpleNamespace(mallopt=lambda *a: calls.append(a)))
        self._bytes(tmp_path, "out")
        assert calls == [(-3, 2 * 2**20), (-1, 4 * 2**20)]

    @pytest.mark.parametrize("case", ["no library", "no mallopt", "no glibc"])
    def test_falls_back_to_the_defaults(self, case, monkeypatch, tmp_path):
        expected = self._bytes(tmp_path, "expected")
        loaded = []

        def cdll(name):
            loaded.append(name)
            if case == "no library":
                raise OSError("cannot load the C library")
            return types.SimpleNamespace()  # a library without mallopt

        monkeypatch.setattr("ctypes.CDLL", cdll)
        if case == "no glibc":
            monkeypatch.setattr(os, "confstr_names", {}, raising=False)
        assert self._bytes(tmp_path, "out") == expected
        assert loaded == ([None] if _GLIBC and case != "no glibc" else [])
