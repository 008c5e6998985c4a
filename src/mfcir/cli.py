"""Command-line front end and deterministic CSV / JSON-lines emitters.

Commands
--------
simulate     sample trajectories of the rate and its transformed state
convergence  self-convergence study on coupled grids
positivity   minimum-of-the-rate audit over an ensemble
bracket      quadratic-variation and bracket diagnostics
mcstats      Monte Carlo mean / SE of the rate at one time point

Each command is one function in ``_COMMANDS``: it calls the library and
writes its rows through ``emit_report`` (``simulate`` through
``emit_trajectories``).

Exit codes: 0 success, 2 configuration or validation error (an
overflowing implicit step included), 3 I/O error, 4 numerical failure in
the noise generator (a circulant embedding with a significantly negative
eigenvalue).  CSV floats are written with 17 significant digits and JSON
floats as their shortest round-trip repr, so equal configurations yield
byte-identical files and values round-trip through ``float()``.  JSON has
no NaN or infinity: json-lines reports write such a value as null.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .experiments import _chunks, run_bracket, run_convergence, run_mc_stats, run_positivity
from .mixed import MixedSpec, build_mixed
# substream_seed is not called here; perfbench/spans.py wraps it by this name.
from .noise import GridSpec, NoiseError, substream_seed  # noqa: F401
from .scheme import CirParams, simulate_z

__all__ = ["ConfigError", "RunConfig", "emit_report", "emit_trajectories", "main", "parse_config"]

_FORMATS = ("csv", "json-lines")

_PRESETS = {
    # 50 sample paths of the mixed model on [0, 10]; reference parameter
    # set used throughout the docs (k = theta = sigma = r0 = 1, H = 0.75).
    "figure1": {
        "k": 1.0,
        "theta": 1.0,
        "sigma": 1.0,
        "r0": 1.0,
        "hurst": 0.75,
        "T": 10.0,
        "n": 4096,
        "paths": 50,
    }
}


class ConfigError(ValueError):
    """Invalid command line, config file, or parameter combination."""


@dataclass(frozen=True)
class RunConfig:
    """Fully validated run description shared by every command."""

    command: str
    params: CirParams
    mixed: MixedSpec
    grid: GridSpec
    n_paths: int
    seed: int
    output_path: str
    format: str
    n_list: tuple[int, ...]
    n_ref: int
    refinements: tuple[int, ...]
    t_eval: float


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError:  # argparse prints an ArgumentTypeError's own message, not the converter's name
        raise argparse.ArgumentTypeError(f"expected a comma-separated list of integers, got {text!r}") from None


class _Option(NamedTuple):
    """One run setting: the flag ``--key``, and the same key in a config file or preset."""

    key: str
    convert: Callable[[str], object]
    default: object
    help: str
    commands: tuple[str, ...] = ()  # the commands that take the flag; () means every one


_OPTIONS = (
    _Option("k", float, 1.0, "mean-reversion speed (> 0)"),
    _Option("theta", float, 1.0, "long-run level (> 0)"),
    _Option("sigma", float, 1.0, "volatility (> 0)"),
    _Option("r0", float, 1.0, "initial rate (> 0)"),
    _Option("hurst", float, 0.75, "hurst exponent of the fractional part, in (1/2, 1)"),
    _Option("weight-bm", float, 1.0, "weight of the Brownian component"),
    _Option("weight-fbm", float, 1.0, "weight of the fractional component"),
    _Option("T", float, 1.0, "time horizon (> 0)"),
    _Option("n", int, 1024, "number of grid steps (>= 1)"),
    _Option("paths", int, 1, "number of paths / seeds (>= 1)"),
    _Option("seed", int, 42, "master seed (unsigned 64-bit)"),
    _Option("out", str, "-", "output file, '-' for stdout"),
    _Option("format", str, "csv", "output format, csv or json-lines"),
    _Option("preset", str, None, "named parameter preset (figure1)"),
    _Option("n-list", _int_list, (64, 128, 256, 512, 1024), "comma-separated coarse grids", ("convergence",)),
    _Option("n-ref", int, 16384, "reference grid (>= 8 * max n)", ("convergence",)),
    _Option("refinements", _int_list, (1,), "comma-separated inner refinements", ("bracket",)),
    _Option("t-eval", float, None, "evaluation time in (0, T]; defaults to T", ("mcstats",)),
)
_OPTION_BY_KEY = {option.key: option for option in _OPTIONS}


def _read_config_file(path: str) -> dict:
    """Parse a flat key=value file; unknown keys are rejected by name."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    values = {}
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if stripped == "" or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _OPTION_BY_KEY:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = _OPTION_BY_KEY[key].convert(raw)
        except (ValueError, argparse.ArgumentTypeError):
            raise ConfigError(f"{path}:{lineno}: invalid value for {key}: {raw!r}") from None
    return values


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one-line diagnostics, no usage dump
        raise ConfigError(message)


def _build_parser(argv: Sequence[str]) -> _Parser:
    """The parser for ``argv``: every command, but flags only on the one ``argv[0]`` names (on all if none).

    No other command's parser reads ``argv``, so the help, usage and error
    texts are those of a parser with every flag on every command.
    """
    parser = _Parser(prog="mfcir")
    sub = parser.add_subparsers(dest="command", required=True, metavar="|".join(_COMMANDS))
    named = argv[0] if argv and argv[0] in _COMMANDS else None
    for command, (summary, _) in _COMMANDS.items():
        cmd = sub.add_parser(command, help=summary)
        if named not in (None, command):
            continue
        for option in _OPTIONS:
            if not option.commands or command in option.commands:
                cmd.add_argument("--" + option.key, dest=option.key, type=option.convert, help=option.help)
        cmd.add_argument("--config", help="flat key=value config file; its keys are the flags' names")
    return parser


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def parse_config(argv: Sequence[str]) -> RunConfig:
    """Resolve argv (plus optional config file and preset) into a RunConfig.

    Precedence, lowest to highest: built-in defaults, preset values,
    config-file values, explicit command-line flags.
    """
    namespace = _build_parser(argv).parse_args(argv)
    cli_values = {key: value for key, value in vars(namespace).items() if key in _OPTION_BY_KEY and value is not None}
    file_values = _read_config_file(namespace.config) if namespace.config else {}
    merged = {option.key: option.default for option in _OPTIONS}
    preset = cli_values.get("preset", file_values.get("preset"))
    if preset is not None:
        _require(preset in _PRESETS, f"unknown preset {preset!r} (available: figure1)")
        merged.update(_PRESETS[preset])
    merged.update(file_values)
    merged.update(cli_values)

    try:
        params = CirParams(k=merged["k"], theta=merged["theta"], sigma=merged["sigma"], r0=merged["r0"])
        mixed = MixedSpec(hurst=merged["hurst"], weight_bm=merged["weight-bm"], weight_fbm=merged["weight-fbm"])
        grid = GridSpec(horizon_t=merged["T"], steps_n=merged["n"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None
    _require(merged["paths"] >= 1, f"paths must be >= 1, got {merged['paths']}")
    _require(0 <= merged["seed"] < 2**64, f"seed must be an unsigned 64-bit integer, got {merged['seed']}")
    _require(merged["format"] in _FORMATS, f"format must be one of {_FORMATS}, got {merged['format']!r}")
    t_eval = merged["t-eval"] if merged["t-eval"] is not None else grid.horizon_t
    if namespace.command == "mcstats":
        _require(0.0 < t_eval <= grid.horizon_t, f"t-eval must lie in (0, {grid.horizon_t}], got {t_eval}")
    if namespace.command == "convergence":  # run_bracket rejects empty refinements itself
        _require(merged["n-list"] != (), "n-list must not be empty")
    return RunConfig(
        command=namespace.command,
        params=params,
        mixed=mixed,
        grid=grid,
        n_paths=merged["paths"],
        seed=merged["seed"],
        output_path=merged["out"],
        format=merged["format"],
        n_list=merged["n-list"],
        n_ref=merged["n-ref"],
        refinements=merged["refinements"],
        t_eval=t_eval,
    )


@contextmanager
def _sink(path: str):
    """Stdout for '' or '-', else a text stream with fixed newlines.  A new
    or regular file is written under a temporary name beside it, renamed
    over it once the body has finished: a failed run leaves it as it was.
    Other targets (/dev/null, a pipe, a terminal) are written directly."""
    if path in ("", "-"):
        yield sys.stdout
        return
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="ascii", newline="") as handle:
            yield handle
        return
    target = os.path.realpath(path)  # through a symlink, so that the link stays
    temp = f"{target}.{os.getpid()}.part"
    try:
        handle = open(temp, "x", encoding="ascii", newline="")
    except OSError as exc:  # name the file asked for, not this run's temporary one
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with handle:
            yield handle
        if os.path.isfile(target):
            shutil.copymode(target, temp)
        os.replace(temp, target)
    except BaseException:  # KeyboardInterrupt too: the file removed is this run's own
        os.remove(temp)
        raise


# Per format: the header, then the cells of one row around its formatted
# t: the path id's cell, t's format, and the z and r cells.  %r of a
# finite float is the shortest repr that round-trips, which is what
# json.dumps writes.
_TRAJECTORY_CELLS = {
    "csv": ("path_id,t,z,r\n", "%d,", "%.17g", ",%.17g,%.17g\n"),
    "json-lines": ("", '{"path_id": %d, "t": ', "%r", ', "z": %r, "r": %r}\n'),
}


def emit_trajectories(trajectories, config: RunConfig) -> None:
    """Write simulated paths, one row per (path, grid point), stable order.

    Every path lies on ``config.grid``, so the text of one path's rows is
    built once per run as a template: each row holds its ``t`` already
    formatted and placeholders for the path id, ``z`` and ``r``.  A path is
    then one ``%`` call over an argument list refilled by slice assignment,
    and one write.  Each path is written as soon as ``trajectories``
    yields it, so a lazy iterable is streamed and only one path, and its
    text, is held at a time.
    """
    header, id_cell, t_format, value_cells = _TRAJECTORY_CELLS[config.format]
    template = "".join(id_cell + t_format % t + value_cells for t in config.grid.times.tolist())
    rows = config.grid.steps_n + 1
    args = [0] * (3 * rows)  # path id, z, r per row
    with _sink(config.output_path) as out:
        out.write(header)
        for pid, traj in enumerate(trajectories):
            if traj.grid != config.grid:
                raise ValueError(f"path {pid} lies on {traj.grid}, not on the run's grid {config.grid}")
            args[0::3] = [pid] * rows
            args[1::3] = traj.z_values.tolist()
            args[2::3] = traj.r_values.tolist()
            out.write(template % tuple(args))


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return "%.17g" % value


def _json_value(value):
    """None for a non-finite float: JSON has no NaN or infinity."""
    return None if isinstance(value, float) and not math.isfinite(value) else value


def emit_report(rows, footer, config: RunConfig) -> None:
    """Write one summary file: ``rows`` (dicts whose keys are the CSV
    header) and an optional ``footer`` dict.  The CSV footer is one line of
    key=value cells; in json-lines it is one more record, and a non-finite
    value is written as null (CSV keeps ``nan``)."""
    if config.format == "csv":
        lines = [",".join(rows[0])] + [",".join(_cell(v) for v in row.values()) for row in rows]
        if footer is not None:
            lines.append(",".join(f"{k}={v:.17g}" for k, v in footer.items()))
    else:
        records = rows if footer is None else rows + [footer]
        lines = [json.dumps({k: _json_value(v) for k, v in record.items()}) for record in records]
    with _sink(config.output_path) as out:
        out.writelines(line + "\n" for line in lines)


def _simulate(config: RunConfig) -> None:
    # one chunk's seeds are derived at a time, when the chunk is reached
    seeds = (seed for _, chunk in _chunks(config.grid, config.n_paths, config.seed) for seed in chunk)
    paths = (simulate_z(config.params, build_mixed(config.mixed, config.grid, seed)) for seed in seeds)
    emit_trajectories(paths, config)


def _convergence(config: RunConfig) -> None:
    report = run_convergence(
        config.params, config.mixed, config.grid.horizon_t, config.n_list, config.n_ref, config.n_paths, config.seed
    )
    q25, q75 = np.percentile(report.errors_per_seed, (25, 75), axis=0).tolist()
    rows = [
        {"n": n, "median_sup_error": median, "q25": low, "q75": high}
        for n, median, low, high in zip(report.n_list, report.sup_errors, q25, q75)
    ]
    emit_report(rows, {"fitted_order": report.fitted_order, "r2": report.fit_r2}, config)


def _positivity(config: RunConfig) -> None:
    report = run_positivity(config.params, config.mixed, config.grid, config.n_paths, config.seed)
    columns = ("n_paths", "min_z", "min_r", "feller_ok")
    emit_report([{name: getattr(report, name) for name in columns}], None, config)


def _bracket(config: RunConfig) -> None:
    estimates = run_bracket(config.mixed, config.grid, config.refinements, config.n_paths, config.seed)
    rows = [
        {"n": est.grid.steps_n, "refinement": est.refinement, "qv": est.qv_sum, "bracket_value": est.bracket_value}
        for est in estimates
    ]
    emit_report(rows, None, config)


def _mcstats(config: RunConfig) -> None:
    report = run_mc_stats(config.params, config.mixed, config.grid, config.t_eval, config.n_paths, config.seed)
    columns = ("t_eval", "sample_mean", "sample_se", "n_paths", "closed_form_mean")
    emit_report([{name: getattr(report, name) for name in columns}], None, config)


# command name -> (help line, the function that runs it).  Each function
# calls the library and the emitters by this module's names when it runs,
# so that a name that perfbench/spans.py replaces here is the one called.
_COMMANDS = {
    "simulate": ("sample trajectories", _simulate),
    "convergence": ("self-convergence study", _convergence),
    "positivity": ("minimum-rate audit", _positivity),
    "bracket": ("bracket diagnostics", _bracket),
    "mcstats": ("Monte Carlo mean / SE", _mcstats),
}


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code instead of raising."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        config = parse_config(list(argv))
        _COMMANDS[config.command][1](config)
    except NoiseError as exc:
        print(f"mfcir: numerical failure: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"mfcir: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"mfcir: i/o error: {exc}", file=sys.stderr)
        return 3
    params = config.params
    if config.command != "bracket" and not params.feller_ok:  # every other command steps the scheme
        print(
            f"warning: Feller condition 2*k*theta > sigma^2 fails (m = {params.m:.6g}); "
            "the scheme stays positive, but the exact rate may touch zero",
            file=sys.stderr,
        )
    return 0


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
