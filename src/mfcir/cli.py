"""Command-line front end and deterministic CSV / JSON-lines emitters.

Commands
--------
simulate     sample trajectories of the rate and its transformed state
convergence  self-convergence study on coupled grids
positivity   minimum-of-the-rate audit over an ensemble
bracket      quadratic-variation and bracket diagnostics
mcstats      Monte Carlo mean / SE of the rate at one time point

Each command is one function in ``_COMMANDS``: it calls the library and
writes its rows through ``emit_report`` (``simulate``, which steps each draw
block through ``experiments._step``, through ``emit_trajectories``).

Exit codes: 0 success, 2 configuration or validation error (an
overflowing implicit step included) or an array too large to allocate,
3 I/O error, 4 numerical failure in the noise generator (a circulant
embedding with a significantly negative eigenvalue).  CSV floats are
written with 17 significant digits and JSON floats as their shortest
round-trip repr, so equal configurations yield byte-identical files and
values round-trip through ``float()``.  JSON has no NaN or infinity:
json-lines reports write such a value as null.
"""

from __future__ import annotations

import argparse
import ctypes
import math
import os
import shutil
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .experiments import _chunks, _step, run_bracket, run_convergence, run_mc_stats, run_positivity
from .mixed import MixedSpec, _increment_blocks
from .noise import GridSpec, NoiseError
from .scheme import CirParams, _put_columns, _require_in_range, z_to_r
# build_mixed, simulate_z and substream_seed are not called here; perfbench/spans.py wraps them by these names.
from . import build_mixed, simulate_z, substream_seed  # noqa: F401

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


def _build_parser() -> _Parser:
    """Every command, each with its flags and ``--config``."""
    parser = _Parser(prog="mfcir")
    sub = parser.add_subparsers(dest="command", required=True, metavar="|".join(_COMMANDS))
    for command, (summary, _) in _COMMANDS.items():
        cmd = sub.add_parser(command, help=summary)
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
    namespace = _build_parser().parse_args(argv)
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


# Rows that simulate renders and writes at a time, in either format: a block
# spans many short paths or a part of a long one.  --preset figure1 --paths 25
# ran in 0.064 s at 1024 rows, against 0.072 s at 512, 0.067 s at 2048 and 0.105 s
# for one % call per path, and peaked at 37.3 MB, against 37.1, 37.7 and
# 37.3 MB (CSV, in-process medians of 6 fresh processes, 2-core x86-64 box, numpy 2.4.6).
# In json-lines, --n 65536 --paths 3 peaked at 51.4 MB, against 67.4 MB for one % call per path.
_BLOCK_ROWS = 1024


def emit_trajectories(paths, config: RunConfig) -> None:
    """Write simulated paths, one row per (path, grid point), stable order.

    ``paths`` yields each path's n + 1 states on ``config.grid``, z0 first;
    its rates are their ``z_to_r``, and a state that is not positive or a
    rate that is not finite is a ValueError.  Paths are taken one at a time,
    so a lazy iterable is streamed: each is checked, then copied into one
    block of ``_BLOCK_ROWS`` rows, which may span many paths or part of one.
    Each full block is rendered and written at once, and so is the last,
    partial one, also when ``paths`` raises: the rows of the paths before
    are written first.  CSV cells are rendered by numpy, with the text of
    ``'%.17g' % value``; a json-lines block is one ``%`` call over the
    templates of its rows, each with its t formatted once.
    """
    rows = config.grid.steps_n + 1
    sigma = config.params.sigma
    with _sink(config.output_path) as out:
        if config.format == "csv":
            from . import _csvtext  # here, so that no other command compiles it or builds its tables

            times = _csvtext.float_cells(config.grid.times)

            def render(first, z, r):
                if first == 0:  # the header comes with the first rows: a run that fails before them writes nothing
                    out.write("path_id,t,z,r\n")
                return _csvtext.csv_rows(first, rows, times, z, r)
        else:
            # %r of a finite float is the shortest repr that round-trips, as json.dumps writes it
            templates = np.array(
                ['{"path_id": %d, "t": ' + "%r" % t + ', "z": %r, "r": %r}\n' for t in config.grid.times.tolist()],
                dtype=object,
            )

            def render(first, z, r):
                pid, step = np.divmod(np.arange(first, first + len(z)), rows)
                args = [0] * (3 * len(z))  # path id, z, r per row
                args[0::3], args[1::3], args[2::3] = pid.tolist(), z.tolist(), r.tolist()
                return "".join(templates[step].tolist()) % tuple(args)

        block = np.empty(_BLOCK_ROWS)
        first = filled = 0  # the run's row at block[0], and the rows the block holds
        try:
            for states in paths:
                z = np.asarray(states, dtype=np.float64)
                del states  # simulate yields buffer views; a caller's list is let go before its next path is made
                if z.shape != (rows,):
                    raise ValueError(f"a path has {z.size} states, not n + 1 = {rows}")
                _require_in_range(z.min(), z.max(), sigma)  # min and max are nan if any state is
                done = 0
                while done < rows:
                    take = min(rows - done, len(block) - filled)
                    block[filled : filled + take] = z[done : done + take]
                    done += take
                    filled += take
                    if filled == len(block):
                        out.write(render(first, block, z_to_r(block, sigma)))
                        first += filled
                        filled = 0
        finally:  # after an error too: the paths before the failing one are written
            if filled:
                z = block[:filled]
                out.write(render(first, z, z_to_r(z, sigma)))


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
        import json  # here, so that no CSV run imports it

        records = rows if footer is None else rows + [footer]
        lines = [json.dumps({k: _json_value(v) for k, v in record.items()}) for record in records]
    with _sink(config.output_path) as out:
        out.writelines(line + "\n" for line in lines)


# simulate's increment block budget, in bytes (mixed._block_rows): one row at n = 4096.  Blocks
# of 16 rows there, the harnesses' Brownian ones, raised the peak RSS of --preset figure1 from 37.3 to 39.2 MB.
_SIMULATE_BLOCK_BYTES = 2**15


def _simulate(config: RunConfig) -> None:
    # each draw block is stepped in one step-major buffer, its paths handed to the emitter one at a time
    params, grid = config.params, config.grid

    def paths():
        z = None
        for _, chunk in _chunks(grid, config.n_paths, config.seed):
            for _, block in _increment_blocks(config.mixed, grid, chunk, _SIMULATE_BLOCK_BYTES):
                if z is None:  # sized by the first block, the widest
                    z = np.empty((grid.steps_n + 1, len(block)))
                    z[0] = params.z0
                states = z[:, : len(block)]
                _put_columns(states[1:], block)
                _step(params, grid, states)
                yield from states.T
            del block  # chunk k's buffer is freed before chunk k + 1 is drawn

    emit_trajectories(paths(), config)


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


# glibc's mallopt parameters (malloc.h) and the values main fixes them at.
# By default glibc maps each block above its mmap threshold afresh and unmaps
# it on free, and returns a freed heap top above its trim threshold to the
# kernel.  Both start low and rise only when a larger mapped block is freed,
# so pocketfft's ~1.9 MB work space of each 2**17-point irfft (one bracket
# row at n = 2**16) was mapped, faulted in (480 pages) and unmapped on every
# call: 1.35 ms a call, against 0.94 ms with no fault at 2 MiB and 4 MiB.
# bracket --n 65536 --refinements 1,16,256 --paths 25 then makes 1.8 k minor
# faults in main, against 14.7 k, and runs in 0.100 s, against 0.110 s.  At
# 4 MiB and 8 MiB, simulate --n 65536 --paths 3 peaked at 50.4 MB, against
# 48.1 MB (2-core x86-64 box, numpy 2.4.6).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 2 * 2**20
_TRIM_THRESHOLD_BYTES = 4 * 2**20


def _fix_malloc_thresholds() -> None:
    """Fix glibc's mmap and trim thresholds; elsewhere, or without mallopt, do nothing."""
    if "CS_GNU_LIBC_VERSION" not in getattr(os, "confstr_names", ()) or not os.confstr("CS_GNU_LIBC_VERSION"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):  # no C library to load, or no mallopt in it
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code instead of raising.

    On glibc it first fixes the allocator's mmap and trim thresholds
    (``_fix_malloc_thresholds``), for the whole process: a caller that runs
    ``main`` in its own process gets that setting too.
    """
    _fix_malloc_thresholds()
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
    except MemoryError as exc:  # numpy's message names the size and shape asked for
        print(f"mfcir: error: out of memory: {exc}", file=sys.stderr)
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
