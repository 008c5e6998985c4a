"""Command-line front end and deterministic CSV / JSON-lines emitters.

Commands
--------
simulate     sample trajectories of the rate and its transformed state
convergence  self-convergence study on coupled grids
positivity   minimum-of-the-rate audit over an ensemble
bracket      quadratic-variation and bracket diagnostics
mcstats      Monte Carlo mean / SE of the rate at one time point

Exit codes: 0 success, 2 configuration or validation error, 3 I/O error,
4 numerical failure in the noise generator (a circulant embedding with a
significantly negative eigenvalue).  All floating-point output
is written with 17 significant digits, so equal configurations yield
byte-identical files and values round-trip through ``float()``.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .experiments import (
    ConvergenceReport,
    McStats,
    PositivityReport,
    run_bracket,
    run_convergence,
    run_mc_stats,
    run_positivity,
)
from .mixed import MixedSpec, build_mixed
from .noise import GridSpec, NoiseError, substream_seed
from .scheme import CirParams, simulate_z

__all__ = ["ConfigError", "RunConfig", "emit_report", "emit_trajectories", "main", "parse_config"]

_COMMANDS = ("simulate", "convergence", "positivity", "bracket", "mcstats")
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
    except ValueError:
        raise ConfigError(f"expected a comma-separated list of integers, got {text!r}") from None


_DEFAULTS = {
    "k": 1.0,
    "theta": 1.0,
    "sigma": 1.0,
    "r0": 1.0,
    "hurst": 0.75,
    "weight-bm": 1.0,
    "weight-fbm": 1.0,
    "T": 1.0,
    "n": 1024,
    "paths": 1,
    "seed": 42,
    "out": "-",
    "format": "csv",
    "n-list": (64, 128, 256, 512, 1024),
    "n-ref": 16384,
    "refinements": (1,),
    "t-eval": None,  # defaults to the horizon
}

_CONVERTERS = {
    "k": float,
    "theta": float,
    "sigma": float,
    "r0": float,
    "hurst": float,
    "weight-bm": float,
    "weight-fbm": float,
    "T": float,
    "n": int,
    "paths": int,
    "seed": int,
    "out": str,
    "format": str,
    "preset": str,
    "n-list": _int_list,
    "n-ref": int,
    "refinements": _int_list,
    "t-eval": float,
}


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
        if key not in _CONVERTERS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = _CONVERTERS[key](raw)
        except (ValueError, ConfigError):
            raise ConfigError(f"{path}:{lineno}: invalid value for {key}: {raw!r}") from None
    return values


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one-line diagnostics, no usage dump
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="mfcir", add_help=True)
    sub = parser.add_subparsers(dest="command", required=True, metavar="|".join(_COMMANDS))
    shared = argparse.ArgumentParser(add_help=False)
    g = shared.add_argument_group("model")
    g.add_argument("--k", type=float, help="mean-reversion speed (> 0)")
    g.add_argument("--theta", type=float, help="long-run level (> 0)")
    g.add_argument("--sigma", type=float, help="volatility (> 0)")
    g.add_argument("--r0", type=float, help="initial rate (> 0)")
    g.add_argument("--hurst", type=float, help="hurst exponent of the fractional part, in (1/2, 1)")
    g.add_argument("--weight-bm", type=float, help="weight of the Brownian component")
    g.add_argument("--weight-fbm", type=float, help="weight of the fractional component")
    r = shared.add_argument_group("run")
    r.add_argument("--T", type=float, help="time horizon (> 0)")
    r.add_argument("--n", type=int, help="number of grid steps (>= 1)")
    r.add_argument("--paths", type=int, help="number of paths / seeds (>= 1)")
    r.add_argument("--seed", type=int, help="master seed (unsigned 64-bit)")
    r.add_argument("--out", help="output file, '-' for stdout")
    r.add_argument("--format", choices=_FORMATS, help="output format")
    r.add_argument("--preset", help="named parameter preset (figure1)")
    r.add_argument("--config", help="flat key=value config file")
    sub.add_parser("simulate", parents=[shared], help="sample trajectories")
    conv = sub.add_parser("convergence", parents=[shared], help="self-convergence study")
    conv.add_argument("--n-list", type=_int_list, help="comma-separated coarse grids")
    conv.add_argument("--n-ref", type=int, help="reference grid (>= 8 * max n)")
    br = sub.add_parser("bracket", parents=[shared], help="bracket diagnostics")
    br.add_argument("--refinements", type=_int_list, help="comma-separated inner refinements")
    sub.add_parser("positivity", parents=[shared], help="minimum-rate audit")
    mc = sub.add_parser("mcstats", parents=[shared], help="Monte Carlo mean / SE")
    mc.add_argument("--t-eval", type=float, help="evaluation time in (0, T]")
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
    cli_values = {
        key: getattr(namespace, key.replace("-", "_"))
        for key in _CONVERTERS
        if getattr(namespace, key.replace("-", "_"), None) is not None
    }
    file_values = _read_config_file(namespace.config) if namespace.config else {}
    merged = dict(_DEFAULTS)
    preset = cli_values.get("preset", file_values.get("preset"))
    if preset is not None:
        _require(preset in _PRESETS, f"unknown preset {preset!r} (available: figure1)")
        merged.update(_PRESETS[preset])
    merged.update({k: v for k, v in file_values.items() if k != "preset"})
    merged.update({k: v for k, v in cli_values.items() if k != "preset"})

    hurst = merged["hurst"]
    _require(0.5 < hurst < 1.0, f"invalid hurst {hurst}: the model requires 1/2 < H < 1")
    try:
        params = CirParams(k=merged["k"], theta=merged["theta"], sigma=merged["sigma"], r0=merged["r0"])
        mixed = MixedSpec(hurst=hurst, weight_bm=merged["weight-bm"], weight_fbm=merged["weight-fbm"])
        grid = GridSpec(horizon_t=merged["T"], steps_n=merged["n"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None
    _require(merged["paths"] >= 1, f"paths must be >= 1, got {merged['paths']}")
    _require(0 <= merged["seed"] < 2**64, f"seed must be an unsigned 64-bit integer, got {merged['seed']}")
    _require(merged["format"] in _FORMATS, f"format must be one of {_FORMATS}, got {merged['format']!r}")
    t_eval = merged["t-eval"] if merged["t-eval"] is not None else grid.horizon_t
    if namespace.command == "mcstats":
        _require(0.0 < t_eval <= grid.horizon_t, f"t-eval must lie in (0, {grid.horizon_t}], got {t_eval}")
    n_list = tuple(int(n) for n in merged["n-list"])
    refinements = tuple(int(r) for r in merged["refinements"])
    _require(len(n_list) >= 1, "n-list must not be empty")
    _require(len(refinements) >= 1, "refinements must not be empty")

    if not params.feller_ok:
        print(
            f"warning: Feller condition 2*k*theta > sigma^2 fails (m = {params.m:.6g}); "
            "the scheme stays positive, but the exact rate may touch zero",
            file=sys.stderr,
        )
    return RunConfig(
        command=namespace.command,
        params=params,
        mixed=mixed,
        grid=grid,
        n_paths=int(merged["paths"]),
        seed=int(merged["seed"]),
        output_path=str(merged["out"]),
        format=str(merged["format"]),
        n_list=n_list,
        n_ref=int(merged["n-ref"]),
        refinements=refinements,
        t_eval=float(t_eval),
    )


def _fmt(x) -> str:
    return format(float(x), ".17g")


class _Sink:
    """Line sink writing either to stdout or to a file with fixed newlines."""

    def __init__(self, path: str):
        self._path = path
        self._handle = None

    def __enter__(self):
        if self._path in ("", "-"):
            self._handle = sys.stdout
            self._own = False
        else:
            self._handle = open(self._path, "w", encoding="ascii", newline="")
            self._own = True
        return self

    def __exit__(self, *exc_info):
        if self._own:
            self._handle.close()
        return False

    def line(self, text: str) -> None:
        self._handle.write(text + "\n")


def emit_trajectories(trajectories, config: RunConfig) -> None:
    """Write simulated paths, one row per (path, grid point), stable order."""
    with _Sink(config.output_path) as sink:
        if config.format == "csv":
            sink.line("path_id,t,z,r")
        for pid, traj in enumerate(trajectories):
            times = traj.grid.times
            for j in range(traj.grid.steps_n + 1):
                if config.format == "csv":
                    sink.line(
                        f"{pid},{_fmt(times[j])},{_fmt(traj.z_values[j])},{_fmt(traj.r_values[j])}"
                    )
                else:
                    sink.line(
                        json.dumps(
                            {
                                "path_id": pid,
                                "t": float(times[j]),
                                "z": float(traj.z_values[j]),
                                "r": float(traj.r_values[j]),
                            }
                        )
                    )


def _report_rows(report, config: RunConfig):
    """(header, list of row dicts, footer dict or None) for one report."""
    if isinstance(report, ConvergenceReport):
        rows = []
        for i, n in enumerate(report.n_list):
            per_seed = report.errors_per_seed[:, i]
            rows.append(
                {
                    "n": n,
                    "median_sup_error": report.sup_errors[i],
                    "q25": float(np.percentile(per_seed, 25)),
                    "q75": float(np.percentile(per_seed, 75)),
                }
            )
        footer = {"fitted_order": report.fitted_order, "r2": report.fit_r2}
        return "n,median_sup_error,q25,q75", rows, footer
    if isinstance(report, PositivityReport):
        rows = [
            {
                "n_paths": report.n_paths,
                "min_z": report.min_z,
                "min_r": report.min_r,
                "feller_ok": report.feller_ok,
            }
        ]
        return "n_paths,min_z,min_r,feller_ok", rows, None
    if isinstance(report, McStats):
        rows = [
            {
                "t_eval": report.t_eval,
                "sample_mean": report.sample_mean,
                "sample_se": report.sample_se,
                "n_paths": report.n_paths,
                "closed_form_mean": report.closed_form_mean,
            }
        ]
        return "t_eval,sample_mean,sample_se,n_paths,closed_form_mean", rows, None
    # list of bracket estimates
    rows = [
        {
            "n": est.grid.steps_n,
            "refinement": est.refinement,
            "qv": est.qv_sum,
            "bracket_value": est.bracket_value,
        }
        for est in report
    ]
    return "n,refinement,qv,bracket_value", rows, None


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return _fmt(value)


def emit_report(report, config: RunConfig) -> None:
    """Write one summary file for a convergence/positivity/bracket/mcstats run."""
    header, rows, footer = _report_rows(report, config)
    with _Sink(config.output_path) as sink:
        if config.format == "csv":
            sink.line(header)
            for row in rows:
                sink.line(",".join(_cell(v) for v in row.values()))
            if footer is not None:
                sink.line(",".join(f"{k}={_fmt(v)}" for k, v in footer.items()))
        else:
            for row in rows:
                sink.line(json.dumps(row))
            if footer is not None:
                sink.line(json.dumps(footer))


def _run(config: RunConfig) -> None:
    if config.command == "simulate":
        trajectories = [
            simulate_z(config.params, build_mixed(config.mixed, config.grid, substream_seed(config.seed, i)))
            for i in range(config.n_paths)
        ]
        emit_trajectories(trajectories, config)
    elif config.command == "convergence":
        seeds = [substream_seed(config.seed, i) for i in range(config.n_paths)]
        report = run_convergence(
            config.params, config.mixed, config.grid.horizon_t, config.n_list, config.n_ref, seeds
        )
        emit_report(report, config)
    elif config.command == "positivity":
        report = run_positivity(config.params, config.mixed, config.grid, config.n_paths, config.seed)
        emit_report(report, config)
    elif config.command == "bracket":
        estimates = run_bracket(config.mixed, config.grid, config.refinements, config.n_paths, config.seed)
        emit_report(estimates, config)
    else:
        report = run_mc_stats(
            config.params, config.mixed, config.grid, config.t_eval, config.n_paths, config.seed
        )
        emit_report(report, config)


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code instead of raising."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        config = parse_config(list(argv))
        _run(config)
    except ConfigError as exc:
        print(f"mfcir: error: {exc}", file=sys.stderr)
        return 2
    except NoiseError as exc:
        print(f"mfcir: numerical failure: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"mfcir: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"mfcir: i/o error: {exc}", file=sys.stderr)
        return 3
    return 0


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
