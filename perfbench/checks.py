"""Output checks of the benchmark workloads.

Each check reads one CLI output file and returns a list of failure
messages (empty when the output is right).  Expected values come from
theory computed here (closed-form CIR moments, the expected quadratic
variation of the mixed driver, the pathwise envelope) or from properties
the method must have (strict positivity, the implicit-step equation,
telescoping of the bracket).  The public mfcir API is used only to resolve
the command line and to rebuild driver paths and per-path solutions.
"""

from __future__ import annotations

import math

import numpy as np

from mfcir import build_mixed, simulate_z, substream_seed
from mfcir.cli import parse_config

# A statistic further than this many standard errors from theory fails.
# Each check is one or a few draws per seed, so 4 to 5 SE keeps the
# chance of a false failure per run below 1e-4.
MEAN_SE = 4.0
SPREAD_SE = 5.0
QV_SE = 5.0
# The step equation a z^2 - c z - d = 0 holds to rounding of its terms.
STEP_REL_TOL = 1e-12
ENVELOPE_SLACK = 1e-9


def _lines(path):
    with open(path, "r", encoding="ascii") as handle:
        return handle.read().splitlines()


def simulate_csv(path, argv):
    """simulate: grid, positivity, r = (sigma z / 2)^2, step equation, envelope."""
    cfg = parse_config(argv)
    p, grid, n_paths = cfg.params, cfg.grid, cfg.n_paths
    n = grid.steps_n
    lines = _lines(path)
    if lines[0] != "path_id,t,z,r":
        return [f"header is {lines[0]!r}"]
    data = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    if data.shape != (n_paths * (n + 1), 4):
        return [f"{data.shape[0]} rows of {data.shape[1]} columns, expected {n_paths * (n + 1)} of 4"]
    fails = []
    ids, t, z, r = (data[:, i].reshape(n_paths, n + 1) for i in range(4))
    if not np.array_equal(ids, np.repeat(np.arange(n_paths), n + 1).reshape(n_paths, n + 1)):
        fails.append("path_id column is not 0..paths-1 in blocks of n+1 rows")
    expected_t = np.arange(n + 1) * grid.horizon_t / n
    if np.max(np.abs(t - expected_t)) > 4.0 * np.finfo(float).eps * grid.horizon_t:
        fails.append("t column differs from j T / n")
    if not (np.all(z > 0.0) and np.all(r > 0.0)):
        fails.append("z or r is not strictly positive")
    if not np.array_equal(r, (p.sigma * z / 2.0) ** 2):
        fails.append("r differs from (sigma z / 2)^2")
    z0 = 2.0 * math.sqrt(p.r0) / p.sigma
    if not np.all(z[:, 0] == z0):
        fails.append(f"z at t = 0 differs from 2 sqrt(r0) / sigma = {z0!r}")
    a = 1.0 + 0.5 * p.k * grid.dt
    d = (p.m + 0.5) * grid.dt
    drift0 = abs((p.m + 0.5) / z0 - 0.5 * p.k * z0)
    for i in range(n_paths):
        dm = build_mixed(cfg.mixed, grid, substream_seed(cfg.seed, i)).increments
        zi = z[i]
        c = zi[:-1] + dm
        zn = zi[1:]
        residual = np.abs(a * zn * zn - c * zn - d)
        scale = a * zn * zn + np.abs(c * zn) + d
        if np.any(residual > STEP_REL_TOL * scale):
            fails.append(f"path {i}: a step does not solve a z^2 - c z - d = 0")
        sup_m = max(float(np.max(np.abs(np.cumsum(dm)))), 0.0)
        if zi.max() > z0 + drift0 * grid.horizon_t + 2.0 * sup_m + ENVELOPE_SLACK:
            fails.append(f"path {i} leaves the envelope z0 + |b(z0)| T + 2 sup|M|")
    return fails


def positivity(path, argv):
    """positivity: min_z > 0, min_r its transform, Feller flag, every path recomputed."""
    cfg = parse_config(argv)
    p = cfg.params
    lines = _lines(path)
    if lines[0] != "n_paths,min_z,min_r,feller_ok" or len(lines) != 2:
        return [f"unexpected layout {lines[:3]!r}"]
    cells = lines[1].split(",")
    n_paths, min_z, min_r, feller = int(cells[0]), float(cells[1]), float(cells[2]), cells[3]
    fails = []
    if n_paths != cfg.n_paths:
        fails.append(f"n_paths {n_paths} != {cfg.n_paths}")
    if not min_z > 0.0:
        fails.append(f"min_z {min_z!r} is not positive")
    if min_r != (p.sigma * min_z / 2.0) ** 2:
        fails.append(f"min_r {min_r!r} differs from (sigma min_z / 2)^2")
    expected = "true" if 2.0 * p.k * p.theta > p.sigma**2 else "false"
    if feller != expected:
        fails.append(f"feller_ok is {feller}, 2 k theta > sigma^2 says {expected}")
    # Every path again through the per-path scalar scheme, the reference
    # the batch kernel promises to match.
    recomputed = min(
        float(simulate_z(p, build_mixed(cfg.mixed, cfg.grid, substream_seed(cfg.seed, i))).z_values.min())
        for i in range(cfg.n_paths)
    )
    if not math.isclose(min_z, recomputed, rel_tol=1e-12):
        fails.append(f"min_z {min_z!r} differs from {recomputed!r}, the minimum of the paths recomputed one by one")
    return fails


def _noncentral_kurtosis(p, t):
    """Kurtosis of r_t, a scaled noncentral chi-square in the CIR model."""
    c = p.sigma**2 * (1.0 - math.exp(-p.k * t)) / (4.0 * p.k)
    dof = 4.0 * p.k * p.theta / p.sigma**2
    nc = p.r0 * math.exp(-p.k * t) / c
    return 3.0 + 12.0 * (dof + 4.0 * nc) / (dof + 2.0 * nc) ** 2


def mcstats(path, argv):
    """mcstats, Brownian only: closed-form mean and standard deviation of r_t."""
    cfg = parse_config(argv)
    p, grid = cfg.params, cfg.grid
    lines = _lines(path)
    if lines[0] != "t_eval,sample_mean,sample_se,n_paths,closed_form_mean" or len(lines) != 2:
        return [f"unexpected layout {lines[:3]!r}"]
    t_eval, mean, se, n_paths, closed = lines[1].split(",")
    mean, se, n_paths = float(mean), float(se), int(n_paths)
    t = round(cfg.t_eval / grid.dt) * grid.dt
    decay = math.exp(-p.k * t)
    theory_mean = p.theta + (p.r0 - p.theta) * decay
    theory_sd = math.sqrt(
        p.r0 * p.sigma**2 / p.k * (decay - decay * decay)
        + p.theta * p.sigma**2 / (2.0 * p.k) * (1.0 - decay) ** 2
    )
    fails = []
    if n_paths != cfg.n_paths:
        fails.append(f"n_paths {n_paths} != {cfg.n_paths}")
    if closed == "" or not math.isclose(float(closed), theory_mean, rel_tol=1e-12):
        fails.append(f"closed_form_mean {closed!r} differs from {theory_mean!r}")
    if abs(mean - theory_mean) > MEAN_SE * se:
        fails.append(f"sample_mean {mean!r} is more than {MEAN_SE} SE from {theory_mean!r}")
    # Relative standard error of a sample standard deviation: sqrt((kurt - 1) / 4n).
    rel_tol = SPREAD_SE * math.sqrt((_noncentral_kurtosis(p, t) - 1.0) / (4.0 * n_paths))
    sample_sd = se * math.sqrt(n_paths)
    if abs(sample_sd / theory_sd - 1.0) > rel_tol:
        fails.append(f"sample sd {sample_sd!r} is not within {rel_tol:.1%} of {theory_sd!r}")
    return fails


def _qv_moments(spec, horizon_t, n_outer):
    """Mean and standard deviation of the QV of n_outer mixed increments."""
    dt = horizon_t / n_outer
    e = 2.0 * spec.hurst
    lag = np.arange(n_outer, dtype=np.float64)
    # Autocovariance of the increments: Brownian on the diagonal plus
    # fractional Gaussian noise at every lag.
    gamma = spec.weight_fbm**2 * 0.5 * dt**e * (
        (lag + 1.0) ** e - 2.0 * lag**e + np.abs(lag - 1.0) ** e
    )
    gamma[0] += spec.weight_bm**2 * dt
    mean = n_outer * gamma[0]
    # Var(sum x_i^2) = 2 tr(Sigma^2) for a Gaussian vector; Sigma is Toeplitz.
    trace_sq = n_outer * gamma[0] ** 2 + 2.0 * float(np.sum((n_outer - lag[1:]) * gamma[1:] ** 2))
    return mean, math.sqrt(2.0 * trace_sq)


def bracket(path, argv):
    """bracket: telescoping bracket value and QV against its expectation."""
    cfg = parse_config(argv)
    grid, spec = cfg.grid, cfg.mixed
    lines = _lines(path)
    if lines[0] != "n,refinement,qv,bracket_value" or len(lines) != 1 + len(cfg.refinements):
        return [f"unexpected layout {lines[:3]!r}"]
    fails = []
    brackets = []
    for line, refinement in zip(lines[1:], cfg.refinements):
        n, ref, qv, value = line.split(",")
        n_outer = grid.steps_n // refinement
        if (int(n), int(ref)) != (n_outer, refinement):
            fails.append(f"row {line!r} is not for n = {n_outer}, refinement = {refinement}")
        brackets.append(float(value))
        mean, sd = _qv_moments(spec, grid.horizon_t, n_outer)
        # The CLI reports the median over paths; its standard error is
        # sqrt(pi / 2) times that of the mean for a near-Gaussian statistic.
        se = math.sqrt(math.pi / 2.0) * sd / math.sqrt(cfg.n_paths)
        if abs(float(qv) - mean) > QV_SE * se:
            fails.append(f"qv {qv} at refinement {refinement} is more than {QV_SE} SE from {mean!r}")
    if max(brackets) - min(brackets) > 1e-9 * abs(brackets[0]):
        fails.append(f"bracket_value differs between refinements: {brackets}")
    return fails
