"""Ensemble harnesses: positivity audits, self-convergence, MC statistics.

Each run* function is a pure function of its arguments: per-path seeds
are derived from the master seed with :func:`mfcir.noise.substream_seed`,
and :func:`mfcir.mixed.ensemble_increments` turns them into increments,
so reruns reproduce results exactly.

Positivity audits and MC statistics stream the ensemble: chunks of paths
are drawn and stepped one at a time, and only per-path reductions are
kept, so memory does not grow with the number of paths.

Every simulated trajectory of an ensemble or convergence run is also
checked against the a priori envelope

    z <= z0 + |b(z0)| * T + 2 * sup |M|  (+ 1e-9 slack),

which the implicit scheme satisfies pathwise; reports carry the number of
violations, expected to be zero always.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .bracket import BracketEstimate, discrete_ito_iterated
# build_mixed and simulate_z_batch are not called here; perfbench/spans.py
# wraps them by these names.
from .mixed import CoupledNoise, MixedSpec, build_mixed, derive_coupled, ensemble_increments  # noqa: F401
from .noise import GridSpec, NoisePath, substream_seed
from .scheme import CirParams, implicit_steps, simulate_z, simulate_z_batch, singular_drift, z_to_r  # noqa: F401

__all__ = [
    "ConvergenceReport",
    "McStats",
    "PositivityReport",
    "run_bracket",
    "run_convergence",
    "run_mc_stats",
    "run_positivity",
]

_BOUND_SLACK = 1e-9


def _path_seeds(master_seed: int, n_paths: int) -> list[int]:
    return [substream_seed(master_seed, i) for i in range(n_paths)]


# A sweep steps at most _SWEEP_ROWS paths at a time, and fewer on long
# grids, so that a chunk's increments hold at most _SWEEP_CELLS values
# (32 MB); below about a thousand paths per chunk the per-step ufunc
# overhead starts to dominate.
_SWEEP_ROWS = 1024
_SWEEP_CELLS = 2**22


def _envelope_violations(params: CirParams, grid: GridSpec, sup_m: np.ndarray, z_max: np.ndarray) -> int:
    """Count paths whose running max of z pierces the pathwise envelope."""
    z0 = params.z0
    limit = z0 + abs(singular_drift(z0, params)) * grid.horizon_t + 2.0 * sup_m
    return int(np.sum(z_max > limit + _BOUND_SLACK))


def _bound_violations(params: CirParams, grid: GridSpec, increments: np.ndarray, z: np.ndarray) -> int:
    """Count rows of ``z`` that pierce the pathwise envelope."""
    sup_m = np.abs(np.cumsum(increments, axis=1)).max(axis=1)
    return _envelope_violations(params, grid, sup_m, z.max(axis=1))


class _Sweep(NamedTuple):
    min_z: float  # over every path and grid point, z0 included
    bound_violations: int
    z_at: np.ndarray  # each path's state at the requested grid point


def _sweep(params: CirParams, spec: MixedSpec, grid: GridSpec, seeds: Sequence[int], index: int) -> _Sweep:
    """Run the scheme over the ensemble of ``seeds``, one chunk of paths at a time.

    Each chunk's increments are drawn, transposed to step-major rows and
    stepped in place by :func:`~mfcir.scheme.implicit_steps`; then the
    chunk is folded into the reductions and dropped.  Every reduction is
    elementwise or a min/max, so the results equal those of the whole
    (paths, n + 1) state matrix bit for bit, whatever the chunk size.
    """
    n = grid.steps_n
    rows = min(_SWEEP_ROWS, max(1, _SWEEP_CELLS // n))
    z0 = params.z0
    min_z = z0
    violations = 0
    z_at = np.full(len(seeds), z0)
    for lo in range(0, len(seeds), rows):
        inc = ensemble_increments(spec, grid, seeds[lo : lo + rows])
        z = np.empty((n, len(inc)))  # step-major; inc is reused below
        for b in range(0, len(inc), 64):  # transposed in blocks, to stay in cache
            z[:, b : b + 64] = inc[b : b + 64].T
        implicit_steps(params, grid.dt, z)  # row j now holds z_{j+1}
        np.cumsum(inc, axis=1, out=inc)
        sup_m = np.abs(inc, out=inc).max(axis=1)
        violations += _envelope_violations(params, grid, sup_m, np.maximum(z.max(axis=0), z0))
        min_z = min(min_z, float(z.min()))
        if index > 0:
            z_at[lo : lo + len(inc)] = z[index - 1]
    return _Sweep(min_z, violations, z_at)


@dataclass(frozen=True, eq=False)
class PositivityReport:
    """Outcome of a minimum-of-the-rate audit over an ensemble."""

    params: CirParams
    grid: GridSpec
    n_paths: int
    min_z: float
    min_r: float
    feller_ok: bool
    bound_violations: int


def run_positivity(
    params: CirParams,
    spec: MixedSpec,
    grid: GridSpec,
    n_paths: int,
    master_seed: int,
) -> PositivityReport:
    """Simulate an ensemble and record the smallest state reached.

    Runs for any ``m > -1/2``, Feller or not; ``feller_ok`` records which
    regime was audited.  ``min_r`` is the transform of ``min_z``, so the
    two minima always agree.
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    sweep = _sweep(params, spec, grid, _path_seeds(master_seed, n_paths), grid.steps_n)
    return PositivityReport(
        params=params,
        grid=grid,
        n_paths=n_paths,
        min_z=sweep.min_z,
        min_r=z_to_r(sweep.min_z, params.sigma),
        feller_ok=params.feller_ok,
        bound_violations=sweep.bound_violations,
    )


@dataclass(frozen=True, eq=False)
class ConvergenceReport:
    """Self-convergence study against a common fine reference grid."""

    n_list: tuple[int, ...]
    sup_errors: tuple[float, ...]  # medians across seeds, aligned with n_list
    fitted_order: float
    fit_r2: float
    n_ref: int
    seeds_used: tuple[int, ...]
    errors_per_seed: np.ndarray  # shape (len(seeds_used), len(n_list))
    bound_violations: int
    fit_note: str = ""


def _sup_errors_for_noise(
    params: CirParams, coupled: CoupledNoise, n_list: Sequence[int]
) -> tuple[np.ndarray, int]:
    """Sup distance between each coarse solution and the fine one, per n.

    Both solutions are compared at every reference grid point, with the
    coarse solution extended there by its piecewise-linear interpolation
    (the convention under which the scheme is defined for all t), so the
    sup captures the within-interval oscillation of the driver and not
    only the mismatch at the coarse nodes.
    """
    ref = simulate_z(params, coupled.fine)
    fine_times = coupled.fine.grid.times
    violations = _bound_violations(
        params, coupled.fine.grid, coupled.fine.increments[None, :], ref.z_values[None, :]
    )
    errors = np.empty(len(n_list))
    for i, n in enumerate(n_list):
        view = coupled.coarse_views[n]
        traj = simulate_z(params, view)
        violations += _bound_violations(
            params, view.grid, view.increments[None, :], traj.z_values[None, :]
        )
        on_fine = np.interp(fine_times, view.grid.times, traj.z_values)
        errors[i] = np.max(np.abs(on_fine - ref.z_values))
    return errors, violations


def _fit_order(n_list: Sequence[int], medians: np.ndarray) -> tuple[float, float, str]:
    """Least-squares slope of log error against log n, as a positive order."""
    mask = medians > 0.0
    note = ""
    if not np.all(mask):
        dropped = [int(n) for n, keep in zip(n_list, mask) if not keep]
        note = f"zero median errors at n = {dropped} excluded from the fit"
    if np.count_nonzero(mask) < 2:
        return math.nan, math.nan, note or "fewer than two positive medians; no fit"
    x = np.log(np.asarray(n_list, dtype=np.float64)[mask])
    y = np.log(medians[mask])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    total = y - y.mean()
    ss_tot = float(np.dot(total, total))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.dot(resid, resid)) / ss_tot
    return float(-slope), r2, note


def run_convergence(
    params: CirParams,
    spec: MixedSpec,
    horizon_t: float,
    n_list: Sequence[int],
    n_ref: int,
    seeds: Sequence[int],
) -> ConvergenceReport:
    """Estimate the scheme's self-convergence order on coupled grids.

    For each seed one fine driver path at ``n_ref`` steps is restricted to
    every grid in ``n_list``; the scheme runs on all of them and the sup
    difference to the fine solution is taken over shared grid points.  The
    order is fitted on medians across seeds.  Requires the Feller regime
    (the study targets the positive-rate setting) and ``n_ref`` at least
    8 times the largest requested grid so the reference is meaningfully
    finer.
    """
    if not params.feller_ok:
        raise ValueError(
            "convergence study requires the Feller regime 2 k theta > sigma^2"
        )
    if len(seeds) < 1:
        raise ValueError("at least one seed is required")
    n_list = [int(n) for n in n_list]
    if len(n_list) < 1:
        raise ValueError("n_list must not be empty")
    if len(set(n_list)) != len(n_list):
        raise ValueError(f"n_list contains duplicates: {n_list}")
    n_list = sorted(n_list)
    if n_ref < 8 * n_list[-1]:
        raise ValueError(
            f"n_ref {n_ref} is below 8 * max(n_list) = {8 * n_list[-1]}"
        )
    errors = np.empty((len(seeds), len(n_list)))
    violations = 0
    for row, seed in enumerate(seeds):
        coupled = derive_coupled(spec, horizon_t, n_ref, n_list, seed)
        errors[row], v = _sup_errors_for_noise(params, coupled, n_list)
        violations += v
    medians = np.median(errors, axis=0)
    order, r2, note = _fit_order(n_list, medians)
    return ConvergenceReport(
        n_list=tuple(n_list),
        sup_errors=tuple(float(e) for e in medians),
        fitted_order=order,
        fit_r2=r2,
        n_ref=int(n_ref),
        seeds_used=tuple(int(s) for s in seeds),
        errors_per_seed=errors,
        bound_violations=violations,
        fit_note=note,
    )


@dataclass(frozen=True)
class McStats:
    """Monte Carlo location statistics of the rate at one time point.

    ``t_used`` is the grid time actually evaluated, the grid point nearest
    ``t_eval``; ``bound_violations`` counts paths that pierce the envelope.
    """

    t_eval: float
    sample_mean: float
    sample_se: float
    n_paths: int
    closed_form_mean: float | None
    t_used: float
    bound_violations: int


def run_mc_stats(
    params: CirParams,
    spec: MixedSpec,
    grid: GridSpec,
    t_eval: float,
    n_paths: int,
    master_seed: int,
) -> McStats:
    """Sample mean and standard error of r at the grid point nearest t_eval.

    When the fractional weight is zero the driver is a standard Brownian
    motion and the classical expectation
    ``theta + (r0 - theta) * exp(-k t)`` is attached for comparison
    (evaluated at the grid time actually used); otherwise
    ``closed_form_mean`` is None.
    """
    if not 0.0 < t_eval <= grid.horizon_t:
        raise ValueError(f"t_eval must lie in (0, {grid.horizon_t}], got {t_eval}")
    if n_paths < 2:
        raise ValueError(f"n_paths must be >= 2 for a standard error, got {n_paths}")
    index = int(round(t_eval / grid.dt))
    index = min(max(index, 0), grid.steps_n)
    sweep = _sweep(params, spec, grid, _path_seeds(master_seed, n_paths), index)
    r_at = (params.sigma * sweep.z_at / 2.0) ** 2
    mean = float(r_at.mean())
    se = float(r_at.std(ddof=1) / math.sqrt(n_paths))
    t_used = index * grid.dt
    closed = None
    if spec.weight_fbm == 0.0:
        closed = params.theta + (params.r0 - params.theta) * math.exp(-params.k * t_used)
    return McStats(
        t_eval=float(t_eval),
        sample_mean=mean,
        sample_se=se,
        n_paths=n_paths,
        closed_form_mean=closed,
        t_used=t_used,
        bound_violations=sweep.bound_violations,
    )


def run_bracket(
    spec: MixedSpec,
    grid: GridSpec,
    refinements: Sequence[int],
    n_paths: int,
    master_seed: int,
) -> list[BracketEstimate]:
    """Median bracket diagnostics over an ensemble, one entry per refinement.

    The bracket recovers an almost-sure limit, so ensemble medians (not
    single paths) are the meaningful summary; with ``n_paths = 1`` the
    medians reduce to the single path's values.
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    refinements = [int(r) for r in refinements]
    seeds = _path_seeds(master_seed, n_paths)
    inc = ensemble_increments(spec, grid, seeds)
    paths = [
        NoisePath(grid=grid, increments=row, kind="mixed", seed=seed, hurst=spec.hurst)
        for row, seed in zip(inc, seeds)
    ]
    out = []
    for refinement in refinements:
        estimates = [discrete_ito_iterated(path, refinement) for path in paths]
        out.append(
            BracketEstimate(
                grid=estimates[0].grid,
                qv_sum=float(np.median([e.qv_sum for e in estimates])),
                iterated_correction=float(np.median([e.iterated_correction for e in estimates])),
                bracket_value=float(np.median([e.bracket_value for e in estimates])),
                refinement=refinement,
            )
        )
    return out
