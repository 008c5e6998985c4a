"""Ensemble harnesses: positivity audits, self-convergence, MC statistics.

Each run* function is a pure function of its arguments: per-path seeds
are derived from the master seed with :func:`mfcir.noise.substream_seed`,
and :func:`mfcir.mixed.ensemble_increments` turns them into increments,
so reruns reproduce results exactly.

Every harness streams the ensemble, convergence studies included: chunks
of paths are drawn and reduced one at a time, and only per-path reductions
are kept, so memory does not grow with the number of paths.

Every simulated trajectory of an ensemble or convergence run is also
checked against the a priori envelope

    z <= z0 + |b(z0)| * T + 2 * sup |M|  (+ 1e-9 slack),

which the implicit scheme satisfies pathwise; reports carry the number of
violations, expected to be zero always.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .bracket import BracketEstimate, _split_blocks, discrete_ito_iterated
# build_mixed is not called here; perfbench/spans.py wraps it by this name.
from .mixed import MixedSpec, _block_sums, _check_divisors, build_mixed, ensemble_increments  # noqa: F401
from .noise import GridSpec, NoisePath, _require_integer, substream_seed
from .scheme import _require_in_range, CirParams, simulate_z_batch, singular_drift, z_to_r

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
    """The seeds of paths 0, ..., n_paths - 1; every ensemble has at least one."""
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    return [substream_seed(master_seed, i) for i in range(n_paths)]


# A chunk of the ensemble holds at most _SWEEP_ROWS paths, and fewer on
# long grids, so that its increments hold at most _SWEEP_CELLS values
# (32 MB); below about a thousand paths per chunk the per-step ufunc
# overhead of the sweep starts to dominate.
_SWEEP_ROWS = 1024
_SWEEP_CELLS = 2**22


def _median(a: np.ndarray) -> np.ndarray:
    """``np.median(a, axis=0)``, bit for bit, for finite ``a``.

    np.median takes the mean of the middle values, a sum that starts from
    +0.0, so -0.0 reads +0.0 here too.  It is written out because np.median
    imports numpy.ma on its first call, which costs a fresh process 10 to
    15 ms (2-core box, numpy 2.4.6).
    """
    s = np.sort(a, axis=0)
    k = len(s) // 2
    if len(s) % 2:
        return s[k] + 0.0
    return (s[k - 1] + s[k] + 0.0) / 2


def _map_chunks(spec: MixedSpec, grid: GridSpec, seeds: Sequence[int], reduce: Callable) -> list:
    """``reduce(chunk_seeds, increments)`` over the ensemble, one chunk at a time.

    Returns the results in seed order.  Nothing here refers to a chunk's
    increments once ``reduce`` returns, so the chunk is freed before the
    next one is drawn, as long as ``reduce`` keeps no view of it.
    """
    rows = min(_SWEEP_ROWS, max(1, _SWEEP_CELLS // grid.steps_n))
    chunks = (seeds[lo : lo + rows] for lo in range(0, len(seeds), rows))
    return [reduce(chunk, ensemble_increments(spec, grid, chunk)) for chunk in chunks]


def _envelope_violations(params: CirParams, grid: GridSpec, sup_m: np.ndarray, z_max: np.ndarray) -> int:
    """Count paths whose running max of z pierces the pathwise envelope."""
    z0 = params.z0
    limit = z0 + abs(singular_drift(z0, params)) * grid.horizon_t + 2.0 * sup_m
    return int(np.sum(z_max > limit + _BOUND_SLACK))


def _step_chunk(params: CirParams, grid: GridSpec, inc: np.ndarray) -> tuple[np.ndarray, float, int]:
    """Step a chunk's (paths, n) increments, overwriting them; reject overflowed states.

    Returns the states, step-major (row j holds every path's z_j, bit for
    bit as :func:`~mfcir.scheme.simulate_z`), their minimum, and the number
    of paths that pierce the envelope.
    """
    z = simulate_z_batch(params, grid, inc).T
    np.cumsum(inc, axis=1, out=inc)
    sup_m = np.abs(inc, out=inc).max(axis=1)
    z_max = z.max(axis=0)
    z_min = float(z.min())
    _require_in_range(z_min, z_max.max(), params.sigma)
    return z, z_min, _envelope_violations(params, grid, sup_m, z_max)


class _Sweep(NamedTuple):
    min_z: float  # over every path and grid point, z0 included
    bound_violations: int
    z_at: np.ndarray  # each path's state at the requested grid point


def _sweep(params: CirParams, spec: MixedSpec, grid: GridSpec, seeds: Sequence[int], index: int) -> _Sweep:
    """Run the scheme over the ensemble of ``seeds``, one chunk of paths at a time.

    Each chunk is drawn, stepped by :func:`_step_chunk`, reduced and
    dropped.  Every reduction is elementwise or a min/max, so the results
    equal those of the whole (paths, n + 1) state matrix bit for bit,
    whatever the chunk size.
    """

    def reduce(chunk, inc):
        z, z_min, violations = _step_chunk(params, grid, inc)
        return z_min, violations, z[index].copy()

    mins, violations, z_at = zip(*_map_chunks(spec, grid, seeds, reduce))
    return _Sweep(min(mins), sum(violations), np.concatenate(z_at))


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

    For each seed one fine driver path at ``n_ref`` steps is block-summed
    onto every grid in ``n_list`` (:func:`~mfcir.mixed.derive_coupled` is
    the one-seed case); the scheme runs on all of them, one chunk of seeds
    at a time.  Each coarse solution is extended to every reference grid
    point by linear interpolation (the convention under which the scheme is
    defined for all t), so the sup distance to the fine solution also sees
    the driver's oscillation within coarse intervals.  The order is fitted
    on medians across seeds.  Requires the Feller regime (the study targets
    the positive-rate setting) and ``n_ref`` at least 8 times the largest
    requested grid so the reference is meaningfully finer.
    """
    if not params.feller_ok:
        raise ValueError(
            "convergence study requires the Feller regime 2 k theta > sigma^2"
        )
    if len(seeds) < 1:
        raise ValueError("at least one seed is required")
    n_list = [_require_integer("coarse step count", n) for n in n_list]
    if len(n_list) < 1:
        raise ValueError("n_list must not be empty")
    if len(set(n_list)) != len(n_list):
        raise ValueError(f"n_list contains duplicates: {n_list}")
    n_list = sorted(n_list)
    if n_ref < 8 * n_list[-1]:
        raise ValueError(
            f"n_ref {n_ref} is below 8 * max(n_list) = {8 * n_list[-1]}"
        )
    fine_grid = GridSpec(horizon_t=horizon_t, steps_n=n_ref)
    _check_divisors(n_ref, n_list)
    grids = [GridSpec(horizon_t=horizon_t, steps_n=n) for n in n_list]
    fine_times = fine_grid.times

    def reduce(chunk, inc):
        coarse = [_block_sums(inc, n) for n in n_list]  # before _step_chunk overwrites inc
        ref, _, violations = _step_chunk(params, fine_grid, inc)
        errors = np.empty((len(inc), len(n_list)))
        for col, (grid, coarse_inc) in enumerate(zip(grids, coarse)):
            z, _, v = _step_chunk(params, grid, coarse_inc)
            violations += v
            times = grid.times
            for row in range(len(inc)):
                errors[row, col] = np.max(np.abs(np.interp(fine_times, times, z[:, row]) - ref[:, row]))
        return errors, violations

    errors, violations = zip(*_map_chunks(spec, fine_grid, seeds, reduce))
    errors = np.concatenate(errors)
    medians = _median(errors)
    order, r2, note = _fit_order(n_list, medians)
    return ConvergenceReport(
        n_list=tuple(n_list),
        sup_errors=tuple(float(e) for e in medians),
        fitted_order=order,
        fit_r2=r2,
        n_ref=int(n_ref),
        seeds_used=tuple(int(s) for s in seeds),
        errors_per_seed=errors,
        bound_violations=sum(violations),
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
    r_at = z_to_r(sweep.z_at, params.sigma)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(r_at.mean())
        se = float(r_at.std(ddof=1) / math.sqrt(n_paths))
    if not (math.isfinite(mean) and math.isfinite(se)):  # every r is finite, but their sums need not be
        raise ValueError("the sample mean or its standard error overflowed (driver increments too large)")
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
    medians reduce to the single path's values.  Every refinement must
    divide ``grid.steps_n``; that is checked before any path is drawn.  The
    paths are drawn and estimated one chunk at a time and only their sums
    are kept, so memory does not grow with the number of paths.
    """
    seeds = _path_seeds(master_seed, n_paths)
    refinements = list(refinements)
    if not refinements:
        raise ValueError("refinements must not be empty")
    # _split_blocks rejects a refinement that is not an integer or not a divisor
    grids = [GridSpec(horizon_t=grid.horizon_t, steps_n=_split_blocks(grid.steps_n, r)) for r in refinements]
    sums_of = attrgetter("qv_sum", "iterated_correction", "bracket_value")  # in BracketEstimate's field order

    values = np.empty(grid.steps_n + 1)  # one path's values, from 0 at t = 0
    values[0] = 0.0

    def estimates(path):
        np.cumsum(path.increments, out=values[1:])  # path.path_values(), into the shared buffer
        return [sums_of(discrete_ito_iterated(path, r, values=values)) for r in refinements]

    def reduce(chunk, inc):
        inc.setflags(write=False)  # so that its rows can back NoisePaths without a copy
        paths = (NoisePath._over(grid, row, "mixed", seed, spec.hurst) for row, seed in zip(inc, chunk))
        with np.errstate(over="ignore", invalid="ignore"):  # overflowed sums are rejected below
            return np.array([estimates(path) for path in paths])

    sums = np.concatenate(_map_chunks(spec, grid, seeds, reduce))  # (paths, refinements, 3)
    if not np.isfinite(sums).all():  # inf or nan if a sum overflowed
        raise ValueError("the bracket sums overflowed (driver increments too large)")
    return [
        BracketEstimate(outer, *medians.tolist(), refinement=int(r))
        for outer, r, medians in zip(grids, refinements, _median(sums))
    ]
