"""Ensemble harnesses: positivity audits, self-convergence, MC statistics.

Each run* function is a pure function of its arguments.  An ensemble is
named by ``(n_paths, master_seed)``: path i's seed is
:func:`mfcir.noise.substream_seed` of the master seed and i, and
``mfcir.mixed._increment_blocks`` turns the seeds into increments, so
reruns reproduce results exactly.

``_chunks`` is the one ensemble entry and ``_step`` the one stepper, for
every harness and the CLI's ``simulate``: ``_chunks`` checks both names,
then yields the ensemble one chunk of paths at a time, deriving a chunk's
seeds (``mfcir.noise._path_seeds``) when it is reached.  ``_stepped_chunks``
(the harnesses) and ``_stepped_paths`` (``simulate``) draw a chunk's
increments a block of rows at a time and transpose each block into the
columns of their step-major states (after block sums onto every coarse grid,
for convergence); bracket estimates the rows of ``_increment_blocks``.  Each
harness keeps per path only what its summary needs, and no (paths, n)
increment matrix is held.  The grid rules come from :mod:`mfcir.noise`.

Every simulated trajectory of an ensemble or convergence run is also
checked against the a priori envelope

    z <= z0 + |b(z0)| * T + 2 * sup |M|  (+ 1e-9 slack),

which the implicit scheme satisfies pathwise; reports carry the number of
violations, expected to be zero always.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

# build_mixed, discrete_ito_iterated, simulate_z_batch and substream_seed
# are not called here; perfbench/spans.py wraps them by these names.
from .bracket import BracketEstimate, _bracket_sums, discrete_ito_iterated  # noqa: F401
from .mixed import MixedSpec, _increment_blocks, build_mixed  # noqa: F401
from .noise import _MASK64, GridSpec, _block_sums, _path_seeds, _path_values, _require_integer, _split_grid
from .noise import substream_seed  # noqa: F401
from .scheme import (  # noqa: F401
    _require_in_range,
    _scalar_steps,
    CirParams,
    implicit_steps,
    simulate_z_batch,
    singular_drift,
    z_to_r,
)

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


# A chunk of the ensemble holds at most _SWEEP_ROWS paths, and fewer on
# long grids, so that its step-major states hold at most about
# _SWEEP_CELLS values (32 MB); below about a thousand paths per chunk the
# per-step ufunc overhead of the sweep starts to dominate.  Wider chunks
# were measured and declined: see CHANGES.md.
_SWEEP_ROWS = 1024
_SWEEP_CELLS = 2**22

# _step steps a chunk of _SCALAR_WIDTH paths or more by the array kernel,
# about eight ufunc calls a step whatever the width: 8.3 us a path step at
# width 1, 0.69 at 8, 0.26-0.37 at 24 and 0.13-0.20 at 48, against 0.15-0.25
# us for the scalar root at any width (n = 1024 to 16384; 2-core x86-64 box,
# numpy 2.4.6).  A narrower chunk takes one call of the scalar root, which
# steps it in place, a column at a time.  A wide chunk's sup |M| comes from
# running sums into a ring of _RING_ROWS rows, folded with max and -min each
# time it fills: against a cumsum (n = 1024) they take 0.47 of the time at
# 1024 paths and 0.77 at 512, but 2.0 at 128; rings of 16 or 256 rows took
# 1.2 times as long.  _RING_ROWS also sets the segments that the array kernel
# steps.
_SCALAR_WIDTH = 32
_RING_ROWS = 64

# simulate's draw block budget in bytes (mixed._block_rows): one row at n = 4096.  With the
# harnesses' 2**19 (4-row blocks), --preset figure1 --paths 25 peaked at 37.25-37.37 MB, against
# 36.70-36.82 MB (6 fresh processes each), but --n 100 --paths 2000 ran in 219-251 ms, against 286-315.
_SIMULATE_BLOCK_BYTES = 2**15


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


def _chunks(grid: GridSpec, n_paths: int, master_seed: int) -> Iterator[tuple[int, np.ndarray]]:
    """Lazy ``(lo, seeds)`` chunks of the ensemble on ``grid``, the widest first; both names are checked now."""
    n_paths = _require_integer("n_paths", n_paths)
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    master_seed = operator.index(master_seed) & _MASK64  # a TypeError unless it is an integer
    rows = min(_SWEEP_ROWS, max(1, _SWEEP_CELLS // grid.steps_n))
    return ((lo, _path_seeds(master_seed, lo, min(lo + rows, n_paths))) for lo in range(0, n_paths, rows))


def _envelope_violations(params: CirParams, grid: GridSpec, sup_m: np.ndarray, z_max: np.ndarray) -> int:
    """Count paths whose running max of z pierces the pathwise envelope."""
    z0 = params.z0
    limit = z0 + abs(singular_drift(z0, params)) * grid.horizon_t + 2.0 * sup_m
    return int(np.sum(z_max > limit + _BOUND_SLACK))


def _step(params: CirParams, grid: GridSpec, z: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Step the paths in the columns of ``z`` (n + 1, width) in place, by the kernel that suits its width.

    Column i holds z0 in row 0, then path i's increments, which are turned
    into its states, bit for bit as :func:`~mfcir.scheme.simulate_z`.  A chunk
    narrower than _SCALAR_WIDTH takes each path's sup |M| from a cumsum, into
    one buffer that every path reuses, then one ``_scalar_steps`` call.  A
    wider one takes the rows a segment of _RING_ROWS at a time: each path's
    sup |M| runs through the partial sums of the segment's increments, in a
    ring, in the order of a cumsum, so it is the same bit for bit; then the
    segment is stepped and folded into each path's max and min.  numpy's
    reductions keep an overflowed (nan) state, so numpy need not warn.
    Returns the minimum state, each path's max state and each path's sup |M|.
    """
    n, width = len(z) - 1, z.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        if width < _SCALAR_WIDTH:
            sup_m, sums = np.empty(width), np.empty(n)
            for i, column in enumerate(z.T):
                np.cumsum(column[1:], out=sums)
                sup_m[i] = np.abs(sums, out=sums).max()
            _scalar_steps(params, grid.dt, z)
            return float(z.min()), z.max(axis=0), sup_m
        ring = np.empty((min(_RING_ROWS, n), width))  # allocated once the chunk's block buffers are gone
        high, low = np.full(width, -np.inf), np.full(width, np.inf)
        z_max, z_min = np.full(width, -np.inf), np.full(width, np.inf)
        total = 0.0
        for at in range(1, n + 1, len(ring)):
            rows = ring[: n + 1 - at]
            for row, inc in zip(rows, z[at:]):
                total = np.add(total, inc, out=row)
            np.maximum(high, rows.max(axis=0), out=high)
            np.minimum(low, rows.min(axis=0), out=low)
            segment = z[at - 1 : at + len(rows)]  # the previous state, then the segment's increments
            implicit_steps(params, grid.dt, segment)
            np.maximum(z_max, segment.max(axis=0), out=z_max)
            np.minimum(z_min, segment.min(axis=0), out=z_min)
    return float(z_min.min()), z_max, np.maximum(high, np.negative(low, out=low), out=high)


def _stepped_chunks(
    params: CirParams, spec: MixedSpec, grids: Sequence[GridSpec], chunks: Iterator[tuple[int, np.ndarray]]
) -> Iterator[tuple[int, list[tuple[np.ndarray, float, int]]]]:
    """Run the scheme over the ensemble's ``chunks`` (``_chunks`` on ``grids[0]``) on ``grids``.

    Each grid has one step-major (n + 1, width) buffer, sized by the first
    (widest) chunk and reused.  The driver is drawn on ``grids[0]`` block by
    block into its buffer's columns, and each block's exact block sums into
    the others'.  Yields ``(lo, steps)`` per chunk, where ``steps[g]`` is the
    chunk's columns of ``grids[g]``, stepped by :func:`_step` (the next chunk
    overwrites them), their minimum and the number of paths that pierce the
    envelope; overflowed states are rejected.  Every reduction of the states
    is elementwise or a min/max, so the results equal those of the whole
    (paths, n + 1) state matrix bit for bit, whatever the chunk size.
    """
    states = []
    for lo, chunk in chunks:
        if not states:
            states = [np.empty((grid.steps_n + 1, len(chunk))) for grid in grids]
            for z in states:
                z[0] = params.z0
        for at, block in _increment_blocks(spec, grids[0], chunk):
            for grid, z in zip(grids[1:], states[1:]):
                z[1:, at : at + len(block)] = _block_sums(block, grid.steps_n).T
            states[0][1:, at : at + len(block)] = block.T
        del block  # the chunk's last block, freed before its states are stepped and the next chunk is drawn
        steps = []
        for grid, z in zip(grids, states):
            z = z[:, : len(chunk)]
            z_min, z_max, sup_m = _step(params, grid, z)
            _require_in_range(z_min, z_max.max(), params.sigma)
            steps.append((z, z_min, _envelope_violations(params, grid, sup_m, z_max)))
        yield lo, steps


def _stepped_paths(
    params: CirParams, spec: MixedSpec, grid: GridSpec, n_paths: int, master_seed: int
) -> Iterator[np.ndarray]:
    """Lazily, each path's n + 1 states on ``grid``, z0 first, as a view that the next draw block overwrites.

    Each block of ``_SIMULATE_BLOCK_BYTES`` is stepped by :func:`_step` in one
    step-major buffer, sized by the first (widest) block; the caller rejects overflowed states.
    """
    z = None
    for _, chunk in _chunks(grid, n_paths, master_seed):
        for _, block in _increment_blocks(spec, grid, chunk, _SIMULATE_BLOCK_BYTES):
            if z is None:  # sized by the first block, the widest
                z = np.empty((grid.steps_n + 1, len(block)))
                z[0] = params.z0
            states = z[:, : len(block)]
            states[1:] = block.T
            _step(params, grid, states)
            yield from states.T
        del block  # chunk k's buffer is freed before chunk k + 1 is drawn


@dataclass(frozen=True, eq=False)
class PositivityReport:
    """Outcome of a minimum-of-the-rate audit over an ensemble."""

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
    chunks = _chunks(grid, n_paths, master_seed)
    min_z, violations = math.inf, 0  # min_z over every path and grid point, z0 included
    for _, [(_, chunk_min, chunk_violations)] in _stepped_chunks(params, spec, [grid], chunks):
        min_z = min(min_z, chunk_min)
        violations += chunk_violations
    return PositivityReport(
        n_paths=int(n_paths),
        min_z=min_z,
        min_r=z_to_r(min_z, params.sigma),
        feller_ok=params.feller_ok,
        bound_violations=violations,
    )


@dataclass(frozen=True, eq=False)
class ConvergenceReport:
    """Self-convergence study against a common fine reference grid."""

    n_list: tuple[int, ...]
    sup_errors: tuple[float, ...]  # medians across seeds, aligned with n_list
    fitted_order: float
    fit_r2: float
    n_ref: int
    n_paths: int
    errors_per_seed: np.ndarray  # shape (n_paths, len(n_list))
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
    # the closed-form line over centered sums: no LAPACK or BLAS call, whose rounding is the library's
    x = np.log(np.asarray(n_list, dtype=np.float64)[mask])
    y = np.log(medians[mask])
    x -= x.mean()
    y -= y.mean()
    slope = float(np.einsum("i,i->", x, y)) / float(np.einsum("i,i->", x, x))
    resid = y - slope * x
    ss_tot = float(np.einsum("i,i->", y, y))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.einsum("i,i->", resid, resid)) / ss_tot
    return -slope, r2, note


def run_convergence(
    params: CirParams,
    spec: MixedSpec,
    horizon_t: float,
    n_list: Sequence[int],
    n_ref: int,
    n_paths: int,
    master_seed: int,
) -> ConvergenceReport:
    """Estimate the scheme's self-convergence order on coupled grids.

    For each path of the ensemble ``(n_paths, master_seed)`` one fine
    driver path at ``n_ref`` steps is block-summed onto every grid in
    ``n_list`` (``mfcir.noise._block_sums`` of each block of paths that
    ``mfcir.mixed._increment_blocks`` draws); the scheme runs on all of
    them, one chunk of paths at a time.  Each coarse solution is
    extended to every reference grid point by linear interpolation (the
    convention under which the scheme is defined for all t), so the sup
    distance to the fine solution also sees the driver's oscillation within
    coarse intervals.  The order is fitted on medians across seeds.
    Requires the Feller regime (the study targets the positive-rate
    setting) and ``n_ref`` at least 8 times the largest requested grid so
    the reference is meaningfully finer.
    """
    if not params.feller_ok:
        raise ValueError(
            "convergence study requires the Feller regime 2 k theta > sigma^2"
        )
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
    chunks = _chunks(fine_grid, n_paths, master_seed)
    for n in n_list:
        _split_grid(n_ref, n, "coarse step count", "n_fine")
    grids = [GridSpec(horizon_t=horizon_t, steps_n=n) for n in n_list]
    fine_times = fine_grid.times

    errors = np.empty((n_paths, len(n_list)))
    violations = 0
    for lo, [(ref, _, v), *coarse] in _stepped_chunks(params, spec, [fine_grid, *grids], chunks):
        violations += v
        for col, (grid, (z, _, v)) in enumerate(zip(grids, coarse)):
            violations += v
            times = grid.times
            for row in range(z.shape[1]):
                errors[lo + row, col] = np.max(np.abs(np.interp(fine_times, times, z[:, row]) - ref[:, row]))
    medians = _median(errors)
    order, r2, note = _fit_order(n_list, medians)
    return ConvergenceReport(
        n_list=tuple(n_list),
        sup_errors=tuple(float(e) for e in medians),
        fitted_order=order,
        fit_r2=r2,
        n_ref=int(n_ref),
        n_paths=int(n_paths),
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
    chunks = _chunks(grid, n_paths, master_seed)
    if n_paths < 2:
        raise ValueError(f"n_paths must be >= 2 for a standard error, got {n_paths}")
    # >= 0, since 0 < t_eval; past n only if dt is subnormal (T = 4 * 5e-324, n = 3 gives 4)
    index = min(int(round(t_eval / grid.dt)), grid.steps_n)
    z_at = np.empty(n_paths)  # each path's state at that grid point: the moments sum them in path order
    violations = 0
    for lo, [(z, _, chunk_violations)] in _stepped_chunks(params, spec, [grid], chunks):
        violations += chunk_violations
        z_at[lo : lo + z.shape[1]] = z[index]
    r_at = z_to_r(z_at, params.sigma)
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
        n_paths=int(n_paths),
        closed_form_mean=closed,
        t_used=t_used,
        bound_violations=violations,
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
    divide ``grid.steps_n``; that is checked before any path is drawn.  Each
    block of paths is estimated row by row as it is drawn, and only each
    path's three sums per refinement are kept, for the medians.
    """
    chunks = _chunks(grid, n_paths, master_seed)
    refinements = list(refinements)
    if not refinements:
        raise ValueError("refinements must not be empty")
    # _split_grid rejects a refinement that is not an integer or not a divisor
    grids = [GridSpec(grid.horizon_t, _split_grid(grid.steps_n, r, "refinement", "steps_n")) for r in refinements]
    values = np.empty(grid.steps_n + 1)  # one path's values, in a buffer shared by every path
    sums = np.empty((n_paths, len(refinements), 3))  # in BracketEstimate's field order
    with np.errstate(over="ignore", invalid="ignore"):  # overflowed sums are rejected below
        for lo, chunk in chunks:
            for at, block in _increment_blocks(spec, grid, chunk):
                for i, row in enumerate(block, lo + at):
                    _path_values(row, out=values)
                    sums[i] = [_bracket_sums(row, values, r) for r in refinements]
            del block, row  # views of the chunk's last block, freed before the next chunk is drawn
    if not np.isfinite(sums).all():  # inf or nan if a sum overflowed
        raise ValueError("the bracket sums overflowed (driver increments too large)")
    return [
        BracketEstimate(outer, *medians.tolist(), refinement=int(r))
        for outer, r, medians in zip(grids, refinements, _median(sums))
    ]
