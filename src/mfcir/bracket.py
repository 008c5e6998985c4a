"""Discrete quadratic variation and bracket diagnostics for driver paths.

For a path X seen on an outer grid with left-point iterated sums
``II_i = sum_j X(s_j) - X(t_i) times dX(s_j)`` accumulated on a finer
subgrid of each outer interval, the bracket estimate is

    sum_i (dX_i)^2 - 2 * II_i.

The algebraic identity (sum of increments)^2 = 2 * (left sums) + (sum of
squares), applied per outer interval, makes the estimate telescope to the
quadratic variation on the fine grid, whatever the path.  For the mixed
driver (Brownian plus an independent fractional component with hurst
above 1/2) the fine quadratic variation concentrates on t as the grid is
refined, since the fractional and cross terms vanish in the limit; the
bracket therefore recovers the Brownian clock of the mixture.  Outer
grids are split and summed by the grid rules of :mod:`mfcir.noise`.  The
arithmetic works on plain arrays (``_bracket_sums``, which the ensemble
harness calls on each drawn row); :func:`discrete_ito_iterated` wraps it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .noise import GridSpec, NoisePath, _block_sums, _split_grid

__all__ = ["BracketEstimate", "discrete_ito_iterated"]


@dataclass(frozen=True)
class BracketEstimate:
    """Bracket diagnostic of one path on an outer grid.

    ``bracket_value = qv_sum - iterated_correction`` when produced by
    :func:`discrete_ito_iterated`; ensemble summaries may hold
    componentwise medians instead, so the identity is not enforced here.
    """

    grid: GridSpec
    qv_sum: float
    iterated_correction: float
    bracket_value: float
    refinement: int


def _bracket_sums(increments: np.ndarray, values: np.ndarray, refinement: int) -> tuple[float, float, float]:
    """``(qv_sum, iterated_correction, bracket_value)`` of one path on the grid coarsened by ``refinement``.

    ``increments`` and ``values`` are the path's on the fine grid; ``refinement`` divides its step count.
    The sums of squares are einsum's, not BLAS's: BLAS splits a long dot product over its threads,
    and so its last bit depends on the thread count.
    """
    if refinement == 1:  # each outer interval is one fine step: no iterated sums
        qv_sum = float(np.einsum("i,i->", increments, increments))
        return qv_sum, 0.0, qv_sum
    n_outer = len(increments) // refinement
    outer_inc = _block_sums(increments, n_outer)
    qv_sum = float(np.einsum("i,i->", outer_inc, outer_inc))
    left = values[:-1].reshape(n_outer, refinement)
    rel = left - left[:, :1]  # path relative to the outer-interval start
    rel *= increments.reshape(n_outer, refinement)
    iterated_correction = 2.0 * float(np.sum(rel))
    return qv_sum, iterated_correction, qv_sum - iterated_correction


def discrete_ito_iterated(noise: NoisePath, refinement: int) -> BracketEstimate:
    """Bracket estimate of ``noise`` on the grid coarsened by ``refinement``.

    The input grid plays the role of the fine grid: each outer interval
    covers ``refinement`` consecutive fine steps, over which the
    left-point iterated sums are accumulated.  ``refinement = 1`` has no
    inner structure, so the correction is zero and the bracket equals the
    plain quadratic variation.
    """
    n_outer = _split_grid(noise.grid.steps_n, refinement, "refinement", "steps_n")
    sums = _bracket_sums(noise.increments, noise.path_values(), int(refinement))
    return BracketEstimate(GridSpec(noise.grid.horizon_t, n_outer), *sums, refinement=int(refinement))
