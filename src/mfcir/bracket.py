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

from .noise import GridSpec, NoisePath, _block_sums, _path_values, _split_grid

__all__ = [
    "BracketEstimate",
    "discrete_ito_iterated",
    "ito_formula_residual",
    "quadratic_variation",
]


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


def quadratic_variation(noise: NoisePath) -> float:
    """Sum of squared increments of the path on its own grid."""
    inc = noise.increments
    return float(np.dot(inc, inc))


def _bracket_sums(increments: np.ndarray, values: np.ndarray, refinement: int) -> tuple[float, float, float]:
    """``(qv_sum, iterated_correction, bracket_value)`` of one path on the grid coarsened by ``refinement``.

    ``increments`` and ``values`` are the path's on the fine grid; ``refinement`` divides its step count.
    """
    n_outer = len(increments) // refinement
    outer_inc = _block_sums(increments, n_outer)
    qv_sum = float(np.dot(outer_inc, outer_inc))
    left = values[:-1].reshape(n_outer, refinement)
    rel = left - left[:, :1]  # path relative to the outer-interval start
    iterated_correction = 2.0 * float(np.sum(rel * increments.reshape(n_outer, refinement)))
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


def _square(x):
    return x * x


def _two_x(x):
    return 2.0 * x


def _two(x):
    return 2.0


def ito_formula_residual(noise: NoisePath, refinement: int = 1, f=None, df=None, d2f=None) -> float:
    """Defect of the second-order chain rule along the coarsened path.

    Returns ``|f(X_T) - f(X_0) - sum df(X_left) dX - 1/2 sum d2f(X_left)
    (dX)^2|`` on the grid obtained by merging ``refinement`` consecutive
    steps.  The default triple is f(x) = x^2, for which the identity is
    exact on any grid and the residual is pure rounding noise.  Custom
    ``(f, df, d2f)`` must be supplied together and accept ndarrays; for a
    smooth f the residual shrinks with the mesh at the driver's regularity.
    """
    supplied = (f is not None, df is not None, d2f is not None)
    if any(supplied) and not all(supplied):
        raise ValueError("f, df and d2f must be supplied together")
    if f is None:
        f, df, d2f = _square, _two_x, _two
    n_outer = _split_grid(noise.grid.steps_n, refinement, "refinement", "steps_n")
    outer_inc = _block_sums(noise.increments, n_outer)
    values = _path_values(outer_inc)
    left = values[:-1]
    riemann = float(np.sum(df(left) * outer_inc))
    quad = 0.5 * float(np.sum(d2f(left) * outer_inc * outer_inc))
    return float(abs(float(f(values[-1])) - float(f(values[0])) - riemann - quad))
