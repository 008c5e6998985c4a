"""Drift-implicit Euler scheme for a square-root short-rate model.

The rate r is simulated through its square-root transform
``z = (2 / sigma) * sqrt(r)``, which satisfies an SDE with additive noise
and the singular drift ``b(z) = (m + 1/2) / z - (k / 2) * z`` where
``m = (2 k theta - sigma^2) / sigma^2``.  One implicit Euler step

    z_next = z_prev + b(z_next) * dt + dm

reduces to the positive root of a quadratic, so every step has a closed
form and stays strictly positive whenever ``m > -1/2``.  Positivity of z
for every path and every step size is the point of the construction; it
holds as long as the driver has continuous paths, with no condition on
the step size.

Each rule of the step has one home: ``_root_coefficients`` (the
quadratic and its domain ``m > -1/2``), ``_scalar_steps`` and
:func:`implicit_steps` (the root, in scalar and array form, bit for bit
alike, from the caller's start state; ``mfcir.experiments._step`` picks
one by the width of a chunk of paths), :func:`simulate_z_batch` and
``_put_columns`` (a batch's layout) and :func:`z_to_r`, which
:class:`Trajectory` and the CLI's emitter apply to derive a path's rates
from its states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .noise import GridSpec, NoisePath

__all__ = [
    "CirParams",
    "Trajectory",
    "implicit_steps",
    "r_to_z",
    "simulate_z",
    "simulate_z_batch",
    "singular_drift",
    "z_to_r",
]


@dataclass(frozen=True)
class CirParams:
    """Model parameters: speed k, level theta, volatility sigma, start r0.

    ``m``, derived as ``(2 k theta - sigma^2) / sigma^2``, must be finite;
    the scheme is well defined for ``m > -1/2``, and ``feller_ok`` flags
    the stronger ``m > 0`` (equivalently ``2 k theta > sigma^2``) under
    which the exact rate never touches zero.
    """

    k: float
    theta: float
    sigma: float
    r0: float
    m: float = field(init=False)

    def __post_init__(self):
        for name in ("k", "theta", "sigma", "r0"):
            value = float(getattr(self, name))
            object.__setattr__(self, name, value)
            if not np.isfinite(value) or value <= 0.0:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        sig2 = self.sigma * self.sigma
        m = (2.0 * self.k * self.theta - sig2) / sig2 if sig2 > 0.0 else math.nan
        if not math.isfinite(m):
            raise ValueError(f"m = (2 k theta - sigma^2) / sigma^2 is not finite for k = {self.k}, "
                             f"theta = {self.theta} and sigma = {self.sigma}")
        object.__setattr__(self, "m", m)

    @property
    def feller_ok(self) -> bool:
        return self.m > 0.0

    @property
    def z0(self) -> float:
        """Transformed initial state (2 / sigma) * sqrt(r0)."""
        return r_to_z(self.r0, self.sigma)


def z_to_r(z: float | np.ndarray, sigma: float) -> float | np.ndarray:
    """Invert the square-root transform of a state or an array: r = (sigma * z / 2)**2."""
    if np.min(z) < 0.0:
        raise ValueError(f"z must be >= 0, got {np.min(z)}")
    return (sigma * z / 2.0) ** 2


def r_to_z(r: float, sigma: float) -> float:
    """Square-root transform z = (2 / sigma) * sqrt(r)."""
    if r < 0.0:
        raise ValueError(f"r must be >= 0, got {r}")
    return 2.0 / sigma * math.sqrt(r)


def singular_drift(z: float, params: CirParams) -> float:
    """Drift of the transformed state, b(z) = (m + 1/2) / z - (k / 2) z.

    Defined for z > 0 only; the 1/z term is what keeps the implicit
    scheme away from zero.
    """
    if z <= 0.0:
        raise ValueError(f"singular_drift requires z > 0, got {z}")
    return (params.m + 0.5) / z - 0.5 * params.k * z


def _require_in_range(z_min: float, z_max: float, sigma: float) -> None:
    """Raise unless the states from ``z_min`` to ``z_max`` are positive and their rates finite.

    A state of 0, inf or nan means c * c left the float range inside the
    step, which then returns 2d / inf = 0 or inf / 2a; a finite z can
    still give an infinite rate.  The rate is :func:`z_to_r`'s, in Python
    floats, whose ``*`` overflows to inf without a warning.
    """
    half = sigma * float(z_max) / 2.0
    if not (z_min > 0.0 and math.isfinite(half * half)):
        raise ValueError("a state left the positive finite range: the implicit step overflowed "
                         "(driver increments too large)")


def _root_coefficients(params: CirParams, dt: float) -> tuple[float, float, float]:
    # 2a, 2d and 4ad of the step quadratic a z^2 - c z - d = 0, shared by
    # every form of the step so that they agree bit for bit.  The step's
    # domain m > -1/2, that is d > 0, is checked here for all of them.
    if not params.m > -0.5:
        raise ValueError(
            f"implicit step requires m > -1/2, got m = {params.m} "
            "(increase k * theta or decrease sigma)"
        )
    a = 1.0 + 0.5 * params.k * dt
    d = (params.m + 0.5) * dt
    return 2.0 * a, 2.0 * d, 4.0 * a * d


def _scalar_steps(params: CirParams, dt: float, z: float, increments: Iterable[float]) -> list[float]:
    """States of one path from ``z`` through ``increments``, ``z`` first: the root in scalar form.

    ``increments`` is any iterable of floats: a list, or the ``memoryview``
    of a float64 row or strided column, whose doubles it then reads in place.

    With ``a = 1 + k dt / 2``, ``c = z_prev + dm`` and ``d = (m + 1/2) dt``
    each step is the positive root ``(c + sqrt(c^2 + 4 a d)) / (2 a)`` of
    ``a z^2 - c z - d = 0``, evaluated in the branch that avoids
    cancellation, so it is strictly positive for every finite ``dm``.
    """
    two_a, two_d, four_ad = _root_coefficients(params, dt)
    out = [z]
    append = out.append
    sqrt = math.sqrt
    for dm in increments:
        c = z + dm
        disc = sqrt(c * c + four_ad)
        z = (c + disc) / two_a if c >= 0.0 else two_d / (disc - c)
        append(z)
    return out


def implicit_steps(params: CirParams, dt: float, z: np.ndarray) -> None:
    """Run the implicit scheme over a step-major matrix, in place, from the states in its row 0.

    ``z`` has shape (steps + 1, paths), each row contiguous: on entry row 0
    holds every path's start state and row j its driver increment of step
    j, on exit its state z_j, so a path can be stepped in segments.  The
    arithmetic is that of ``_scalar_steps``, so each path matches
    :func:`simulate_z` bit for bit.  Scratch is three rows, whatever the number of steps.
    """
    two_a, two_d, four_ad = _root_coefficients(params, dt)
    two_a, four_ad = np.float64(two_a), np.float64(four_ad)  # a ufunc converts a Python float on every call
    width = z.shape[1]
    c = np.empty(width)
    disc = np.empty(width)
    neg = np.empty(width, dtype=bool)
    # An overflowing c * c leaves a state of 0, inf or nan, which the
    # callers reject through _require_in_range; numpy need not warn too.
    with np.errstate(over="ignore", invalid="ignore"):
        for prev, row in zip(z[:-1], z[1:]):
            np.add(prev, row, out=c)
            np.multiply(c, c, out=disc)
            np.add(disc, four_ad, out=disc)
            np.sqrt(disc, out=disc)
            np.add(c, disc, out=row)
            np.divide(row, two_a, out=row)
            # The mask is built only on steps with some c < 0.  A NaN in c
            # enters too and then changes nothing; the initial value lets a
            # batch of zero paths through.
            if not np.minimum.reduce(c, initial=np.inf) >= 0.0:
                np.less(c, 0.0, out=neg)
                row[neg] = two_d / (disc[neg] - c[neg])


@dataclass(frozen=True, eq=False)
class Trajectory:
    """One simulated path of the transformed state and of the rate.

    ``z_values`` has length ``grid.steps_n + 1``; ``r_values`` is derived
    from it pointwise by :func:`z_to_r`.
    """

    grid: GridSpec
    z_values: np.ndarray
    params: CirParams
    seed: int
    r_values: np.ndarray = field(init=False)

    def __post_init__(self):
        z = np.array(self.z_values, dtype=np.float64, copy=True)
        n = self.grid.steps_n
        if z.shape != (n + 1,):
            raise ValueError(f"z_values must have shape ({n + 1},), got {z.shape}")
        _require_in_range(z.min(), z.max(), self.params.sigma)
        if z[0] != self.params.z0:
            raise ValueError("z_values[0] does not match the transformed r0")
        r = z_to_r(z, self.params.sigma)  # finite: checked above
        z.setflags(write=False)
        r.setflags(write=False)
        object.__setattr__(self, "z_values", z)
        object.__setattr__(self, "r_values", r)


def simulate_z(params: CirParams, noise: NoisePath) -> Trajectory:
    """Run the implicit scheme along one driver path.

    Steps from ``z0 = (2 / sigma) sqrt(r0)`` through ``_scalar_steps``,
    which on one path beats the array kernel :func:`implicit_steps`.  The
    path is strictly positive whatever the Feller margin, as long as
    ``m > -1/2``.
    """
    z = _scalar_steps(params, noise.grid.dt, params.z0, noise.increments.tolist())
    return Trajectory(grid=noise.grid, z_values=z, params=params, seed=noise.seed)


def simulate_z_batch(params: CirParams, grid: GridSpec, increments: np.ndarray) -> np.ndarray:
    """Implicit scheme over a batch of driver paths.

    ``increments`` has shape (paths, grid.steps_n); the result has shape
    (paths, grid.steps_n + 1) and matches path-by-path what
    :func:`simulate_z` produces, bit for bit.  It is the transpose of the
    step-major matrix, z0 in row 0, that :func:`implicit_steps` fills.
    """
    inc = np.asarray(increments, dtype=np.float64)
    if inc.ndim != 2 or inc.shape[1] != grid.steps_n:
        raise ValueError(f"increments must have shape (paths, {grid.steps_n})")
    z = np.empty((grid.steps_n + 1, len(inc)))
    z[0] = params.z0
    _put_columns(z[1:], inc)
    implicit_steps(params, grid.dt, z)
    return z.T


def _put_columns(columns: np.ndarray, rows: np.ndarray) -> None:
    """Write path-major ``rows`` (paths, steps) into step-major ``columns`` (steps, paths).

    The transpose goes in strips of 64 paths, to stay in cache.
    """
    for b in range(0, len(rows), 64):
        columns[:, b : b + 64] = rows[b : b + 64].T
