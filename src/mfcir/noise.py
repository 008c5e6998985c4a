"""Gaussian driver synthesis on uniform time grids.

Provides Brownian increments and exact (non-approximate) fractional
Brownian increments, reproducible from 64-bit integer seeds.  Two fBm
generators are available:

* ``sample_fbm_davies_harte`` embeds the increment covariance in a
  circulant matrix and samples through an FFT in O(n log n).  It is the
  production sampler for every grid size, and its row-wise form also
  serves the batched ensemble engine of :mod:`mfcir.mixed`.
* ``sample_fbm_cholesky`` factors the covariance of the path values and
  is the O(n^3) ground truth for small grids, kept as a cross-check
  oracle.  It is the only user of SciPy, imported on first use.

Both draw their Gaussian variates from ``numpy``'s PCG64 bit generator,
so a (seed, grid, hurst) triple always maps to the same path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

__all__ = [
    "CHOLESKY_MAX_STEPS",
    "CirculantEmbeddingError",
    "FactorizationError",
    "GridSpec",
    "NoiseError",
    "NoisePath",
    "STREAM_VERSION",
    "fbm_covariance",
    "sample_brownian_increments",
    "sample_fbm_cholesky",
    "sample_fbm_davies_harte",
    "substream_seed",
]

#: Largest grid the Cholesky generator accepts (2**11 steps).  The factor
#: costs O(n^3) time and O(n^2) memory, which stops being reasonable here.
CHOLESKY_MAX_STEPS = 2048

#: Version of the seed-to-sample mapping.  It changes whenever equal
#: (seed, grid, configuration) inputs start to produce different samples.
#: Version 3: the circulant embedding is inverted by a real FFT of the
#: n + 1 distinct spectrum values, which moves fractional samples at the
#: level of rounding.  Version 2: every mixed driver draws its fractional
#: part by circulant embedding; version 1 used the Cholesky factor up to
#: 2048 steps.
STREAM_VERSION = 3

_MASK64 = 0xFFFFFFFFFFFFFFFF


class NoiseError(RuntimeError):
    """A Gaussian path generator could not produce a sample."""


class FactorizationError(NoiseError):
    """Covariance matrix is not numerically positive definite.

    ``pivot`` is the 1-based index of the leading minor that failed.
    """

    def __init__(self, message: str, pivot: int):
        super().__init__(message)
        self.pivot = pivot


class CirculantEmbeddingError(NoiseError):
    """Circulant embedding produced a significantly negative eigenvalue."""


def substream_seed(seed: int, index: int) -> int:
    """Derive the seed of substream ``index`` from a master ``seed``.

    Returns element ``index`` of the splitmix64 output sequence started
    at ``seed``.  The constants are the standard splitmix64 ones; the
    mapping is part of the reproducibility contract, so regression
    fixtures may depend on it.
    """
    if index < 0:
        raise ValueError(f"substream index must be >= 0, got {index}")
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _rng(seed: int) -> np.random.Generator:
    # PCG64 is pinned explicitly (not default_rng) so the bit stream does
    # not silently change with numpy's default choice.
    return np.random.Generator(np.random.PCG64(seed))


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    # Successive values of a SeedSequence hash constant, as a uint32 column.
    values = [init]
    for _ in range(count - 1):
        values.append(values[-1] * mult & 0xFFFFFFFF)
    return np.array(values, dtype=np.uint32)[:, None]


# numpy's SeedSequence (pool of four 32-bit words): hashmix call i xors
# with constant i and multiplies by constant i + 1.  Four calls fill the
# pool, twelve mix it, and generate_state draws eight words.
_HASH_A = _hash_constants(0x43B0D7E5, 0x931E8875, 17)
_HASH_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 9)
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _pcg64_states(seeds: Sequence[int]) -> list[dict]:
    """``np.random.PCG64(s).state`` for every seed, computed at once.

    Runs SeedSequence's entropy hash and ``generate_state(4, uint64)`` in
    uint32 arithmetic on all seeds together, then PCG64's seeding (two
    steps of its 128-bit LCG) per seed, so that one Generator can serve
    many seeds by state assignment instead of one construction each.
    Seeds are unsigned 64-bit integers, hashed as two 32-bit words.
    """

    def hashmix(values, i, j):
        values = values ^ _HASH_A[i:j]
        values *= _HASH_A[i + 1 : j + 1]
        return values ^ (values >> 16)

    s = np.asarray(seeds, dtype=np.uint64)
    entropy = np.zeros((4, s.size), dtype=np.uint32)
    entropy[0] = s & 0xFFFFFFFF
    entropy[1] = s >> 32
    pool = hashmix(entropy, 0, 4)
    for src in range(4):
        dst = [i for i in range(4) if i != src]
        mixed = _MIX_L * pool[dst] - _MIX_R * hashmix(pool[src], 4 + 3 * src, 7 + 3 * src)
        pool[dst] = mixed ^ (mixed >> 16)
    words = pool[[0, 1, 2, 3, 0, 1, 2, 3]] ^ _HASH_B[:8]
    words *= _HASH_B[1:]
    words = (words ^ (words >> 16)).astype(np.uint64)
    seed_hi, seed_lo, inc_hi, inc_lo = (words[0::2] | (words[1::2] << 32)).tolist()
    states = []
    for a, b, c, d in zip(seed_hi, seed_lo, inc_hi, inc_lo):
        inc = ((((c << 64) | d) << 1) | 1) & _MASK128
        state = ((inc + ((a << 64) | b)) * _PCG_MULT + inc) & _MASK128
        states.append(
            {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0}
        )
    return states


@dataclass(frozen=True)
class GridSpec:
    """Uniform partition of [0, horizon_t] into steps_n intervals."""

    horizon_t: float
    steps_n: int

    def __post_init__(self):
        object.__setattr__(self, "horizon_t", float(self.horizon_t))
        if isinstance(self.steps_n, bool) or not isinstance(self.steps_n, (int, np.integer)):
            raise TypeError(f"steps_n must be an integer, got {self.steps_n!r}")
        object.__setattr__(self, "steps_n", int(self.steps_n))
        if not np.isfinite(self.horizon_t) or self.horizon_t <= 0.0:
            raise ValueError(f"horizon_t must be positive and finite, got {self.horizon_t}")
        if self.steps_n < 1:
            raise ValueError(f"steps_n must be >= 1, got {self.steps_n}")

    @property
    def dt(self) -> float:
        return self.horizon_t / self.steps_n

    @property
    def times(self) -> np.ndarray:
        """Grid points t_0 = 0, ..., t_n = horizon_t (length steps_n + 1)."""
        return np.linspace(0.0, self.horizon_t, self.steps_n + 1)


_PATH_KINDS = ("brownian", "fractional", "mixed")


@dataclass(frozen=True, eq=False)
class NoisePath:
    """Increments of one driver realization on a uniform grid.

    The path itself is the cumulative sum of ``increments`` with value 0
    at t = 0; see :meth:`path_values`.  Arrays are stored read-only.
    """

    grid: GridSpec
    increments: np.ndarray
    kind: str
    seed: int
    hurst: float | None = None

    def __post_init__(self):
        inc = np.array(self.increments, dtype=np.float64, copy=True)
        if inc.ndim != 1 or inc.shape[0] != self.grid.steps_n:
            raise ValueError(
                f"increments must have shape ({self.grid.steps_n},), got {inc.shape}"
            )
        if not np.all(np.isfinite(inc)):
            raise ValueError("increments contain NaN or Inf")
        if self.kind not in _PATH_KINDS:
            raise ValueError(f"kind must be one of {_PATH_KINDS}, got {self.kind!r}")
        if self.kind == "brownian":
            if self.hurst is not None:
                raise ValueError("brownian paths carry no hurst parameter")
        else:
            _check_hurst(self.hurst)
        inc.setflags(write=False)
        object.__setattr__(self, "increments", inc)

    @classmethod
    def _over(cls, grid: GridSpec, row: np.ndarray, kind: str, seed: int, hurst: float | None = None) -> NoisePath:
        """A path whose increments are ``row`` itself, not a copy of it.

        For increments that are already checked, such as the rows of
        :func:`~mfcir.mixed.ensemble_increments`; ``row`` must be read-only.
        """
        if row.flags.writeable:
            raise ValueError("a NoisePath can only share a read-only row")
        path = object.__new__(cls)
        for name, value in zip(("grid", "increments", "kind", "seed", "hurst"), (grid, row, kind, seed, hurst)):
            object.__setattr__(path, name, value)
        return path

    def path_values(self) -> np.ndarray:
        """Path values at the grid points, starting from 0 (length n + 1)."""
        values = np.empty(self.grid.steps_n + 1)
        values[0] = 0.0
        np.cumsum(self.increments, out=values[1:])
        return values


def _check_hurst(h) -> float:
    if h is None:
        raise ValueError("a hurst exponent is required for fractional and mixed paths")
    h = float(h)
    if not np.isfinite(h) or not 0.0 < h < 1.0:
        raise ValueError(f"hurst exponent must lie in (0, 1), got {h}")
    return h


def fbm_covariance(h: float, s, t):
    """Covariance of fractional Brownian motion at times ``s`` and ``t``.

    Evaluates ``(s**(2h) + t**(2h) - |t - s|**(2h)) / 2`` elementwise, the
    covariance of the unique centered Gaussian process with stationary
    increments, B_0 = 0 and Var(B_t) = t**(2h).
    """
    h = _check_hurst(h)
    if np.any(np.asarray(s) < 0.0) or np.any(np.asarray(t) < 0.0):
        raise ValueError("times must be >= 0")
    e = 2.0 * h
    return 0.5 * (s**e + t**e - np.abs(t - s) ** e)


def sample_brownian_increments(grid: GridSpec, seed: int) -> NoisePath:
    """Draw i.i.d. N(0, dt) Brownian increments on ``grid``."""
    inc = _rng(seed).standard_normal(grid.steps_n) * np.sqrt(grid.dt)
    return NoisePath(grid=grid, increments=inc, kind="brownian", seed=seed)


@lru_cache(maxsize=4)
def _cholesky_factor(h: float, steps_n: int, horizon_t: float) -> np.ndarray:
    t = np.linspace(0.0, horizon_t, steps_n + 1)[1:]
    cov = fbm_covariance(h, t[:, None], t[None, :])
    return _spd_factor(cov)


def _spd_factor(cov: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor, raising :class:`FactorizationError` if not SPD."""
    from scipy.linalg.lapack import dpotrf

    factor, info = dpotrf(cov, lower=1, clean=1)
    if info != 0:
        raise FactorizationError(
            f"covariance factorization failed at pivot {info}; "
            "the matrix is not numerically positive definite",
            pivot=int(info),
        )
    factor.setflags(write=False)
    return factor


def sample_fbm_cholesky(h: float, grid: GridSpec, seed: int) -> NoisePath:
    """Exact fBm increments through a Cholesky factor of the path covariance.

    The covariance of the values (B_{t_1}, ..., B_{t_n}) is factored once
    per (h, grid) and cached, then each path costs one matrix-vector
    product.  Grids above ``CHOLESKY_MAX_STEPS`` are refused.  This is
    the cross-check oracle for :func:`sample_fbm_davies_harte`, which
    every production path uses.
    """
    h = _check_hurst(h)
    if grid.steps_n > CHOLESKY_MAX_STEPS:
        raise ValueError(
            f"steps_n {grid.steps_n} exceeds the Cholesky cap {CHOLESKY_MAX_STEPS}; "
            "use sample_fbm_davies_harte for grids this large"
        )
    factor = _cholesky_factor(h, grid.steps_n, grid.horizon_t)
    values = factor @ _rng(seed).standard_normal(grid.steps_n)
    inc = np.diff(values, prepend=0.0)
    return NoisePath(grid=grid, increments=inc, kind="fractional", seed=seed, hurst=h)


#: Eigenvalues of the circulant embedding more negative than this fraction
#: of the largest one abort the sampler; anything between is rounding noise
#: and gets clamped to zero.
_EIGENVALUE_CLAMP_REL = 1e-8


def _clamped_eigenvalues(lam: np.ndarray) -> np.ndarray:
    top = float(lam.max())
    if top <= 0.0:
        raise CirculantEmbeddingError("circulant embedding has no positive eigenvalue")
    floor = -_EIGENVALUE_CLAMP_REL * top
    worst = float(lam.min())
    if worst < floor:
        raise CirculantEmbeddingError(
            f"circulant embedding eigenvalue {worst:.6g} is below the tolerance "
            f"{floor:.6g}; the Cholesky generator can serve as a fallback"
        )
    return np.where(lam < 0.0, 0.0, lam)


@lru_cache(maxsize=8)
def _circulant_eigenvalues(h: float, steps_n: int, dt: float) -> np.ndarray:
    """The n + 1 distinct eigenvalues of the 2n x 2n circulant embedding.

    The first row is symmetric, so the spectrum is real and lambda_k equals
    lambda_{2n-k}; ``rfft`` computes lambda_0, ..., lambda_n only.
    """
    # Autocovariance of the stationary increment sequence,
    # gamma(j) = dt**(2h) * (|j+1|**(2h) - 2|j|**(2h) + |j-1|**(2h)) / 2.
    j = np.arange(steps_n + 1, dtype=np.float64)
    e = 2.0 * h
    gamma = 0.5 * dt**e * ((j + 1.0) ** e - 2.0 * j**e + np.abs(j - 1.0) ** e)
    first_row = np.concatenate([gamma, gamma[-2:0:-1]])  # circulant row, length 2n
    lam = _clamped_eigenvalues(np.fft.rfft(first_row).real)
    lam.setflags(write=False)
    return lam


@lru_cache(maxsize=8)
def _spectrum_scale(h: float, steps_n: int, dt: float) -> np.ndarray:
    # sqrt(2n * lambda_k) per frequency k = 0..n, over sqrt(2) where the
    # spectrum value is complex (0 < k < n): that spreads its unit variance
    # over a real and an imaginary normal.
    scale = np.sqrt(2 * steps_n * _circulant_eigenvalues(h, steps_n, dt))
    scale[1:steps_n] /= np.sqrt(2.0)
    scale.setflags(write=False)
    return scale


def _davies_harte_rows(h: float, grid: GridSpec, normals: np.ndarray) -> np.ndarray:
    """fBm increments, one path per row, from ``normals`` of shape (rows, 2n).

    Each row of standard normals fills the n + 1 values of a
    Hermitian-symmetric spectrum that are not redundant: real ones at
    frequencies 0 and n (normals 0 and 1), complex ones in between (real
    parts from normals 2..n, imaginary parts from n+1..2n-1).  Scaled by
    the square roots of the circulant eigenvalues, they are inverted by one
    row-wise real FFT, so a row's increments do not depend on the other
    rows of the batch.
    """
    n = grid.steps_n
    z = np.empty((len(normals), n + 1), dtype=np.complex128)
    z.real[:, 0] = normals[:, 0]
    z.real[:, n] = normals[:, 1]
    z.real[:, 1:n] = normals[:, 2 : n + 1]
    z.imag[:, 1:n] = normals[:, n + 1 :]
    z.imag[:, ::n] = 0.0
    z *= _spectrum_scale(h, n, grid.dt)
    return np.fft.irfft(z, n=2 * n, axis=1)[:, :n]


def sample_fbm_davies_harte(h: float, grid: GridSpec, seed: int) -> NoisePath:
    """Exact fBm increments through circulant embedding (Davies-Harte).

    The 2n x 2n circulant extension of the increment covariance is
    diagonalized by the FFT; its n + 1 distinct eigenvalues are cached per
    (h, grid).  Each path then consumes exactly ``2 * steps_n`` standard
    normals, drawn in one call and assembled into the non-redundant half
    of a Hermitian-symmetric spectrum, so the inverse real FFT gives a
    real path by construction.
    """
    h = _check_hurst(h)
    g = _rng(seed).standard_normal(2 * grid.steps_n)
    inc = _davies_harte_rows(h, grid, g[None, :])[0]
    return NoisePath(grid=grid, increments=inc, kind="fractional", seed=seed, hurst=h)
