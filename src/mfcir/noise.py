"""Gaussian driver synthesis on uniform time grids.

Provides Brownian increments and exact (non-approximate) fractional
Brownian increments, reproducible from 64-bit integer seeds.  Two fBm
generators are available:

* ``sample_fbm_davies_harte`` embeds the increment covariance in a
  circulant matrix and samples one path through an FFT in O(n log n).
  Every command draws through its row-wise form, ``_davies_harte_rows``,
  in ``mfcir.mixed._increment_blocks``; the tests check the one-path form
  and compare the rows with it.
* ``sample_fbm_cholesky`` factors the covariance of the path values and
  is the O(n^3) ground truth for small grids, kept as a cross-check
  oracle.

Both draw their Gaussian variates from ``numpy``'s PCG64 bit generator,
so a (seed, grid, hurst) triple always maps to the same path.

Seeds are derived here: ``substream_seed`` is the splitmix64 rule for one
(seed, index) pair; ``_path_seeds`` (one chunk of path seeds) and
``_pcg64_states`` (path seeds to a table of PCG64 state words) apply it in
one array pass, and ``_state_words`` is the view through which a row of
that table is written into a bit generator.

The coupled grids and the bracket share one home for their grid rules:
``_split_grid`` (equal blocks), ``_block_sums`` and ``_path_values``.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from functools import lru_cache

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
_GOLDEN64 = 0x9E3779B97F4A7C15


class NoiseError(RuntimeError):
    """A Gaussian path generator could not produce a sample."""


class FactorizationError(NoiseError):
    """Covariance matrix is not numerically positive definite."""


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


def _splitmix64(z: np.ndarray) -> np.ndarray:
    """:func:`substream_seed`'s output mix, in place, on a 1-d uint64 array (0-d arithmetic warns as it wraps)."""
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    z ^= z >> 31
    return z


def _path_seeds(master_seed: int, lo: int, hi: int) -> np.ndarray:
    """``substream_seed(master_seed, i)`` for i in range(lo, hi) as a uint64 array, for a master in [0, 2**64)."""
    z = np.arange(lo + 1, hi + 1, dtype=np.uint64) * _GOLDEN64 + master_seed
    return _splitmix64(z)


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
_PCG_MULT_HI, _PCG_MULT_LO = divmod(_PCG_MULT, 1 << 64)


def _add_carry(out: np.ndarray, a: np.ndarray, odd: np.ndarray) -> None:
    """Add to ``out`` the carry out of each uint64 sum ``a + odd``, for odd ``odd``.

    (a >> 1) + (odd >> 1) + (a & 1) is (a + odd) >> 1 without overflow, so its
    bit 63 is the carry.  It takes shifts and adds, not a comparison and a
    bool cast, whose numpy code pages no other stage of a command touches:
    faulting them in raised the peak RSS of ``positivity --n 1024 --paths
    500`` by about 0.1 MB.
    """
    carry = a >> 1
    carry += odd >> 1
    carry += a & 1
    carry >>= 63
    out += carry


def _add_mul_hi(out: np.ndarray, x: np.ndarray, y: int) -> None:
    """Add the high 64 bits of each 128-bit product ``x * y`` to ``out``, in 32-bit limbs; overwrites ``x``.

    ``out`` and ``x`` are uint64 arrays and ``y`` a 64-bit int.
    """
    y0, y1 = y & 0xFFFFFFFF, y >> 32
    mid = x & 0xFFFFFFFF
    x >>= 32
    cross = mid * y1
    mid *= y0
    mid >>= 32  # the carry out of the low limbs' product
    mid += cross & 0xFFFFFFFF
    cross >>= 32
    out += cross
    np.multiply(x, y0, out=cross)
    mid += cross & 0xFFFFFFFF
    cross >>= 32
    out += cross
    x *= y1
    out += x
    mid >>= 32
    out += mid


def _pcg64_states(seeds: np.ndarray, stream: int) -> np.ndarray:
    """The states of ``np.random.PCG64(substream_seed(s, stream))`` for every path seed, one row each.

    ``seeds`` is a uint64 array.  Returns a (len(seeds), 4) uint64 table
    whose rows are the words [state lo, state hi, inc lo, inc hi] of the
    128-bit state and increment, which :func:`_state_words` writes into a
    bit generator.  Runs the splitmix64 pass, SeedSequence's entropy hash,
    ``generate_state(4, uint64)`` and PCG64's seeding (two steps of its
    128-bit LCG, in 64-bit words with carries) in uint64 and uint32
    arithmetic on all seeds together, the LCG steps in place, so that one
    Generator can serve many seeds with neither a construction nor a state
    dict each.  Substream seeds are hashed as two 32-bit words.
    """

    def hashmix(values, i, j):
        values = values ^ _HASH_A[i:j]
        values *= _HASH_A[i + 1 : j + 1]
        return values ^ (values >> 16)

    s = _splitmix64(seeds + ((stream + 1) * _GOLDEN64 & _MASK64))
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
    packed = words[0::2] | (words[1::2] << 32)
    del s, entropy, pool, mixed, words
    init_hi, init_lo, seq_hi, seq_lo = packed  # generate_state(4, uint64): initstate, then initseq
    table = np.empty((len(seeds), 4), dtype=np.uint64)
    state_lo, state_hi, inc_lo, inc_hi = table.T
    # inc = (seq << 1) | 1
    np.left_shift(seq_hi, 1, out=inc_hi)
    inc_hi |= seq_lo >> 63
    np.left_shift(seq_lo, 1, out=inc_lo)
    inc_lo |= 1
    # t = inc + initstate, over initstate's words
    init_hi += inc_hi
    _add_carry(init_hi, init_lo, inc_lo)
    init_lo += inc_lo
    # state = t * _PCG_MULT + inc, mod 2**128
    np.multiply(init_hi, _PCG_MULT_LO, out=state_hi)
    np.multiply(init_lo, _PCG_MULT_HI, out=init_hi)
    state_hi += init_hi
    np.multiply(init_lo, _PCG_MULT_LO, out=state_lo)
    _add_mul_hi(state_hi, init_lo, _PCG_MULT_LO)
    state_hi += inc_hi
    _add_carry(state_hi, state_lo, inc_lo)
    state_lo += inc_lo
    return table


def _state_words(bits: np.random.PCG64) -> np.ndarray:
    """A writable (2, 2) uint64 view of the state and increment of ``bits``, each as its (lo, hi) words.

    Writing a row of :func:`_pcg64_states`, reshaped to (2, 2), sets the
    state that ``bits.state`` would set from a dict, without the dict.  The
    view reads the ``pcg_state`` pointer at ``bits.ctypes.state_address``;
    it does not keep ``bits`` alive.  numpy's ``pcg64.h`` stores each 128-bit
    value as a native ``__uint128_t`` (words in the order lo, hi) or as an
    emulated ``{high, low}`` struct, which a big-endian int128 matches too,
    so the order is checked once here: a known state is set through the
    public setter and read back through the view.  Any other readback is a
    NoiseError.  The setter also sets ``has_uint32`` and ``uinteger`` to 0,
    which the view does not cover.
    """
    address = ctypes.c_void_p.from_address(bits.ctypes.state_address).value
    words = np.frombuffer((ctypes.c_uint64 * 4).from_address(address), dtype=np.uint64).reshape(2, 2)
    bits.state = {"bit_generator": "PCG64", "state": {"state": 1 << 64 | 2, "inc": 3 << 64 | 5},
                  "has_uint32": 0, "uinteger": 0}
    readback = words.tolist()
    if readback == [[1, 2], [3, 5]]:
        return words[:, ::-1]
    if readback != [[2, 1], [5, 3]]:
        raise NoiseError(f"unknown PCG64 state layout: state 2**64 + 2, inc 3 * 2**64 + 5 read back as {readback}")
    return words


def _require_integer(name: str, value) -> int:
    """``value`` as an int; a bool, float or other non-integer is a TypeError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _split_grid(steps_n: int, k, name: str, whole: str) -> int:
    """``steps_n // k``, where ``k`` must split a grid of ``steps_n`` steps into equal blocks.

    ``k`` counts blocks or steps per block, and the result the other.  Errors
    name ``k`` as ``name`` and ``steps_n`` as ``whole``: a TypeError unless
    ``k`` is an integer, a ValueError unless it is >= 1 and divides ``steps_n``.
    """
    k = _require_integer(name, k)
    if k < 1:
        raise ValueError(f"{name} must be >= 1, got {k}")
    if steps_n % k != 0:
        raise ValueError(f"{name} {k} does not divide {whole} {steps_n}")
    return steps_n // k


def _block_sums(increments: np.ndarray, n_blocks: int) -> np.ndarray:
    """Sum increments (last axis; one path or a matrix) over ``n_blocks`` equal blocks."""
    *paths, steps_n = increments.shape
    return increments.reshape(*paths, n_blocks, steps_n // n_blocks).sum(axis=-1)


def _path_values(increments: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Path values at the grid points, 0 and then the running sums of ``increments``; into ``out`` if given."""
    if out is None:
        out = np.empty(len(increments) + 1)
    out[0] = 0.0
    np.cumsum(increments, out=out[1:])
    return out


@dataclass(frozen=True)
class GridSpec:
    """Uniform partition of [0, horizon_t] into steps_n intervals."""

    horizon_t: float
    steps_n: int

    def __post_init__(self):
        object.__setattr__(self, "horizon_t", float(self.horizon_t))
        object.__setattr__(self, "steps_n", _require_integer("steps_n", self.steps_n))
        if not np.isfinite(self.horizon_t) or self.horizon_t <= 0.0:
            raise ValueError(f"horizon_t must be positive and finite, got {self.horizon_t}")
        if self.steps_n < 1:
            raise ValueError(f"steps_n must be >= 1, got {self.steps_n}")
        if not self.dt > 0.0:
            raise ValueError(f"the step horizon_t / steps_n rounds to 0 for horizon_t = {self.horizon_t} "
                             f"and steps_n = {self.steps_n}")

    @property
    def dt(self) -> float:
        return self.horizon_t / self.steps_n

    @property
    def times(self) -> np.ndarray:
        """Grid points t_0 = 0, ..., t_n = horizon_t (length steps_n + 1)."""
        return np.linspace(0.0, self.horizon_t, self.steps_n + 1)


@dataclass(frozen=True, eq=False)
class NoisePath:
    """Increments of one driver realization on a uniform grid.

    The path itself is the cumulative sum of ``increments`` with value 0
    at t = 0; see :meth:`path_values`.  Arrays are stored read-only.
    """

    grid: GridSpec
    increments: np.ndarray
    seed: int

    def __post_init__(self):
        inc = np.array(self.increments, dtype=np.float64, copy=True)
        if inc.ndim != 1 or inc.shape[0] != self.grid.steps_n:
            raise ValueError(
                f"increments must have shape ({self.grid.steps_n},), got {inc.shape}"
            )
        if not np.all(np.isfinite(inc)):
            raise ValueError("increments contain NaN or Inf")
        inc.setflags(write=False)
        object.__setattr__(self, "increments", inc)

    def path_values(self) -> np.ndarray:
        """Path values at the grid points, starting from 0 (length n + 1)."""
        return _path_values(self.increments)


def _check_hurst(h) -> float:
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
    return NoisePath(grid=grid, increments=inc, seed=seed)


@lru_cache(maxsize=4)
def _cholesky_factor(h: float, steps_n: int, horizon_t: float) -> np.ndarray:
    t = np.linspace(0.0, horizon_t, steps_n + 1)[1:]
    cov = fbm_covariance(h, t[:, None], t[None, :])
    return _spd_factor(cov)


def _spd_factor(cov: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor, raising :class:`FactorizationError` if not SPD."""
    try:
        factor = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise FactorizationError("the covariance matrix is not numerically positive definite") from None
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
    return NoisePath(grid=grid, increments=inc, seed=seed)


#: Eigenvalues of the circulant embedding more negative than this fraction
#: of the largest one abort the sampler; anything between is rounding noise
#: and gets clamped to zero.
_EIGENVALUE_CLAMP_REL = 1e-8


def _clamped_eigenvalues(lam: np.ndarray) -> np.ndarray:
    """``lam`` with its negative rounding noise set to zero, in place."""
    top = float(lam.max())
    if top <= 0.0:
        raise CirculantEmbeddingError("circulant embedding has no positive eigenvalue")
    floor = -_EIGENVALUE_CLAMP_REL * top
    worst = float(lam.min())
    if worst < floor:
        raise CirculantEmbeddingError(
            f"circulant embedding eigenvalue {worst:.6g} is below the tolerance {floor:.6g}"
        )
    lam[lam < 0.0] = 0.0
    return lam


def _fgn_autocovariance(gamma: np.ndarray, h: float, dt: float) -> None:
    """Fill ``gamma[j]`` with the autocovariance of the increments at lag j.

    gamma(j) = dt**(2h) * (|j+1|**(2h) - 2|j|**(2h) + |j-1|**(2h)) / 2, for
    j = 0, ..., len(gamma) - 1.  Each in-place step rounds exactly as the
    whole-array expression would, with two scratch arrays of its length.
    A ``dt**(2h)`` past the float range, or one that underflows to 0, is a
    ValueError.
    """
    e = 2.0 * h
    lag = np.arange(len(gamma), dtype=np.float64)
    np.add(lag, 1.0, out=gamma)
    gamma **= e
    term = lag**e
    term *= 2.0
    gamma -= term
    np.subtract(lag, 1.0, out=term)
    np.abs(term, out=term)
    term **= e
    gamma += term
    try:
        scale = 0.5 * dt**e
    except OverflowError:  # a float power raises where numpy would return inf
        raise ValueError(f"the fractional increment variance dt**(2H) overflowed (dt = {dt:g})") from None
    if scale == 0.0:  # every increment would be 0: not a failure of the embedding
        raise ValueError(f"the fractional increment variance dt**(2H) underflowed to 0 (dt = {dt:g})")
    gamma *= scale


def _circulant_eigenvalues(h: float, steps_n: int, dt: float) -> np.ndarray:
    """The n + 1 distinct eigenvalues of the 2n x 2n circulant embedding.

    The first row is symmetric, so the spectrum is real and lambda_k equals
    lambda_{2n-k}; ``rfft`` computes lambda_0, ..., lambda_n only.  The
    autocovariance is written straight into the first half of that row and
    mirrored into the second, and no scratch array outlives the fill, so the
    transform's input and output are the only large buffers at its peak.
    """
    row = np.empty(2 * steps_n)  # circulant row: gamma(0..n), then gamma(n-1..1)
    _fgn_autocovariance(row[: steps_n + 1], h, dt)
    row[steps_n + 1 :] = row[steps_n - 1 : 0 : -1]
    spectrum = np.fft.rfft(row)
    del row
    return _clamped_eigenvalues(spectrum.real.copy())


@lru_cache(maxsize=8)
def _spectrum_scale(h: float, steps_n: int, dt: float) -> np.ndarray:
    """sqrt(2n * lambda_k) for k = 0..n, over sqrt(2) where 0 < k < n.

    The per-frequency factor of :func:`_davies_harte_rows`: where the
    spectrum value is complex (0 < k < n), its unit variance is spread over
    a real and an imaginary normal.  Cached per (h, grid), read-only, and
    computed in place over the eigenvalues.  Callers take it once per draw,
    before they allocate their block buffers, so that the setup's
    temporaries never stack on top of them.
    """
    scale = _circulant_eigenvalues(h, steps_n, dt)
    with np.errstate(over="ignore"):  # an overflowed spectrum is rejected below
        scale *= 2 * steps_n
    if not np.isfinite(scale).all():  # here, or already in the rfft, which does not warn
        raise ValueError(f"the circulant spectrum of the fractional increments overflowed (dt = {dt:g})")
    np.sqrt(scale, out=scale)
    scale[1:steps_n] /= np.sqrt(2.0)
    scale.setflags(write=False)
    return scale


def _davies_harte_rows(scale: np.ndarray, normals: np.ndarray, spectrum: np.ndarray) -> np.ndarray:
    """fBm increments, one path per row, from ``normals`` of shape (rows, 2n).

    Each row of standard normals fills the n + 1 values of a
    Hermitian-symmetric spectrum that are not redundant: real ones at
    frequencies 0 and n (normals 0 and 1), complex ones in between (real
    parts from normals 2..n, imaginary parts from n+1..2n-1).  Scaled by
    ``scale``, the grid's :func:`_spectrum_scale` of n + 1 values, they are
    inverted by one row-wise real FFT, so a row's increments do not depend
    on the other rows of the batch.  The caller looks the scale up once per
    draw, not once per block.

    The caller owns both buffers, so it can reuse them from block to block:
    ``spectrum`` is complex scratch of shape (rows, n + 1), and the inverse
    transform is written back over the consumed ``normals``.  The returned
    increments are a (rows, n) view of ``normals``.
    """
    n = len(scale) - 1
    spectrum.real[:, 0] = normals[:, 0]
    spectrum.real[:, n] = normals[:, 1]
    spectrum.real[:, 1:n] = normals[:, 2 : n + 1]
    spectrum.imag[:, 1:n] = normals[:, n + 1 :]
    spectrum.imag[:, ::n] = 0.0
    spectrum *= scale
    return np.fft.irfft(spectrum, n=2 * n, axis=1, out=normals)[:, :n]


def sample_fbm_davies_harte(h: float, grid: GridSpec, seed: int) -> NoisePath:
    """Exact fBm increments through circulant embedding (Davies-Harte).

    The 2n x 2n circulant extension of the increment covariance is
    diagonalized by the FFT; the square roots of its n + 1 distinct
    eigenvalues are cached per (h, grid).  Each path then consumes exactly ``2 * steps_n`` standard
    normals, drawn in one call and assembled into the non-redundant half
    of a Hermitian-symmetric spectrum, so the inverse real FFT gives a
    real path by construction.
    """
    h = _check_hurst(h)
    scale = _spectrum_scale(h, grid.steps_n, grid.dt)
    normals = _rng(seed).standard_normal((1, 2 * grid.steps_n))
    spectrum = np.empty((1, grid.steps_n + 1), dtype=np.complex128)
    inc = _davies_harte_rows(scale, normals, spectrum)[0]
    return NoisePath(grid=grid, increments=inc, seed=seed)
