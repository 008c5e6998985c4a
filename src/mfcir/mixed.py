"""Mixed driver M = w_bm * B + w_fbm * B^H.

The two components are independent; each gets its own substream of the
path seed, so the Brownian part of a path does not change when the
fractional part is switched off (and vice versa); ``mfcir.noise`` derives
the substream seeds and PCG64 states of a whole uint64 array of path seeds
in one pass.
``_increment_blocks`` is the one place where path seeds become driver
increments: it yields them one block of paths at a time, in buffers it
reuses, so neither the ensemble harnesses nor the CLI's ``simulate`` hold a
(paths, n) matrix, and :func:`build_mixed` is its one-path case.
Coarse-grid restrictions of a driver are exact block sums of its increments
(``mfcir.noise._block_sums``), which the convergence harness takes of each
block of paths as it arrives.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .noise import (  # noqa: F401  perfbench/spans.py wraps the samplers and substream_seed by these names
    _MASK64,
    GridSpec,
    NoisePath,
    _check_hurst,
    _davies_harte_rows,
    _pcg64_states,
    _rng,
    _spectrum_scale,
    _state_words,
    sample_brownian_increments,
    sample_fbm_cholesky,
    sample_fbm_davies_harte,
    substream_seed,
)

__all__ = ["MixedSpec", "build_mixed"]

# Fixed substream indices of a path seed; part of the seeding contract.
_BM_STREAM = 0
_FBM_STREAM = 1

# The harnesses' block budget, in bytes of block buffers: 64 Brownian rows
# at 2**10 steps, 15 fractional ones, and one of either kind at 2**16.
_BLOCK_BYTES = 2**19


def _block_rows(n: int, fractional: bool, budget: int) -> int:
    """Rows of n steps whose buffers fit ``budget`` bytes: 8n a Brownian row, 32n + 16 a fractional one
    (2n normals, which the transform and then the increments overwrite, and n + 1 complex spectrum values).
    A fractional block takes at least 4 rows, since a one-row block fills one double per row of a chunk's
    step-major states, and never more than a Brownian one; every block takes at least one."""
    rows = max(1, budget // (8 * n))
    return min(rows, max(4, budget // (32 * n + 16))) if fractional else rows


@dataclass(frozen=True)
class MixedSpec:
    """Configuration of the mixed driver.

    ``hurst`` must exceed 1/2: the model's pathwise analysis relies on the
    fractional component being smoother than Brownian motion, so smaller
    values are rejected here, at configuration time.  Setting a weight to
    zero drops that component exactly (the other one keeps its seed).
    """

    hurst: float = 0.75
    weight_bm: float = 1.0
    weight_fbm: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "hurst", float(self.hurst))
        object.__setattr__(self, "weight_bm", float(self.weight_bm))
        object.__setattr__(self, "weight_fbm", float(self.weight_fbm))
        _check_hurst(self.hurst)
        if self.hurst <= 0.5:
            raise ValueError(
                f"mixed driver requires hurst > 1/2, got {self.hurst}"
            )
        if not np.isfinite(self.weight_bm) or not np.isfinite(self.weight_fbm):
            raise ValueError("component weights must be finite")


def _increment_blocks(
    spec: MixedSpec, grid: GridSpec, seeds: np.ndarray, block_bytes: int | None = None
) -> Iterator[tuple[int, np.ndarray]]:
    """Mixed-driver increments of ``seeds``, one block of rows at a time.

    Yields ``(lo, block)``: row i of ``block`` is the path of uint64 seed
    ``seeds[lo + i]``, its Brownian component from substream 0 of the seed
    and its fractional component from substream 1, through
    :func:`~mfcir.noise.sample_fbm_davies_harte`'s transform.  A row does
    not depend on the blocking or on the other seeds.  A block holds the
    rows that :func:`_block_rows` fits in ``block_bytes`` (by default
    ``_BLOCK_BYTES``, read at each call).  A non-finite increment is a
    ValueError, raised once the rows of its block above its row are yielded.

    The spectrum scale is looked up once, before any buffer is allocated,
    and only if there is a fractional row to draw.  Each block is drawn
    into one buffer, (rows, 2n) if fractional and (rows, n) otherwise, and
    is a view of its last n columns.  Fractional normals fill the whole
    buffer and their half spectra a complex (rows, n + 1) one; the inverse
    transform writes the fBm rows over the first half of each row, so the
    block takes the second half, which no row uses.  The buffers are owned
    by this generator and reused from block to block, so a block is
    overwritten by the next one, and the caller may overwrite it too.  The
    PCG64 states of all ``seeds`` are derived once per call, not per block:
    one (len(seeds), 4) uint64 table per stream drawn (none for a weight of
    0), whose rows are written into one Generator, each before its draw.
    A weight of exactly 1 is not multiplied by.
    """
    n = grid.steps_n
    if not len(seeds):
        return
    # One Generator serves every path: before each row, the state words that
    # PCG64(substream seed) would start from are written into it in place.
    # Its has_uint32 and uinteger, which the view does not cover, stay 0:
    # the Generator is fresh for each call, and a float64 standard_normal
    # never calls next_uint32.
    gen = _rng(0)
    state = _state_words(gen.bit_generator)

    def draw(rows: np.ndarray, table: np.ndarray) -> None:
        for row, words in zip(rows, table.reshape(-1, 2, 2)):
            state[...] = words
            gen.standard_normal(out=row)

    fractional = spec.weight_fbm != 0.0
    if fractional:
        scale = _spectrum_scale(spec.hurst, n, grid.dt)
        fbm_states = _pcg64_states(seeds, _FBM_STREAM)
    if spec.weight_bm != 0.0:
        bm_states = _pcg64_states(seeds, _BM_STREAM)
    rows = min(len(seeds), _block_rows(n, fractional, _BLOCK_BYTES if block_bytes is None else block_bytes))
    buffer = np.empty((rows, 2 * n if fractional else n))
    if fractional:
        spectrum = np.empty((rows, n + 1), dtype=np.complex128)
    for lo in range(0, len(seeds), rows):
        size = min(rows, len(seeds) - lo)
        block = buffer[:size, -n:]  # if fractional, the half of the inverse transform that no row uses
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowed weight is rejected below
            if fractional:
                draw(buffer[:size], fbm_states[lo : lo + size])
                fbm = _davies_harte_rows(scale, buffer[:size], spectrum[:size])
                if spec.weight_fbm != 1.0:  # x * 1.0 is x, bit for bit
                    fbm *= spec.weight_fbm
            if spec.weight_bm != 0.0:
                draw(block, bm_states[lo : lo + size])
                # Two products in the per-path samplers' order, so that rows
                # match sample_brownian_increments bit for bit.
                block *= np.sqrt(grid.dt)
                if spec.weight_bm != 1.0:
                    block *= spec.weight_bm
            else:
                block.fill(0.0)  # so that 0.0 + fbm turns -0.0 into +0.0
            if fractional:
                block += fbm
        if not np.isfinite(block).all():
            finite = int(np.isfinite(block).all(axis=1).argmin())  # the rows above the first non-finite one
            if finite:
                yield lo, block[:finite]
            raise ValueError("increments contain NaN or Inf")
        yield lo, block


def build_mixed(spec: MixedSpec, grid: GridSpec, seed: int) -> NoisePath:
    """Sample one mixed-driver path on ``grid`` from a path seed.

    The one-path case of ``_increment_blocks``: the Brownian and
    fractional components come from substreams 0 and 1 of ``seed``, the
    fractional one through circulant embedding at every grid size; an
    integer ``seed`` is reduced mod 2**64, as by ``substream_seed``.
    NoisePath copies the one row out of the generator's buffer.
    """
    seeds = np.array([operator.index(seed) & _MASK64], dtype=np.uint64)
    [(_, block)] = _increment_blocks(spec, grid, seeds)
    return NoisePath(grid=grid, increments=block[0], seed=seed)
