"""Mixed driver M = w_bm * B + w_fbm * B^H.

The two components are independent; each gets its own substream of the
path seed, so the Brownian part of a path does not change when the
fractional part is switched off (and vice versa); ``mfcir.noise`` derives
the substream seeds of a whole block of paths in one array pass.
``_increment_blocks`` is the one place where path seeds become driver
increments: it yields them one block of paths at a time, in buffers it
reuses, so the ensemble harnesses never hold a (paths, n) matrix, and
:func:`build_mixed` is its one-path case.  Coarse-grid restrictions of a
driver are exact block sums of its increments (``mfcir.noise._block_sums``),
which the convergence harness takes of each block of paths as it arrives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .noise import (  # noqa: F401  perfbench/spans.py wraps the samplers and substream_seed by these names
    GridSpec,
    NoisePath,
    _check_hurst,
    _davies_harte_rows,
    _pcg64_states,
    _rng,
    _spectrum_scale,
    _substream_seeds,
    sample_brownian_increments,
    sample_fbm_cholesky,
    sample_fbm_davies_harte,
    substream_seed,
)

__all__ = ["MixedSpec", "build_mixed"]

# Fixed substream indices of a path seed; part of the seeding contract.
_BM_STREAM = 0
_FBM_STREAM = 1

# Standard normals per block of paths, 2n per path: 64 paths at 2**10
# steps, one at 2**16.  The block's normals, which the transform output
# and then the block's increments overwrite, and its half spectra (n + 1
# complex values per path) stay near 2 MB together, whatever the number of
# paths.
_CHUNK_SPECTRUM = 2**17


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


def _increment_blocks(spec: MixedSpec, grid: GridSpec, seeds: Sequence[int]) -> Iterator[tuple[int, np.ndarray]]:
    """Mixed-driver increments of ``seeds``, one block of rows at a time.

    Yields ``(lo, block)``: row i of ``block`` is the path of
    ``seeds[lo + i]``, its Brownian component from substream 0 of the seed
    and its fractional component from substream 1, through
    :func:`~mfcir.noise.sample_fbm_davies_harte`'s transform.  A row does
    not depend on the blocking or on the other seeds.

    The spectrum scale is looked up once, before any buffer is allocated,
    and only if there is a fractional row to draw.  Each block is drawn
    into one buffer, (rows, 2n) if fractional and (rows, n) otherwise, and
    is a view of its last n columns.  Fractional normals fill the whole
    buffer and their half spectra a complex (rows, n + 1) one; the inverse
    transform writes the fBm rows over the first half of each row, so the
    block takes the second half, which no row uses.  The buffers are owned
    by this generator and reused from block to block, so a block is
    overwritten by the next one, and the caller may overwrite it too.  The
    substream seeds of all ``seeds`` are derived and their PCG64 states
    hashed at once, but the states are built one row at a time.  A weight of
    exactly 1 is not multiplied by.
    """
    n = grid.steps_n
    if not len(seeds):
        return
    # One Generator serves every path: each row restores the state that
    # PCG64(substream seed) would start from.
    gen = _rng(0)
    bits = gen.bit_generator

    def draw(rows: np.ndarray, states: Iterator[dict]) -> None:
        # rows come first, so zip takes exactly one state per row
        for row, state in zip(rows, states):
            bits.state = state
            gen.standard_normal(out=row)

    def states(stream: int) -> Iterator[dict]:
        return _pcg64_states(_substream_seeds(seeds, stream))

    fractional = spec.weight_fbm != 0.0
    if fractional:
        scale = _spectrum_scale(spec.hurst, n, grid.dt)
        fbm_states = states(_FBM_STREAM)
    if spec.weight_bm != 0.0:
        bm_states = states(_BM_STREAM)
    rows = min(len(seeds), max(1, _CHUNK_SPECTRUM // (2 * n)))
    buffer = np.empty((rows, 2 * n if fractional else n))
    if fractional:
        spectrum = np.empty((rows, n + 1), dtype=np.complex128)
    for lo in range(0, len(seeds), rows):
        size = min(rows, len(seeds) - lo)
        block = buffer[:size, -n:]  # if fractional, the half of the inverse transform that no row uses
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowed weight is rejected below
            if fractional:
                draw(buffer[:size], fbm_states)
                fbm = _davies_harte_rows(scale, buffer[:size], spectrum[:size])
                if spec.weight_fbm != 1.0:  # x * 1.0 is x, bit for bit
                    fbm *= spec.weight_fbm
            if spec.weight_bm != 0.0:
                draw(block, bm_states)
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
            raise ValueError("increments contain NaN or Inf")
        yield lo, block


def build_mixed(spec: MixedSpec, grid: GridSpec, seed: int) -> NoisePath:
    """Sample one mixed-driver path on ``grid`` from a path seed.

    The one-path case of ``_increment_blocks``: the Brownian and
    fractional components come from substreams 0 and 1 of ``seed``, the
    fractional one through circulant embedding at every grid size.
    NoisePath copies the one row out of the generator's buffer.
    """
    [(_, block)] = _increment_blocks(spec, grid, [seed])
    return NoisePath(grid=grid, increments=block[0], seed=seed)
