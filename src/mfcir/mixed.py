"""Mixed driver M = w_bm * B + w_fbm * B^H and grid-coupled views of it.

The two components are independent; each gets its own substream of the
path seed, so the Brownian part of a path does not change when the
fractional part is switched off (and vice versa).
``_increment_blocks`` is the one place where path seeds become driver
increments: it yields them one block of paths at a time, in buffers it
reuses, so the ensemble harnesses never hold a (paths, n) matrix.
:func:`ensemble_increments` collects its blocks into one, and
:func:`build_mixed` is its one-path case.  Coarse-grid restrictions are
exact block sums of fine increments, so that in a self-convergence study
every grid sees the same driver; the convergence harness block-sums each
block of paths as it arrives, and ``derive_coupled`` is its one-seed case.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence

import numpy as np

from .noise import (  # noqa: F401  perfbench/spans.py wraps the samplers by these names
    GridSpec,
    NoisePath,
    _check_hurst,
    _davies_harte_rows,
    _pcg64_states,
    _rng,
    sample_brownian_increments,
    sample_fbm_cholesky,
    sample_fbm_davies_harte,
    substream_seed,
)

__all__ = ["CoupledNoise", "MixedSpec", "build_mixed", "derive_coupled", "ensemble_increments"]

# Fixed substream indices of a path seed; part of the seeding contract.
_BM_STREAM = 0
_FBM_STREAM = 1

# Standard normals per block of paths, 2n per path: 64 paths at 2**10
# steps, one at 2**16.  The block's increments, its normals, which the
# transform output overwrites, and its half spectra (n + 1 complex values
# per path) stay near 2.5 MB together, whatever the number of paths.
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

    Every block is a view of one (rows, n) buffer, and the fractional part
    of every block is drawn into one normals buffer of (rows, 2n) values
    and one complex spectrum buffer of (rows, n + 1); all three are owned
    by this generator and reused from block to block, so a block is
    overwritten by the next one, and the caller may overwrite it too.  The
    block's fBm rows are a view of the normals, which the inverse
    transform overwrites.
    """
    n = grid.steps_n
    # One Generator serves every path: each row restores the state that
    # PCG64(substream seed) would start from, derived for all seeds at once.
    gen = _rng(0)
    bits = gen.bit_generator

    def draw(rows: np.ndarray, states: list[dict]) -> None:
        for row, state in zip(rows, states):
            bits.state = state
            gen.standard_normal(out=row)

    def states(stream: int) -> list[dict]:
        return _pcg64_states([substream_seed(seed, stream) for seed in seeds])

    bm_states = states(_BM_STREAM) if spec.weight_bm != 0.0 else []
    fbm_states = states(_FBM_STREAM) if spec.weight_fbm != 0.0 else []
    rows = max(1, _CHUNK_SPECTRUM // (2 * n))
    buffer = np.empty((min(rows, len(seeds)), n))
    if spec.weight_fbm != 0.0:
        normals = np.empty((len(buffer), 2 * n))
        spectrum = np.empty((len(buffer), n + 1), dtype=np.complex128)
    for lo in range(0, len(seeds), rows):
        block = buffer[: len(seeds) - lo]
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowed weight is rejected below
            if spec.weight_bm != 0.0:
                draw(block, bm_states[lo : lo + rows])
                # Two products in the per-path samplers' order, so that rows
                # match sample_brownian_increments bit for bit.
                block *= np.sqrt(grid.dt)
                block *= spec.weight_bm
            else:
                block.fill(0.0)  # so that 0.0 + fbm turns -0.0 into +0.0
            if spec.weight_fbm != 0.0:
                g = normals[: len(block)]
                draw(g, fbm_states[lo : lo + rows])
                fbm = _davies_harte_rows(spec.hurst, grid, g, spectrum[: len(block)])
                fbm *= spec.weight_fbm
                block += fbm
        if not np.isfinite(block).all():
            raise ValueError("increments contain NaN or Inf")
        yield lo, block


def ensemble_increments(spec: MixedSpec, grid: GridSpec, seeds: Sequence[int]) -> np.ndarray:
    """Mixed-driver increments, shape (len(seeds), steps_n), one path per row.

    Row i is the path of ``seeds[i]``: the blocks of the one draw path,
    :func:`_increment_blocks`, collected into one array.  The ensemble
    harnesses consume the blocks directly and never hold this matrix.
    """
    out = np.empty((len(seeds), grid.steps_n))
    for lo, block in _increment_blocks(spec, grid, seeds):
        out[lo : lo + len(block)] = block
    return out


def build_mixed(spec: MixedSpec, grid: GridSpec, seed: int) -> NoisePath:
    """Sample one mixed-driver path on ``grid`` from a path seed.

    The one-path case of :func:`ensemble_increments`: the Brownian and
    fractional components come from substreams 0 and 1 of ``seed``, the
    fractional one through circulant embedding at every grid size.
    """
    inc = ensemble_increments(spec, grid, [seed])[0]
    return NoisePath(grid=grid, increments=inc, kind="mixed", seed=seed, hurst=spec.hurst)


@dataclass(frozen=True, eq=False)
class CoupledNoise:
    """One fine driver realization plus coarse restrictions of it.

    ``coarse_views[n]`` lives on an n-step grid over the same horizon and
    its k-th increment is the sum of the fine increments it covers, so all
    views share terminal value and, at common grid points, path values.
    """

    fine: NoisePath
    coarse_views: Mapping[int, NoisePath]


def _check_divisors(n_fine: int, coarse_list: Sequence[int]) -> None:
    """Raise unless every entry of ``coarse_list`` divides ``n_fine`` exactly."""
    for n_coarse in coarse_list:
        if n_coarse < 1:
            raise ValueError(f"coarse step count must be >= 1, got {n_coarse}")
        if n_fine % n_coarse != 0:
            raise ValueError(
                f"coarse step count {n_coarse} does not divide n_fine {n_fine}"
            )


def _block_sums(increments: np.ndarray, n_coarse: int) -> np.ndarray:
    """Block-sum fine increments (last axis; one path or a matrix) onto ``n_coarse`` steps."""
    *paths, n_fine = increments.shape
    return increments.reshape(*paths, n_coarse, n_fine // n_coarse).sum(axis=-1)


def derive_coupled(
    spec: MixedSpec,
    horizon_t: float,
    n_fine: int,
    coarse_list: Sequence[int],
    seed: int,
) -> CoupledNoise:
    """Build a fine mixed path and block-sum it onto coarser grids.

    The one-seed case of :func:`mfcir.experiments.run_convergence`'s
    coupling.  Every entry of ``coarse_list`` must divide ``n_fine``
    exactly; otherwise the offending value is named in the error.
    """
    fine_grid = GridSpec(horizon_t=horizon_t, steps_n=n_fine)
    _check_divisors(n_fine, coarse_list)
    fine = build_mixed(spec, fine_grid, seed)
    views = {
        int(n): NoisePath(grid=GridSpec(horizon_t, int(n)), increments=_block_sums(fine.increments, n),
                          kind="mixed", seed=seed, hurst=spec.hurst)
        for n in coarse_list
    }
    return CoupledNoise(fine=fine, coarse_views=MappingProxyType(views))
