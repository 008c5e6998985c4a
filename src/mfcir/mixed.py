"""Mixed driver M = w_bm * B + w_fbm * B^H and grid-coupled views of it.

The two components are independent; each gets its own substream of the
path seed, so the Brownian part of a path does not change when the
fractional part is switched off (and vice versa).
:func:`ensemble_increments` is the one place where path seeds become
driver increments; :func:`build_mixed` is its one-path case.  Coarse-grid
restrictions are exact block sums of fine increments, so that in a
self-convergence study every grid sees the same driver; the convergence
harness block-sums whole chunks of paths, and ``derive_coupled`` is its
one-seed case.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Sequence

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

# Standard normals per chunk of paths, 2n per path: 64 paths at 2**10
# steps, one at 2**16.  The chunk's normals, half spectra (n + 1 complex
# values per path) and transform output stay near 3 MB together, whatever
# the number of paths.
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


def ensemble_increments(spec: MixedSpec, grid: GridSpec, seeds: Sequence[int]) -> np.ndarray:
    """Mixed-driver increments, shape (len(seeds), steps_n), one path per row.

    Row i is the path of ``seeds[i]``: its Brownian component comes from
    substream 0 of the seed and its fractional component from substream 1,
    through :func:`~mfcir.noise.sample_fbm_davies_harte`'s transform.  The
    paths are generated in chunks of rows, and a row does not depend on the
    chunking or on the other seeds.
    """
    n = grid.steps_n
    out = np.zeros((len(seeds), n))
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
    for lo in range(0, len(seeds), rows):
        block = out[lo : lo + rows]
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowed weight is rejected below
            if spec.weight_bm != 0.0:
                draw(block, bm_states[lo : lo + rows])
                # Two products in the per-path samplers' order, so that rows
                # match sample_brownian_increments bit for bit.
                block *= np.sqrt(grid.dt)
                block *= spec.weight_bm
            if spec.weight_fbm != 0.0:
                g = np.empty((len(block), 2 * n))
                draw(g, fbm_states[lo : lo + rows])
                fbm = _davies_harte_rows(spec.hurst, grid, g)
                fbm *= spec.weight_fbm
                block += fbm
        if not np.isfinite(block).all():
            raise ValueError("increments contain NaN or Inf")
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
