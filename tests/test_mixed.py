"""Mixed-driver tests: degenerate modes, independence, coupled aggregation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import coupled_paths, increment_matrix

import mfcir.mixed as mixed
from mfcir.cli import _SIMULATE_BLOCK_BYTES
from mfcir.mixed import MixedSpec, build_mixed
from mfcir.noise import (
    CirculantEmbeddingError,
    GridSpec,
    _block_sums,
    _pcg64_states,
    _split_grid,
    sample_brownian_increments,
    sample_fbm_cholesky,
    sample_fbm_davies_harte,
    substream_seed,
)


def test_spec_rejects_small_hurst():
    with pytest.raises(ValueError, match="1/2"):
        MixedSpec(hurst=0.5)
    with pytest.raises(ValueError):
        MixedSpec(hurst=1.0)
    with pytest.raises(ValueError):
        MixedSpec(hurst=0.75, weight_bm=math.inf)


def test_degenerate_brownian_mode_is_exact():
    # weight_fbm = 0 must reproduce the Brownian component bit for bit
    grid = GridSpec(1.0, 128)
    mixed = build_mixed(MixedSpec(weight_fbm=0.0), grid, 911)
    brownian = sample_brownian_increments(grid, substream_seed(911, 0))
    assert np.array_equal(mixed.increments, brownian.increments)


def test_degenerate_fractional_mode_is_exact():
    grid = GridSpec(1.0, 128)
    mixed = build_mixed(MixedSpec(weight_bm=0.0), grid, 911)
    fbm = sample_fbm_davies_harte(0.75, grid, substream_seed(911, 1))
    assert np.array_equal(mixed.increments, fbm.increments)


def test_fbm_only_variance_at_horizon():
    grid = GridSpec(1.0, 16)
    spec = MixedSpec(hurst=0.75, weight_bm=0.0, weight_fbm=1.0)
    n_paths = 10_000
    seeds = [substream_seed(5, i) for i in range(n_paths)]
    ends = np.cumsum(increment_matrix(spec, grid, seeds), axis=1)[:, -1]  # = build_mixed's path_values()[-1]
    assert abs(ends.var(ddof=1) - 1.0) <= 3 * math.sqrt(2.0 / n_paths)


def test_default_mix_variance_is_sum_of_components():
    # Var(B_1 + B^H_1) = 1 + 1 by independence
    grid = GridSpec(1.0, 16)
    spec = MixedSpec(hurst=0.75)
    n_paths = 10_000
    seeds = [substream_seed(6, i) for i in range(n_paths)]
    ends = np.cumsum(increment_matrix(spec, grid, seeds), axis=1)[:, -1]  # = build_mixed's path_values()[-1]
    assert abs(ends.var(ddof=1) - 2.0) <= 3 * 2.0 * math.sqrt(2.0 / n_paths)


def test_components_are_uncorrelated():
    # correlation between the two components' first increments across paths
    grid = GridSpec(1.0, 8)
    n_paths = 10_000
    bm_first = np.empty(n_paths)
    fbm_first = np.empty(n_paths)
    for i in range(n_paths):
        seed = substream_seed(7, i)
        bm_first[i] = sample_brownian_increments(grid, substream_seed(seed, 0)).increments[0]
        fbm_first[i] = sample_fbm_cholesky(0.75, grid, substream_seed(seed, 1)).increments[0]
    corr = np.corrcoef(bm_first, fbm_first)[0, 1]
    assert abs(corr) <= 3 / math.sqrt(n_paths)


def test_mixed_path_metadata():
    grid = GridSpec(2.0, 8)
    path = build_mixed(MixedSpec(hurst=0.8), grid, 1)
    assert path.seed == 1


@pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
def test_path_seed_out_of_range_reduces_mod_2_64(seed):
    spec, grid = MixedSpec(0.75, 0.3, -1.7), GridSpec(1.0, 64)
    path = build_mixed(spec, grid, seed)
    assert path.increments.tobytes() == reference_row(spec, grid, seed).tobytes()
    assert path.increments.tobytes() == build_mixed(spec, grid, seed % 2**64).increments.tobytes()
    assert path.seed == seed


def test_float_path_seed_is_a_type_error():
    with pytest.raises(TypeError):
        build_mixed(MixedSpec(), GridSpec(1.0, 4), 1.5)


def reference_row(spec, grid, seed):
    """One mixed path assembled by hand from the per-path samplers."""
    inc = np.zeros(grid.steps_n)
    if spec.weight_bm != 0.0:
        bm = sample_brownian_increments(grid, substream_seed(seed, 0))
        inc = inc + spec.weight_bm * bm.increments
    if spec.weight_fbm != 0.0:
        fbm = sample_fbm_davies_harte(spec.hurst, grid, substream_seed(seed, 1))
        inc = inc + spec.weight_fbm * fbm.increments
    return inc


class TestEnsembleIncrements:
    """Rows of the one draw path, ``_increment_blocks``, collected by ``increment_matrix``."""

    @pytest.mark.parametrize("n", [1, 2, 3, 1024, 2048, 2049, 4096])
    @pytest.mark.parametrize("weights", [(1.0, 1.0), (1.0, 0.0), (0.0, 1.0), (0.3, -1.7), (0.0, 0.0)])
    def test_rows_match_per_path_samplers_bitwise(self, n, weights):
        spec = MixedSpec(0.75, *weights)
        grid = GridSpec(1.0, n)
        seeds = [0, 2**64 - 1] + [substream_seed(31, i) for i in range(3)]
        matrix = increment_matrix(spec, grid, seeds)
        assert matrix.shape == (len(seeds), n)
        for row, seed in zip(matrix, seeds):
            assert row.tobytes() == reference_row(spec, grid, seed).tobytes()
            assert row.tobytes() == build_mixed(spec, grid, seed).increments.tobytes()

    def test_rows_do_not_depend_on_chunking(self):
        # 200 paths at n = 1024 span several chunks, the last one partial
        spec = MixedSpec(0.7, 0.4, 1.3)
        grid = GridSpec(2.0, 1024)
        seeds = [substream_seed(77, i) for i in range(200)]
        together = increment_matrix(spec, grid, seeds)
        alone = np.vstack([increment_matrix(spec, grid, [seed]) for seed in seeds])
        assert together.tobytes() == alone.tobytes()

    @pytest.mark.parametrize(
        "n, n_seeds",
        [(2**16, 3), (1024, 70)],
        ids=["one-row blocks", "partial last block"],
    )
    def test_reused_buffers_match_per_path_samplers_bitwise(self, n, n_seeds):
        # 2**16 steps: every block is one row, so the normals and spectrum
        # buffers serve each path in turn; 1024 steps: blocks of 15 rows,
        # the last one of 10, in the first rows of the buffers
        spec = MixedSpec(0.75, 0.6, 1.4)
        grid = GridSpec(1.0, n)
        seeds = [substream_seed(53, i) for i in range(n_seeds)]
        matrix = increment_matrix(spec, grid, seeds)
        for row, seed in zip(matrix, seeds):
            assert row.tobytes() == reference_row(spec, grid, seed).tobytes()

    def test_fractional_only_rows_start_from_positive_zero(self):
        # at the smallest weight every fBm value rounds to zero, about half
        # of them to -0.0; a fractional-only row is 0.0 + w * fbm, so all
        # of its bytes are zero, in every block the buffer is reused for
        spec = MixedSpec(0.75, 0.0, 5e-324)
        matrix = increment_matrix(spec, GridSpec(1.0, 1024), [substream_seed(53, i) for i in range(70)])
        assert matrix.tobytes() == bytes(matrix.nbytes)

    def test_empty_seed_list(self):
        assert increment_matrix(MixedSpec(), GridSpec(1.0, 8), []).shape == (0, 8)

    def test_empty_seed_list_sets_up_no_spectrum(self):
        # this embedding is rejected, so only a draw with no seeds may skip it
        spec, grid = MixedSpec(hurst=0.999), GridSpec(1.0, 2**18)
        assert increment_matrix(spec, grid, []).shape == (0, 2**18)
        with pytest.raises(CirculantEmbeddingError):
            increment_matrix(spec, grid, [1])

    def test_one_state_table_per_stream_drawn(self, monkeypatch):
        # every stream drawn gets one (len(seeds), 4) uint64 table for all its
        # blocks (200 paths at n = 1024 are several), and a zero weight none
        built = []

        def counting(seeds, stream):
            table = _pcg64_states(seeds, stream)
            built.append((stream, table.dtype, table.shape))
            return table

        monkeypatch.setattr(mixed, "_pcg64_states", counting)
        seeds = np.array([substream_seed(5, i) for i in range(200)], dtype=np.uint64)
        grid = GridSpec(1.0, 1024)
        assert mixed._block_rows(1024, True, mixed._BLOCK_BYTES) < 200
        for spec, streams in [(MixedSpec(), [1, 0]), (MixedSpec(weight_fbm=0.0), [0]), (MixedSpec(weight_bm=0.0), [1])]:
            built.clear()
            blocks = [lo for lo, _ in mixed._increment_blocks(spec, grid, seeds)]
            assert len(blocks) > 1, spec
            assert built == [(stream, np.uint64, (200, 4)) for stream in streams], spec

    def test_overflowing_weight_is_rejected(self):
        with pytest.raises(ValueError, match="NaN or Inf"):
            increment_matrix(MixedSpec(weight_bm=1e308), GridSpec(1e6, 4), [1])

    @pytest.mark.parametrize("lo", [0, 16], ids=["mid-block", "first row"])
    def test_rows_above_an_overflowing_row_are_yielded_first(self, lo):
        # one block of one-step rows from path lo on, of which path 16 is the
        # first to overflow: the rows above it are yielded, then the error raised
        spec, grid = MixedSpec(weight_bm=1e308, weight_fbm=0.0), GridSpec(1.0, 1)
        seeds = [substream_seed(42, i) for i in range(lo, 50)]
        with np.errstate(over="ignore"):
            reference = np.vstack([reference_row(spec, grid, seed) for seed in seeds])
        bad = int(np.isfinite(reference).all(axis=1).argmin())
        assert bad == 16 - lo
        yielded = []
        with pytest.raises(ValueError, match="NaN or Inf"):
            for at, block in mixed._increment_blocks(spec, grid, np.array(seeds, dtype=np.uint64)):
                yielded.append((at, block.tobytes()))
        assert yielded == ([(0, reference[:bad].tobytes())] if bad else [])


class TestBlockRows:
    """The rows of a draw block: as many as its buffers fit in the byte budget."""

    @pytest.mark.parametrize("n", [1, 16, 1024, 4096, 2**14, 2**16])
    @pytest.mark.parametrize(
        "budget, normals", [(mixed._BLOCK_BYTES, 2**17), (_SIMULATE_BLOCK_BYTES, 2**13)], ids=["harness", "simulate"]
    )
    def test_rows_fit_the_budget(self, n, budget, normals):
        # the rows that blocks took when both kinds counted 2n normals a row
        counted = max(1, normals // (2 * n))
        assert mixed._block_rows(n, False, budget) == counted
        rows, row_bytes = mixed._block_rows(n, True, budget), 32 * n + 16
        assert 1 <= rows <= counted
        assert rows * row_bytes <= budget or rows == min(4, counted)  # fits, or sits at the floor
        assert (rows + 1) * row_bytes > budget or rows == counted  # and takes every row that fits

    def test_figure1_and_bracket_fine_draw_one_row_at_a_time(self):
        assert mixed._block_rows(4096, True, _SIMULATE_BLOCK_BYTES) == 1
        assert mixed._block_rows(2**16, True, mixed._BLOCK_BYTES) == 1


class TestDeriveCoupled:
    """Coarse views of one driver path by block sums, as the convergence harness derives them."""

    def test_pairwise_block_sum(self):
        fine, coarse = (path.increments for path in coupled_paths(MixedSpec(), 1.0, 8, [4], 2))
        for k in range(4):
            assert coarse[k] == fine[2 * k] + fine[2 * k + 1]

    def test_block_sums_within_ulps(self):
        # block sums against exact (fsum) summation: <= 8 ulp of the summands
        fine, coarse = (path.increments for path in coupled_paths(MixedSpec(), 1.0, 2**10, [2**5], 3))
        ratio = 2**5
        for k in range(2**5):
            block = fine[k * ratio : (k + 1) * ratio]
            exact = math.fsum(block)
            scale = np.max(np.abs(block))
            assert abs(coarse[k] - exact) <= 8 * np.spacing(scale)

    def test_terminal_value_shared_across_views(self):
        coarse_list = [2**j for j in range(6, 12)]
        fine, *views = coupled_paths(MixedSpec(), 1.0, 2**14, coarse_list, 11)
        reference = fine.path_values()[-1]
        for view in views:
            end = view.path_values()[-1]
            assert abs(end - reference) <= 1e-10 * max(1.0, abs(reference))

    def test_non_divisor_is_named(self):
        with pytest.raises(ValueError, match="3"):
            _split_grid(8, 3, "coarse step count", "n_fine")

    def test_deterministic(self):
        a = coupled_paths(MixedSpec(), 1.0, 64, [8, 16], 5)
        b = coupled_paths(MixedSpec(), 1.0, 64, [8, 16], 5)
        for path_a, path_b in zip(a, b, strict=True):
            assert np.array_equal(path_a.increments, path_b.increments)

    def test_views_share_seed_lineage(self):
        # every view comes from the path seed's own substreams
        fine, coarse = coupled_paths(MixedSpec(), 1.0, 64, [8], 5)
        direct = reference_row(MixedSpec(), GridSpec(1.0, 64), 5)
        assert fine.increments.tobytes() == direct.tobytes()
        assert coarse.increments.tobytes() == _block_sums(direct, 8).tobytes()


@given(
    seed=st.integers(0, 2**64 - 1),
    n_fine=st.sampled_from([8, 16, 32]),
    weight_bm=st.floats(-2.0, 2.0),
    weight_fbm=st.floats(-2.0, 2.0),
)
@settings(max_examples=30, deadline=None)
def test_build_mixed_is_pure(seed, n_fine, weight_bm, weight_fbm):
    spec = MixedSpec(hurst=0.75, weight_bm=weight_bm, weight_fbm=weight_fbm)
    grid = GridSpec(1.0, n_fine)
    assert np.array_equal(
        build_mixed(spec, grid, seed).increments, build_mixed(spec, grid, seed).increments
    )
