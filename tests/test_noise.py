"""Gaussian generator tests: covariance oracles, determinism, error paths."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfcir.experiments import _chunks
from mfcir.noise import (
    CHOLESKY_MAX_STEPS,
    CirculantEmbeddingError,
    FactorizationError,
    GridSpec,
    NoisePath,
    STREAM_VERSION,
    _circulant_eigenvalues,
    _clamped_eigenvalues,
    _davies_harte_rows,
    _path_seeds,
    _pcg64_states,
    _rng,
    _spd_factor,
    _spectrum_scale,
    _substream_seeds,
    fbm_covariance,
    sample_brownian_increments,
    sample_fbm_cholesky,
    sample_fbm_davies_harte,
    substream_seed,
)


def fgn_autocovariance(h, dt, lag):
    """Reference autocovariance of fBm increments at the given lag."""
    e = 2.0 * h
    j = abs(lag)
    return 0.5 * dt**e * ((j + 1) ** e - 2.0 * j**e + abs(j - 1) ** e)


class TestCovariance:
    def test_brownian_case_is_min(self):
        assert fbm_covariance(0.5, 1.0, 2.0) == 1.0
        assert fbm_covariance(0.5, 2.0, 2.0) == 2.0

    def test_value_against_high_precision(self):
        # (1 + 2**1.5 - 1) / 2 = sqrt(2); recompute with mpmath at 50 digits
        import mpmath

        mpmath.mp.dps = 50
        expected = 0.5 * (mpmath.mpf(1) ** mpmath.mpf("1.5")
                          + mpmath.mpf(2) ** mpmath.mpf("1.5") - 1)
        got = fbm_covariance(0.75, 1.0, 2.0)
        assert abs(got - float(expected)) <= 4 * np.finfo(float).eps
        assert got == pytest.approx(math.sqrt(2.0), abs=1e-15)

    def test_variance_is_power_law(self):
        assert fbm_covariance(0.75, 2.0, 2.0) == pytest.approx(2.0**1.5, rel=1e-15)

    @given(
        h=st.floats(0.01, 0.99),
        s=st.floats(0.0, 50.0),
        t=st.floats(0.0, 50.0),
    )
    def test_symmetry_exact(self, h, s, t):
        assert fbm_covariance(h, s, t) == fbm_covariance(h, t, s)

    @given(s=st.floats(0.0, 50.0), t=st.floats(0.0, 50.0))
    def test_h_half_matches_min(self, s, t):
        got = fbm_covariance(0.5, s, t)
        assert got == pytest.approx(min(s, t), abs=1e-12, rel=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            fbm_covariance(1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            fbm_covariance(0.5, -1.0, 1.0)


class TestBrownian:
    def test_deterministic(self):
        grid = GridSpec(1.0, 4)
        a = sample_brownian_increments(grid, 12345)
        b = sample_brownian_increments(grid, 12345)
        assert np.array_equal(a.increments, b.increments)

    def test_path_starts_at_zero(self):
        path = sample_brownian_increments(GridSpec(1.0, 8), 3)
        assert path.path_values()[0] == 0.0

    def test_increment_variance(self):
        # N = 1e5 increments at dt = 0.01; SE of the sample variance is
        # dt * sqrt(2/N)
        n = 100_000
        grid = GridSpec(1000.0, n)
        assert grid.dt == pytest.approx(0.01)
        inc = sample_brownian_increments(grid, 99).increments
        se = grid.dt * math.sqrt(2.0 / n)
        assert abs(inc.var(ddof=1) - grid.dt) <= 3 * se


class TestCholesky:
    def test_deterministic(self):
        grid = GridSpec(1.0, 16)
        a = sample_fbm_cholesky(0.7, grid, 5)
        b = sample_fbm_cholesky(0.7, grid, 5)
        assert np.array_equal(a.increments, b.increments)

    def test_h_half_covariance_matches_brownian(self):
        # path-value covariance at (T/2, T) should estimate min(s, t) = 1/2
        grid = GridSpec(1.0, 2)
        n_paths = 10_000
        vals = np.array(
            [sample_fbm_cholesky(0.5, grid, substream_seed(17, i)).path_values()[1:]
             for i in range(n_paths)]
        )
        cov = np.cov(vals[:, 0], vals[:, 1], ddof=1)[0, 1]
        # SE of a bivariate-normal sample covariance
        se = math.sqrt((0.5 * 1.0 + 0.5**2) / n_paths)
        assert abs(cov - 0.5) <= 3 * se

    def test_marginal_variance_at_horizon(self):
        grid = GridSpec(1.0, 256)
        n_paths = 10_000
        ends = np.array(
            [sample_fbm_cholesky(0.75, grid, substream_seed(23, i)).path_values()[-1]
             for i in range(n_paths)]
        )
        se = math.sqrt(2.0 / n_paths)  # relative SE of a variance estimate
        assert abs(ends.var(ddof=1) - 1.0) <= 3 * se

    def test_size_cap_points_to_fft_generator(self):
        with pytest.raises(ValueError, match="davies_harte"):
            sample_fbm_cholesky(0.75, GridSpec(1.0, CHOLESKY_MAX_STEPS + 1), 0)

    def test_works_at_the_cap(self):
        path = sample_fbm_cholesky(0.75, GridSpec(1.0, CHOLESKY_MAX_STEPS), 1)
        assert path.increments.shape == (CHOLESKY_MAX_STEPS,)

    def test_non_spd_matrix_reports_pivot(self):
        with pytest.raises(FactorizationError, match="not numerically positive definite"):
            _spd_factor(np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestDaviesHarte:
    def test_deterministic(self):
        grid = GridSpec(1.0, 32)
        a = sample_fbm_davies_harte(0.75, grid, 5)
        b = sample_fbm_davies_harte(0.75, grid, 5)
        assert np.array_equal(a.increments, b.increments)

    def test_stationary_increment_moments(self):
        # variance and lag-1 autocovariance of the first two increments,
        # estimated over 1e4 paths at the stated grid, transformed in blocks
        # of rows with the per-path sampler's seeds and normals.  Both moments
        # scale exactly with dt**(2h), so a short grid checks what a long one
        # would; a spectrum scaled by 1.05 (+10% variance, about 7 SE) fails here.
        h, n = 0.75, 2**10
        grid = GridSpec(1.0, n)
        n_paths, rows = 10_000, 16
        normals = np.empty((rows, 2 * n))
        spectrum = np.empty((rows, n + 1), dtype=np.complex128)
        first = np.empty(n_paths)
        second = np.empty(n_paths)
        for lo in range(0, n_paths, rows):
            for row in range(rows):
                _rng(substream_seed(41, lo + row)).standard_normal(out=normals[row])
            inc = _davies_harte_rows(_spectrum_scale(h, n, grid.dt), normals, spectrum)
            first[lo : lo + rows], second[lo : lo + rows] = inc[:, 0], inc[:, 1]
        for i in (0, 1, rows, n_paths - 1):
            inc = sample_fbm_davies_harte(h, grid, substream_seed(41, i)).increments
            assert np.array([first[i], second[i]]).tobytes() == inc[:2].tobytes(), i
        g0 = fgn_autocovariance(h, grid.dt, 0)
        g1 = fgn_autocovariance(h, grid.dt, 1)
        assert g0 == pytest.approx(grid.dt**1.5, rel=1e-12)
        assert g1 == pytest.approx(0.5 * grid.dt**1.5 * (2.0**1.5 - 2.0), rel=1e-12)
        se_var = g0 * math.sqrt(2.0 / n_paths)
        assert abs(first.var(ddof=1) - g0) <= 3 * se_var
        cov01 = np.cov(first, second, ddof=1)[0, 1]
        se_cov = math.sqrt((g0 * g0 + g1 * g1) / n_paths)
        assert abs(cov01 - g1) <= 3 * se_cov

    def test_h_half_increments_uncorrelated(self):
        grid = GridSpec(1.0, 64)
        n_paths = 10_000
        first = np.empty(n_paths)
        second = np.empty(n_paths)
        for i in range(n_paths):
            inc = sample_fbm_davies_harte(0.5, grid, substream_seed(43, i)).increments
            first[i], second[i] = inc[0], inc[1]
        g0 = grid.dt
        cov01 = np.cov(first, second, ddof=1)[0, 1]
        assert abs(cov01) <= 3 * math.sqrt(g0 * g0 / n_paths)

    def test_marginal_variance_at_horizon(self):
        grid = GridSpec(1.0, 256)
        n_paths = 10_000
        ends = np.array(
            [sample_fbm_davies_harte(0.75, grid, substream_seed(29, i)).path_values()[-1]
             for i in range(n_paths)]
        )
        assert abs(ends.var(ddof=1) - 1.0) <= 3 * math.sqrt(2.0 / n_paths)

    def test_single_step_grid(self):
        path = sample_fbm_davies_harte(0.75, GridSpec(1.0, 1), 7)
        assert path.increments.shape == (1,)

    @pytest.mark.parametrize("h", [0.501, 0.75, 0.999])
    def test_embedding_positive_without_clamp_up_to_cholesky_range(self, h):
        # Davies-Harte serves every grid the Cholesky factor used to, so
        # the embedding must be positive definite there: a clamped
        # eigenvalue would read 0 and a worse one would raise.
        for n in range(1, CHOLESKY_MAX_STEPS + 1):
            lam = _circulant_eigenvalues(h, n, 1.0 / n)
            assert lam.min() > 0.0, (h, n, lam.min() / lam.max())

    @pytest.mark.parametrize("h", [0.501, 0.75, 0.999])
    def test_embedding_positive_without_clamp_on_long_grids(self, h):
        # 2**16 steps is the grid of the benchmark's bracket workload
        for n in 2 ** np.arange(12, 17):
            lam = _circulant_eigenvalues(h, int(n), 1.0 / n)
            assert lam.min() > 0.0, (h, n, lam.min() / lam.max())

    def test_eigenvalues_match_the_full_spectrum(self):
        # rfft of the symmetric circulant row gives the n + 1 distinct
        # eigenvalues of its full-length fft, lambda_k = lambda_{2n-k}
        for h in (0.501, 0.75, 0.999):
            for n in (1, 2, 3, 1024, 2049, 4096, 65536):
                gamma = fgn_autocovariance(h, 1.0 / n, np.arange(n + 1.0))
                full = np.fft.fft(np.concatenate([gamma, gamma[-2:0:-1]])).real
                lam = _circulant_eigenvalues(h, n, 1.0 / n)
                assert lam.shape == (n + 1,)
                tol = 1e-13 * lam.max()
                assert np.abs(full[: n + 1] - lam).max() <= tol, (h, n)
                assert np.all(np.abs(full[n + 1 :] - lam[n - 1 : 0 : -1]) <= tol), (h, n)

    @staticmethod
    def _full_spectrum_rows(h, grid, normals):
        """The transform as a complex ifft of the whole Hermitian spectrum."""
        n = grid.steps_n
        lam = _circulant_eigenvalues(h, n, grid.dt)
        lam = np.concatenate([lam, lam[-2:0:-1]])  # lambda_{2n-k} = lambda_k
        z = np.empty(normals.shape, dtype=np.complex128)
        z[:, 0] = normals[:, 0]
        z[:, n] = normals[:, 1]
        half = (normals[:, 2 : n + 1] + 1j * normals[:, n + 1 :]) / np.sqrt(2.0)
        z[:, 1:n] = half
        z[:, n + 1 :] = half[:, ::-1].conj()
        z *= np.sqrt(lam)
        return np.sqrt(2 * n) * np.fft.ifft(z, axis=1).real[:, :n]

    @pytest.mark.parametrize("h", [0.501, 0.75, 0.999])
    @pytest.mark.parametrize("n", [1, 2, 3, 1024, 2049, 4096, 65536])
    def test_half_spectrum_matches_full_spectrum(self, h, n):
        grid = GridSpec(1.0, n)
        normals = np.random.default_rng(n).standard_normal((3, 2 * n))
        want = self._full_spectrum_rows(h, grid, normals)
        spectrum = np.empty((3, n + 1), dtype=np.complex128)
        got = _davies_harte_rows(_spectrum_scale(h, n, grid.dt), normals, spectrum)  # overwrites normals
        assert got.shape == (3, n)
        assert np.all(np.abs(got - want).max(axis=1) <= 1e-13 * np.abs(want).max(axis=1))

    @staticmethod
    def _reference_scale(h, n, dt):
        """The spectrum scale as one whole-array expression per step."""
        j = np.arange(n + 1, dtype=np.float64)
        e = 2.0 * h
        gamma = 0.5 * dt**e * ((j + 1.0) ** e - 2.0 * j**e + np.abs(j - 1.0) ** e)
        first_row = np.concatenate([gamma, gamma[-2:0:-1]])
        lam = np.fft.rfft(first_row).real
        scale = np.sqrt(2 * n * np.where(lam < 0.0, 0.0, lam))
        scale[1:n] /= np.sqrt(2.0)
        return scale

    @pytest.mark.parametrize("h", [0.25, 0.5001, 0.75, 0.999, 0.9999])
    @pytest.mark.parametrize("n", [1, 2, 3, 1024, 2**16])
    def test_in_place_scale_is_byte_equal_to_the_expression(self, h, n):
        # at h = 0.25 both forms take sqrt for ** 0.5; at h = 0.9999 and
        # n = 2**16 an eigenvalue is clamped
        got = _spectrum_scale(h, n, 1.0 / n)
        assert not got.flags.writeable
        assert got.tobytes() == self._reference_scale(h, n, 1.0 / n).tobytes()

    def test_stream_version(self):
        # version 3: the transform is a real FFT of the half spectrum
        assert STREAM_VERSION == 3

    def test_eigenvalue_clamp_vs_raise(self):
        lam = np.array([1.0, -5e-9, 0.5])
        cleaned = _clamped_eigenvalues(lam)
        assert cleaned[1] == 0.0 and cleaned[0] == 1.0
        with pytest.raises(CirculantEmbeddingError):
            _clamped_eigenvalues(np.array([1.0, -1e-3]))
        with pytest.raises(CirculantEmbeddingError):
            _clamped_eigenvalues(np.array([-1.0, -2.0]))

    def test_overflowing_increment_variance_is_a_value_error(self):
        # dt = 2.5e299, so dt**(2H) = dt**1.5 is past the float range
        with pytest.raises(ValueError, match="overflowed"):
            sample_fbm_davies_harte(0.75, GridSpec(1e300, 4), 0)


@given(
    kind=st.sampled_from(["brownian", "cholesky", "davies_harte"]),
    h=st.floats(0.55, 0.95),
    n=st.integers(1, 64),
    horizon=st.floats(0.1, 10.0),
    seed=st.integers(0, 2**64 - 1),
)
@settings(max_examples=60, deadline=None)
def test_generator_outputs_are_clean_and_pure(kind, h, n, horizon, seed):
    grid = GridSpec(horizon, n)
    if kind == "brownian":
        gen = lambda: sample_brownian_increments(grid, seed)
    elif kind == "cholesky":
        gen = lambda: sample_fbm_cholesky(h, grid, seed)
    else:
        gen = lambda: sample_fbm_davies_harte(h, grid, seed)
    path = gen()
    assert path.increments.shape == (n,)
    assert np.all(np.isfinite(path.increments))
    assert np.array_equal(path.increments, gen().increments)


class TestSubstreams:
    def test_deterministic_and_distinct(self):
        assert substream_seed(42, 0) == substream_seed(42, 0)
        seen = {substream_seed(42, i) for i in range(1000)}
        assert len(seen) == 1000

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            substream_seed(1, -1)

    def test_range(self):
        assert 0 <= substream_seed(2**64 - 1, 123) < 2**64


class TestArraySeeds:
    """The array pass that derives an ensemble's seeds equals substream_seed bit for bit."""

    SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
    INDICES = [0, 1, 2, 2**32, 10**6]
    OUT_OF_RANGE = [-1, 2**64, 2**70]  # substream_seed reduces them mod 2**64

    @pytest.mark.parametrize("index", INDICES)
    def test_substream_seeds_equal_the_scalar_rule(self, index):
        derived = _substream_seeds(self.SEEDS, index)
        assert derived.dtype == np.uint64 and derived.shape == (len(self.SEEDS),)
        assert derived.tolist() == [substream_seed(s, index) for s in self.SEEDS]

    def test_seeds_out_of_range_reduce_as_in_the_scalar_rule(self):
        for index in self.INDICES:
            expected = [substream_seed(s, index) for s in self.OUT_OF_RANGE]
            assert _substream_seeds(self.OUT_OF_RANGE, index).tolist() == expected
            assert expected == [substream_seed(s % 2**64, index) for s in self.OUT_OF_RANGE]
        assert _substream_seeds([np.uint64(2**64 - 1), True], 1).tolist() == [
            substream_seed(2**64 - 1, 1), substream_seed(1, 1)
        ]

    @pytest.mark.parametrize("master", SEEDS + OUT_OF_RANGE)
    def test_path_seeds_equal_the_scalar_rule(self, master):
        assert _path_seeds(master, 0, 70) == [substream_seed(master, i) for i in range(70)]
        # a chunk's range, derived on its own
        assert _path_seeds(master, 17, 40) == [substream_seed(master, i) for i in range(17, 40)]

    def test_path_seeds_of_a_negative_master(self):
        assert _path_seeds(-1, 0, 2) == [16490336266968443936, 16834447057089888969]

    def test_a_float_seed_is_a_type_error(self):
        for derive in (
            lambda: _path_seeds(1.5, 0, 2),
            lambda: _path_seeds(2.0, 0, 2),
            lambda: _substream_seeds([3, 1.5], 0),
            lambda: _chunks(GridSpec(1.0, 8), 2, 1.5),  # checked when the ensemble is named
        ):
            with pytest.raises(TypeError):
                derive()


class TestGridAndPathValidation:
    def test_grid_rejects_bad_values(self):
        with pytest.raises(ValueError):
            GridSpec(0.0, 4)
        with pytest.raises(ValueError):
            GridSpec(1.0, 0)
        with pytest.raises(TypeError):
            GridSpec(1.0, 2.5)

    def test_grid_times(self):
        grid = GridSpec(2.0, 4)
        assert grid.dt == 0.5
        assert np.array_equal(grid.times, [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_noise_path_validation(self):
        grid = GridSpec(1.0, 3)
        with pytest.raises(ValueError, match="shape"):
            NoisePath(grid=grid, increments=np.zeros(4), seed=0)
        with pytest.raises(ValueError, match="NaN"):
            NoisePath(grid=grid, increments=np.array([0.0, np.nan, 0.0]), seed=0)

    def test_increments_are_read_only(self):
        path = sample_brownian_increments(GridSpec(1.0, 4), 0)
        with pytest.raises(ValueError):
            path.increments[0] = 1.0


class TestPcg64States:
    """The vectorized seeding reproduces numpy's SeedSequence + PCG64 seeding.

    A failure here means numpy changed SeedSequence's hash or PCG64's
    seeding, which ``_pcg64_states`` re-implements.
    """

    SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1] + [
        int(s) for s in np.random.default_rng(2024).integers(0, 2**64, 300, dtype=np.uint64, endpoint=False)
    ]

    def test_states_equal_constructed_generators(self):
        for seed, state in zip(self.SEEDS, list(_pcg64_states(self.SEEDS))):
            reference = np.random.PCG64(seed).state
            assert state["state"]["state"] == reference["state"]["state"], seed
            assert state["state"]["inc"] == reference["state"]["inc"], seed
            assert state == reference, seed

    def test_draws_after_state_assignment(self):
        gen = np.random.Generator(np.random.PCG64(0))
        seeds = self.SEEDS[:8]
        for seed, state in zip(seeds, list(_pcg64_states(seeds))):
            gen.bit_generator.state = state
            fresh = np.random.Generator(np.random.PCG64(seed)).standard_normal(257)
            assert np.array_equal(gen.standard_normal(257), fresh), seed
