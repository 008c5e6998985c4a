"""Harness tests: convergence studies, positivity audits, MC statistics."""

import math
import tracemalloc
import weakref

import numpy as np
import pytest
from conftest import coupled_paths, increment_matrix
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mfcir.experiments as experiments
import mfcir.mixed as mixed
import mfcir.noise as noise
from mfcir.bracket import discrete_ito_iterated
from mfcir.cli import main
from mfcir.experiments import (
    ConvergenceReport,
    McStats,
    PositivityReport,
    _chunks,
    _fit_order,
    _stepped_chunks,
    run_bracket,
    run_convergence,
    run_mc_stats,
    run_positivity,
)
from mfcir.mixed import MixedSpec, build_mixed
from mfcir.noise import GridSpec, NoisePath, _path_seeds
from mfcir.scheme import CirParams, simulate_z, simulate_z_batch, z_to_r

PARAMS = CirParams(k=1.0, theta=0.75, sigma=1.0, r0=0.0625)  # m = 0.5, z0 = 0.5
ZERO_NOISE = MixedSpec(hurst=0.75, weight_bm=0.0, weight_fbm=0.0)


@pytest.fixture
def draws(monkeypatch):
    """The seeds of every call of the block generator, from the harnesses or from mixed; it still draws."""
    calls = []
    blocks = experiments._increment_blocks

    def spy(spec, grid, seeds):
        calls.append(list(seeds))
        return blocks(spec, grid, seeds)

    monkeypatch.setattr(experiments, "_increment_blocks", spy)
    monkeypatch.setattr(mixed, "_increment_blocks", spy)
    return calls


def _bound_violations(params, grid, increments, z):
    """Reference envelope count: rows of ``z`` (paths, n + 1) that pierce it."""
    sup_m = np.abs(np.cumsum(increments, axis=1)).max(axis=1)
    return experiments._envelope_violations(params, grid, sup_m, z.max(axis=1))


def _coupled_solutions(params, spec, n_list, n_ref, seed):
    """(driver, trajectory) on the fine grid, then on each coarse grid, for one seed."""
    return [(noise, simulate_z(params, noise)) for noise in coupled_paths(spec, 1.0, n_ref, n_list, seed)]


def _convergence_reference(params, spec, n_list, n_ref, seeds):
    """Per-seed errors and envelope count of a convergence study, one seed at a time."""
    errors = np.empty((len(seeds), len(n_list)))
    violations = 0
    for row, seed in enumerate(seeds):
        solutions = _coupled_solutions(params, spec, n_list, n_ref, seed)
        ref = solutions[0][1]
        for noise, traj in solutions:
            violations += _bound_violations(params, noise.grid, noise.increments[None, :], traj.z_values[None, :])
        for col, (noise, traj) in enumerate(solutions[1:]):
            on_fine = np.interp(ref.grid.times, noise.grid.times, traj.z_values)
            errors[row, col] = np.max(np.abs(on_fine - ref.z_values))
    return errors, violations


class TestConvergence:
    def test_zero_noise_recovers_ode_order(self):
        # with the driver switched off the scheme is implicit Euler on an
        # ODE, and the fitted order must sit near the classical 1.
        report = run_convergence(PARAMS, ZERO_NOISE, 1.0, [2**4, 2**5, 2**6], 2**9, 1, 0)
        assert 0.85 <= report.fitted_order <= 1.2
        assert report.fit_r2 > 0.99
        assert report.bound_violations == 0
        assert report.fit_note == ""

    def test_mixed_driver_smoke(self):
        report = run_convergence(PARAMS, MixedSpec(), 1.0, [2**5, 2**6, 2**7], 2**11, 8, 0)
        assert isinstance(report, ConvergenceReport)
        assert 0.2 <= report.fitted_order <= 0.9
        assert report.fit_r2 > 0.9
        assert all(e > 0.0 for e in report.sup_errors)
        assert all(a > b for a, b in zip(report.sup_errors, report.sup_errors[1:]))
        assert report.errors_per_seed.shape == (8, 3)
        assert report.n_paths == 8
        assert report.n_ref == 2**11

    def test_deterministic(self):
        a = run_convergence(PARAMS, MixedSpec(), 1.0, [2**4, 2**5], 2**8, 2, 3)
        b = run_convergence(PARAMS, MixedSpec(), 1.0, [2**4, 2**5], 2**8, 2, 3)
        assert a.sup_errors == b.sup_errors
        assert np.array_equal(a.errors_per_seed, b.errors_per_seed)
        assert a.fitted_order == b.fitted_order

    def test_unsorted_n_list_is_sorted(self):
        report = run_convergence(PARAMS, ZERO_NOISE, 1.0, [2**5, 2**4], 2**8, 1, 0)
        assert report.n_list == (2**4, 2**5)

    def test_refuses_non_feller(self):
        bad = CirParams(1.0, 0.505, 1.01, 0.04)  # 2 k theta = 1.01 < sigma^2
        with pytest.raises(ValueError, match="Feller"):
            run_convergence(bad, MixedSpec(), 1.0, [2**4], 2**8, 1, 0)

    def test_reference_grid_guard(self):
        with pytest.raises(ValueError, match="8"):
            run_convergence(PARAMS, ZERO_NOISE, 1.0, [2**6], 2**8, 1, 0)

    def test_rejects_duplicates_and_empty(self):
        with pytest.raises(ValueError, match="duplicates"):
            run_convergence(PARAMS, ZERO_NOISE, 1.0, [16, 16], 2**9, 1, 0)
        with pytest.raises(ValueError):
            run_convergence(PARAMS, ZERO_NOISE, 1.0, [], 2**9, 1, 0)
        with pytest.raises(ValueError):
            run_convergence(PARAMS, ZERO_NOISE, 1.0, [16], 2**9, 0, 0)

    def test_rejects_non_divisor(self):
        with pytest.raises(ValueError, match="24"):
            run_convergence(PARAMS, ZERO_NOISE, 1.0, [24], 2**9, 1, 0)

    @pytest.mark.parametrize("n_list", [[8.7, 16], [8.0, 16], [16, np.float64(32)], [True, 16]])
    def test_rejects_non_integer_grids_before_any_draw(self, draws, n_list):
        with pytest.raises(TypeError, match="coarse step count must be an integer"):
            run_convergence(PARAMS, ZERO_NOISE, 1.0, n_list, 2**9, 1, 0)
        assert draws == []

    @pytest.mark.parametrize(
        "coarse, error, message",
        [
            ([4.0], TypeError, "coarse step count must be an integer, got 4.0"),
            ([True], TypeError, "coarse step count must be an integer, got True"),
            ([2.5], TypeError, "coarse step count must be an integer, got 2.5"),
            ([0], ValueError, "coarse step count must be >= 1, got 0"),
            ([3], ValueError, "coarse step count 3 does not divide n_fine 32"),
        ],
        ids=["float", "bool", "fraction", "zero", "non-divisor"],
    )
    def test_derive_coupled_rejects_grids_as_the_harness_does_before_any_draw(self, draws, coarse, error, message):
        # the coupled grids are derived by the harness alone, which names a rejected grid before any draw
        with pytest.raises(error) as info:
            run_convergence(PARAMS, MixedSpec(), 1.0, coarse, 32, 1, 0)
        assert str(info.value) == message
        assert draws == []

    def test_numpy_integer_grids_are_ints(self):
        report = run_convergence(PARAMS, ZERO_NOISE, 1.0, np.array([16, 32]), 2**8, 1, 0)
        assert report.n_list == (16, 32) and all(type(n) is int for n in report.n_list)

    @pytest.mark.parametrize("rows", [1, 3, None])
    @pytest.mark.parametrize(
        "spec, n_list, n_ref",
        [
            (MixedSpec(weight_bm=2.0), [4, 8, 16], 128),  # many steps take the c < 0 root branch
            (MixedSpec(hurst=0.9, weight_fbm=-1.5), [16, 64], 2**10),
        ],
    )
    def test_matches_per_seed_reference(self, monkeypatch, rows, spec, n_list, n_ref):
        # the chunked study equals, bit for bit, build_mixed + block sums +
        # simulate_z + np.interp run one seed at a time
        errors, violations = _convergence_reference(PARAMS, spec, n_list, n_ref, _path_seeds(17, 0, 7))
        if rows is not None:
            monkeypatch.setattr(experiments, "_SWEEP_ROWS", rows)
        medians = np.median(errors, axis=0)
        for ring in each_ring(monkeypatch):
            report = run_convergence(PARAMS, spec, 1.0, n_list, n_ref, 7, 17)
            assert np.array_equal(report.errors_per_seed, errors), ring
            assert report.sup_errors == tuple(float(e) for e in medians), ring
            assert report.fitted_order == _fit_order(n_list, medians)[0], ring
            assert report.bound_violations == violations, ring

    def test_brownian_strong_order_band(self):
        # Brownian driver: strong order 1/2 (Dereich, Neuenkirch & Szpruch
        # 2012); the sup-norm error carries a log factor, so the fit sits
        # somewhat below 1/2.
        params = CirParams(k=1.0, theta=1.0, sigma=1.0, r0=1.0)
        n_list = [2**j for j in range(6, 11)]
        report = run_convergence(params, MixedSpec(weight_fbm=0.0), 1.0, n_list, 2**14, 50, 909)
        assert 0.35 <= report.fitted_order <= 0.6
        assert report.fit_r2 >= 0.99
        assert all(a > b for a, b in zip(report.sup_errors, report.sup_errors[1:]))
        assert report.bound_violations == 0


class TestFitOrder:
    def test_excludes_zero_medians_with_note(self):
        order, r2, note = _fit_order([4, 8, 16], np.array([0.0, 1e-2, 5e-3]))
        assert "4" in note
        assert math.isfinite(order) and math.isfinite(r2)

    def test_too_few_points(self):
        order, r2, note = _fit_order([4, 8], np.array([0.0, 1e-2]))
        assert math.isnan(order) and math.isnan(r2)
        assert note != ""

    def test_exact_power_law(self):
        n = np.array([4.0, 8.0, 16.0, 32.0])
        order, r2, note = _fit_order(n.astype(int), 2.0 * n**-0.5)
        assert order == pytest.approx(0.5, abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)
        assert note == ""

    def test_matches_a_least_squares_solver(self):
        # the closed form against np.polyfit, the LAPACK fit that it replaced, on scattered points
        n = np.array([8, 16, 32, 64, 128])
        medians = n**-0.6 * np.exp(np.random.default_rng(7).normal(0.0, 0.3, n.size))
        x, y = np.log(n), np.log(medians)
        slope, intercept = np.polyfit(x, y, 1)
        r2 = 1.0 - np.sum((y - slope * x - intercept) ** 2) / np.sum((y - y.mean()) ** 2)
        assert _fit_order(n, medians)[:2] == pytest.approx((-slope, r2), rel=1e-12)


class TestPositivity:
    GRID = GridSpec(1.0, 2**9)

    def test_feller_margin_run(self):
        params = CirParams(1.0, 1.0, 1.0, 0.04)  # m = 1
        report = run_positivity(params, MixedSpec(), self.GRID, 200, 7)
        assert isinstance(report, PositivityReport)
        assert report.min_z > 0.0
        assert report.min_r > 0.0
        assert report.feller_ok
        assert report.bound_violations == 0
        assert report.min_r == z_to_r(report.min_z, params.sigma)
        assert report.n_paths == 200

    def test_thin_feller_margin_gets_closer_to_zero(self):
        margin = run_positivity(CirParams(1.0, 1.0, 1.0, 0.04), MixedSpec(), self.GRID, 200, 7)
        boundary = run_positivity(
            CirParams(1.0, 0.505, 1.0, 0.04), MixedSpec(), self.GRID, 200, 7
        )  # 2 k theta = 1.01 sigma^2
        assert boundary.feller_ok
        assert 0.0 < boundary.min_r < margin.min_r

    def test_non_feller_still_positive(self):
        params = CirParams(1.0, 0.35, 1.0, 0.04)  # m = -0.3, still > -1/2
        report = run_positivity(params, MixedSpec(), self.GRID, 50, 11)
        assert not report.feller_ok
        assert report.min_z > 0.0

    def test_zero_noise_minimum_from_below(self):
        # start below the drift root: the flow only rises, so the minimum
        # is the initial state itself.
        report = run_positivity(PARAMS, ZERO_NOISE, GridSpec(10.0, 2**8), 3, 0)
        assert report.min_z == PARAMS.z0

    def test_zero_noise_minimum_from_above(self):
        # start above the drift root: the flow decays toward it without
        # crossing, so the minimum hugs the root from above.
        params = CirParams(1.0, 0.75, 1.0, 4.0)  # z0 = 4 > z* = sqrt(2)
        z_star = math.sqrt((2.0 * params.m + 1.0) / params.k)
        report = run_positivity(params, ZERO_NOISE, GridSpec(10.0, 2**8), 1, 0)
        assert z_star <= report.min_z <= z_star + 0.01
        assert report.min_z < params.z0

    def test_rejects_empty_ensemble(self):
        with pytest.raises(ValueError):
            run_positivity(PARAMS, MixedSpec(), self.GRID, 0, 0)

    @pytest.mark.parametrize("master", [-1, 2**64, 2**70])
    def test_master_seed_out_of_range_reduces_mod_2_64(self, master):
        grid = GridSpec(1.0, 64)
        report = run_positivity(PARAMS, MixedSpec(), grid, 5, master)
        reduced = run_positivity(PARAMS, MixedSpec(), grid, 5, master % 2**64)
        assert (report.min_z, report.bound_violations) == (reduced.min_z, reduced.bound_violations)

    def test_float_master_seed_is_a_type_error(self, draws):
        with pytest.raises(TypeError):
            run_positivity(PARAMS, MixedSpec(), self.GRID, 5, 7.0)
        assert draws == []


def _cir_law(params, t):
    """Mean, variance, fourth cumulant and Laplace transform u -> E exp(-u r_t) of the CIR rate r_t.

    r_t is c X, with X noncentral chi-square of delta degrees of freedom and
    noncentrality lam (Cox, Ingersoll & Ross 1985).
    """
    k, theta, sigma, r0 = params.k, params.theta, params.sigma, params.r0
    decay = math.exp(-k * t)
    c = sigma**2 * (1.0 - decay) / (4.0 * k)
    delta = 4.0 * k * theta / sigma**2
    lam = r0 * decay / c

    def laplace(u):
        return (1.0 + 2.0 * c * u) ** (-delta / 2.0) * math.exp(-lam * c * u / (1.0 + 2.0 * c * u))

    return c * (delta + lam), c**2 * 2.0 * (delta + 2.0 * lam), c**4 * 48.0 * (delta + 4.0 * lam), laplace


class TestMcStats:
    def test_initial_time_limit(self):
        grid = GridSpec(1.0, 2**6)
        stats = run_mc_stats(PARAMS, MixedSpec(), grid, 1e-9, 32, 5)
        assert stats.sample_mean == PARAMS.r0
        assert stats.sample_se == 0.0

    def test_strong_reversion_reaches_level(self):
        # zero noise, stiff reversion: the stationary state of the
        # transformed flow is theta - sigma^2 / (4 k), within 1e-3 of theta.
        params = CirParams(50.0, 0.04, 0.1, 0.08)
        stats = run_mc_stats(params, ZERO_NOISE, GridSpec(1.0, 2**8), 1.0, 2, 1)
        assert abs(stats.sample_mean - params.theta) <= 1e-3
        assert stats.sample_se == 0.0
        assert stats.closed_form_mean == pytest.approx(params.theta, abs=1e-12)

    def test_classical_mean_recovered(self):
        params = CirParams(1.0, 0.04, 0.2, 0.08)
        grid = GridSpec(1.0, 2**8)
        stats = run_mc_stats(params, MixedSpec(weight_fbm=0.0), grid, 1.0, 2000, 4242)
        assert stats.closed_form_mean is not None
        expected = 0.04 + 0.04 * math.exp(-1.0)
        assert stats.closed_form_mean == pytest.approx(expected, rel=1e-12)
        tol = max(3.0 * stats.sample_se, 2.0 * grid.dt)
        assert abs(stats.sample_mean - stats.closed_form_mean) <= tol

    @pytest.mark.parametrize(
        "params",
        [CirParams(1.0, 0.04, 0.2, 0.08), CirParams(1.0, 1.0, 1.0, 1.0)],  # README mcstats, figure1
        ids=["readme", "figure1"],
    )
    def test_classical_variance_recovered(self, params):
        # With w_bm = 1 and w_fbm = 0 the rate is a CIR process: r_t is
        # c X with X noncentral chi-square (d degrees of freedom,
        # noncentrality lam), whose cumulants give the variance and the
        # standard error of the sample standard deviation,
        # sqrt(kappa4 + 2 kappa2^2) / (2 sqrt(kappa2 n)).
        n_paths = 20000
        stats = run_mc_stats(params, MixedSpec(weight_fbm=0.0), GridSpec(1.0, 2**8), 1.0, n_paths, 4242)
        k, theta, sigma, r0 = params.k, params.theta, params.sigma, params.r0
        decay = math.exp(-k * stats.t_used)
        variance = r0 * sigma**2 / k * (decay - decay**2) + theta * sigma**2 / (2 * k) * (1 - decay) ** 2
        c = sigma**2 * (1 - decay) / (4 * k)
        d = 4 * k * theta / sigma**2
        lam = 4 * k * decay * r0 / (sigma**2 * (1 - decay))
        kappa2 = c**2 * 2 * (d + 2 * lam)
        kappa4 = c**4 * 48 * (d + 4 * lam)
        assert kappa2 == pytest.approx(variance, rel=1e-12)
        sd_se = math.sqrt(kappa4 + 2 * kappa2**2) / (2 * math.sqrt(kappa2 * n_paths))
        sample_sd = stats.sample_se * math.sqrt(n_paths)
        assert abs(sample_sd - math.sqrt(variance)) <= 4.0 * sd_se

    def test_brownian_law_at_512_steps(self):
        # At w_bm = 1, w_fbm = 0 and n = 512 the scheme's r_T matches the
        # exact CIR law in its mean, its variance and its Laplace transform
        # at u = 5 / theta and 20 / theta, each within 4 standard errors.
        params = CirParams(1.0, 0.04, 0.2, 0.08)
        grid = GridSpec(5.0, 512)
        n_paths = 40000
        r = np.empty(n_paths)
        chunks = _chunks(grid, n_paths, 3)
        for lo, [(z, _, _)] in _stepped_chunks(params, MixedSpec(weight_fbm=0.0), [grid], chunks):
            r[lo : lo + z.shape[1]] = z_to_r(z[-1], params.sigma)
        mean, variance, kappa4, laplace = _cir_law(params, grid.horizon_t)
        assert abs(r.mean() - mean) <= 4.0 * math.sqrt(variance / n_paths)
        assert abs(r.var(ddof=1) - variance) <= 4.0 * math.sqrt((kappa4 + 2.0 * variance**2) / n_paths)
        for u in (5.0 / params.theta, 20.0 / params.theta):
            se = math.sqrt((laplace(2.0 * u) - laplace(u) ** 2) / n_paths)
            assert abs(np.exp(-u * r).mean() - laplace(u)) <= 4.0 * se, u

    def test_weak_order_of_the_laplace_transform(self):
        # The error of E exp(-u r_T) at u = 5 / theta falls like 1 / n: grids
        # of 4, 8, 16 and 32 steps, block-summed from one 64-step Brownian
        # driver (w_fbm = 0), 50 000 paths.  Over seeds 1-40 the fitted order
        # ran 0.87-1.25 (1.10 at this seed).  Stepping with d = m dt gives
        # -0.19, and Brownian increments scaled by 1.1 give 0.52-0.71 over
        # seeds 1-5.
        params = CirParams(1.0, 0.04, 0.2, 0.08)
        coarse = (4, 8, 16, 32)
        grids = [GridSpec(5.0, 64)] + [GridSpec(5.0, n) for n in coarse]
        n_paths, u = 50000, 5.0 / params.theta
        sums = np.zeros(len(coarse))
        chunks = _chunks(grids[0], n_paths, 3)
        for _, steps in _stepped_chunks(params, MixedSpec(weight_fbm=0.0), grids, chunks):
            sums += [np.exp(-u * z_to_r(z[-1], params.sigma)).sum() for z, _, _ in steps[1:]]
        errors = sums / n_paths - _cir_law(params, 5.0)[3](u)
        order = -np.polyfit(np.log(coarse), np.log(np.abs(errors)), 1)[0]
        assert 0.75 <= order <= 1.35, (order, errors)

    def test_closed_form_only_for_brownian_driver(self):
        grid = GridSpec(1.0, 2**5)
        with_fbm = run_mc_stats(PARAMS, MixedSpec(), grid, 0.5, 8, 2)
        assert with_fbm.closed_form_mean is None
        without = run_mc_stats(PARAMS, MixedSpec(weight_fbm=0.0), grid, 0.5, 8, 2)
        assert without.closed_form_mean is not None

    def test_validation(self):
        grid = GridSpec(1.0, 2**5)
        with pytest.raises(ValueError):
            run_mc_stats(PARAMS, MixedSpec(), grid, 0.0, 8, 2)
        with pytest.raises(ValueError):
            run_mc_stats(PARAMS, MixedSpec(), grid, 1.5, 8, 2)
        with pytest.raises(ValueError):
            run_mc_stats(PARAMS, MixedSpec(), grid, 0.5, 1, 2)

    def test_health_fields(self):
        # the README mcstats configuration at a small size
        params = CirParams(1.0, 0.04, 0.2, 0.08)
        grid = GridSpec(1.0, 2**8)
        stats = run_mc_stats(params, MixedSpec(weight_fbm=0.0), grid, 1.0, 500, 42)
        assert stats.bound_violations == 0
        assert stats.t_used == 1.0
        rounded = run_mc_stats(params, MixedSpec(weight_fbm=0.0), grid, 0.3, 8, 42)
        assert rounded.t_used == 77 * grid.dt  # the grid point nearest 0.3
        assert rounded.t_eval == 0.3
        expected = 0.04 + 0.04 * math.exp(-rounded.t_used)
        assert rounded.closed_form_mean == pytest.approx(expected, rel=1e-12)

    def test_subnormal_step_rounds_t_eval_to_the_last_grid_point(self):
        # dt = 2e-323 / 3 rounds to 5e-324, so t_eval / dt is 4 on a grid of 3 steps
        grid = GridSpec(2e-323, 3)
        assert round(grid.horizon_t / grid.dt) == 4
        stats = run_mc_stats(PARAMS, MixedSpec(weight_fbm=0.0), grid, grid.horizon_t, 3, 0)
        assert stats.t_used == 3 * grid.dt

    def test_is_frozen_record(self):
        stats = run_mc_stats(PARAMS, MixedSpec(), GridSpec(1.0, 2**5), 0.5, 8, 2)
        assert isinstance(stats, McStats)
        with pytest.raises(AttributeError):
            stats.sample_mean = 0.0


class TestBracketEnsemble:
    def test_shapes_and_grids(self):
        grid = GridSpec(1.0, 2**8)
        estimates = run_bracket(MixedSpec(), grid, [1, 4, 16], 5, 99)
        assert len(estimates) == 3
        for est, refinement in zip(estimates, [1, 4, 16]):
            assert est.refinement == refinement
            assert est.grid.steps_n == 2**8 // refinement

    def test_single_path_matches_direct_call(self):
        grid = GridSpec(1.0, 2**6)
        [est] = run_bracket(MixedSpec(), grid, [4], 1, 123)
        from mfcir.mixed import build_mixed
        from mfcir.noise import substream_seed

        path = build_mixed(MixedSpec(), grid, substream_seed(123, 0))
        direct = discrete_ito_iterated(path, 4)
        assert est.qv_sum == direct.qv_sum
        assert est.bracket_value == direct.bracket_value

    def test_refinement_one_median_identity(self):
        grid = GridSpec(1.0, 2**6)
        [est] = run_bracket(MixedSpec(), grid, [1], 7, 5)
        assert est.iterated_correction == 0.0
        assert est.bracket_value == est.qv_sum

    def test_deterministic(self):
        grid = GridSpec(1.0, 2**6)
        a = run_bracket(MixedSpec(), grid, [2], 5, 8)
        b = run_bracket(MixedSpec(), grid, [2], 5, 8)
        assert a[0].bracket_value == b[0].bracket_value

    def test_rejects_empty_ensemble(self):
        with pytest.raises(ValueError):
            run_bracket(MixedSpec(), GridSpec(1.0, 8), [1], 0, 0)

    @pytest.mark.parametrize(
        "refinements, match",
        [([], "must not be empty"), ([0], "must be >= 1"), ([3], "does not divide"), ([1, 3], "does not divide")],
    )
    def test_rejects_refinements_before_any_draw(self, draws, refinements, match):
        with pytest.raises(ValueError, match=match):
            run_bracket(MixedSpec(), GridSpec(1.0, 8), refinements, 3, 0)
        assert draws == []

    @pytest.mark.parametrize("refinements", [[2.5], [2.0], [1, 2.5], [True]])
    def test_rejects_non_integer_refinements_before_any_draw(self, draws, refinements):
        with pytest.raises(TypeError, match="refinement must be an integer"):
            run_bracket(MixedSpec(), GridSpec(1.0, 8), refinements, 3, 0)
        assert draws == []

    def test_numpy_integer_refinements_are_ints(self):
        [est] = run_bracket(MixedSpec(), GridSpec(1.0, 8), np.array([4]), 3, 0)
        assert type(est.refinement) is int and est.refinement == 4

    @pytest.mark.parametrize("rows", [1, 3, None])
    @pytest.mark.parametrize("n, refinements", [(6, [1, 2, 3, 6]), (2**8, [1, 4, 16]), (1, [1])])
    def test_medians_of_per_path_estimates(self, monkeypatch, rows, n, refinements):
        # the chunked run on shared rows equals, bit for bit, the estimator
        # on one NoisePath copy per row of the whole ensemble and np.median
        # of its estimates, at odd and even path counts
        spec, grid = MixedSpec(), GridSpec(1.0, n)
        if rows is not None:
            monkeypatch.setattr(experiments, "_SWEEP_ROWS", rows)
        for n_paths in (7, 8):
            seeds = _path_seeds(11, 0, n_paths)
            paths = [
                NoisePath(grid=grid, increments=row, seed=seed)
                for row, seed in zip(increment_matrix(spec, grid, seeds), seeds)
            ]
            for est, refinement in zip(run_bracket(spec, grid, refinements, n_paths, 11), refinements, strict=True):
                per_path = [discrete_ito_iterated(path, refinement) for path in paths]
                assert est.refinement == refinement
                assert est.grid == per_path[0].grid
                for field in ("qv_sum", "iterated_correction", "bracket_value"):
                    want = float(np.median([getattr(e, field) for e in per_path]))
                    assert getattr(est, field) == want, (n_paths, field)


@pytest.mark.parametrize("n_paths", [1, 2, 7, 8])
def test_median_equals_numpy_median_bitwise(n_paths):
    # finite values and zeros of both signs, odd and even counts
    rng = np.random.default_rng(n_paths)
    a = rng.standard_normal((n_paths, 3, 3)) * 10.0 ** rng.integers(-300, 300, (n_paths, 3, 3))
    a[:, 0] = rng.choice([-0.0, 0.0], (n_paths, 3))
    a[:, 1, 0] = rng.choice([-0.0, 0.0, 1.5], n_paths)
    assert experiments._median(a).tobytes() == np.median(a, axis=0).tobytes()


@pytest.mark.parametrize(
    "run, n_paths",
    [
        (lambda: run_bracket(MixedSpec(), GridSpec(1.0, 8), [1, 2], 3, 0), 3),
        (lambda: run_convergence(PARAMS, ZERO_NOISE, 1.0, [16, 32], 2**8, 2, 0), 2),
        (lambda: run_positivity(PARAMS, MixedSpec(), GridSpec(1.0, 8), 3, 0), 3),
        (lambda: run_mc_stats(PARAMS, MixedSpec(), GridSpec(1.0, 8), 0.5, 3, 0), 3),
    ],
    ids=["bracket", "convergence", "positivity", "mc_stats"],
)
def test_valid_runs_reach_the_draw_spy(draws, run, n_paths):
    # the control of the "before any draw" tests: their spy does see draws
    run()
    assert [len(seeds) for seeds in draws] == [n_paths]


@pytest.mark.parametrize("n_paths", [2.5, True])
@pytest.mark.parametrize(
    "run",
    [
        lambda n_paths: run_bracket(MixedSpec(), GridSpec(1.0, 8), [1, 2], n_paths, 0),
        lambda n_paths: run_positivity(PARAMS, MixedSpec(), GridSpec(1.0, 8), n_paths, 0),
        lambda n_paths: run_mc_stats(PARAMS, MixedSpec(), GridSpec(1.0, 8), 0.5, n_paths, 0),
        lambda n_paths: run_convergence(PARAMS, MixedSpec(), 1.0, [4, 8], 64, n_paths, 0),
    ],
    ids=["bracket", "positivity", "mc_stats", "convergence"],
)
def test_non_integer_path_count_is_a_type_error_before_any_draw(draws, run, n_paths):
    # 2.5 used to draw three paths (np.arange(1, 3.5)) and True one
    with pytest.raises(TypeError, match="n_paths must be an integer"):
        run(n_paths)
    assert draws == []


def test_bracket_correction_overflow_alone_is_rejected(monkeypatch):
    # At refinement 2 the outer increments +x - x cancel, so every qv_sum
    # is 0, while the iterated correction x * (-x) overflows to -inf.
    def alternating(spec, grid, seeds):
        yield 0, np.tile([1e160, -1e160], (len(seeds), grid.steps_n // 2))

    monkeypatch.setattr(experiments, "_increment_blocks", alternating)
    with pytest.raises(ValueError, match="overflowed"):
        run_bracket(MixedSpec(), GridSpec(1.0, 8), [2, 4], 3, 0)


@pytest.mark.parametrize(
    "run",
    [
        lambda: _chunks(GridSpec(1.0, 8), 0, 1),
        lambda: run_positivity(PARAMS, MixedSpec(), GridSpec(1.0, 8), 0, 0),
        lambda: run_bracket(MixedSpec(), GridSpec(1.0, 8), [1], 0, 0),
        lambda: run_convergence(PARAMS, MixedSpec(), 1.0, [4, 8], 64, 0, 0),
    ],
    ids=["path_seeds", "positivity", "bracket", "convergence"],
)
def test_empty_ensemble_is_rejected_by_one_check(run):
    with pytest.raises(ValueError, match=r"^n_paths must be >= 1, got 0$"):
        run()


# m = -0.3 and a heavy Brownian weight: many steps take the c < 0 root branch.
SWEEP_PARAMS = CirParams(1.0, 0.35, 1.0, 0.04)
SWEEP_SPEC = MixedSpec(weight_bm=2.0)
SWEEP_GRID = GridSpec(1.0, 64)

# Rings of running sums for sup |M|: the shipped 64 rows, one full ring on
# n = 64; 5 rows, which divide none of n = 64, 128, 16, 8 or 4; and 100
# rows, more than every grid holds, so one partial ring.
RINGS = (64, 5, 100)


def each_ring(monkeypatch):
    """Set each of ``RINGS`` as the harness's ring length in turn, yielding it."""
    for rows in RINGS:
        monkeypatch.setattr(experiments, "_RING_ROWS", rows)
        yield rows


class TestSweep:
    def _references(self, seeds):
        return [simulate_z(SWEEP_PARAMS, build_mixed(SWEEP_SPEC, SWEEP_GRID, s)).z_values for s in seeds]

    @pytest.mark.parametrize("rows", [1, 3, 1024])
    def test_reports_do_not_depend_on_chunk_rows(self, monkeypatch, rows):
        args = (SWEEP_PARAMS, SWEEP_SPEC, SWEEP_GRID)
        positivity = run_positivity(*args, 10, 3)
        mc = run_mc_stats(*args, 0.5, 10, 3)
        monkeypatch.setattr(experiments, "_SWEEP_ROWS", rows)
        for ring in each_ring(monkeypatch):
            chunked = run_positivity(*args, 10, 3)
            assert (chunked.min_z, chunked.min_r, chunked.bound_violations) == (
                positivity.min_z,
                positivity.min_r,
                positivity.bound_violations,
            ), ring
            assert run_mc_stats(*args, 0.5, 10, 3) == mc, ring

    @pytest.mark.parametrize("index", [0, 1, 40, 64])
    def test_matches_per_path_reference(self, monkeypatch, index):
        monkeypatch.setattr(experiments, "_SWEEP_ROWS", 3)
        refs = self._references(_path_seeds(3, 0, 7))
        for ring in each_ring(monkeypatch):
            chunks = [
                (lo, z_min, z[index].copy())  # z is overwritten by the next chunk
                for lo, [(z, z_min, _)] in _stepped_chunks(
                    SWEEP_PARAMS, SWEEP_SPEC, [SWEEP_GRID], _chunks(SWEEP_GRID, 7, 3)
                )
            ]
            assert [lo for lo, _, _ in chunks] == [0, 3, 6]
            assert min(z_min for _, z_min, _ in chunks) == min(float(z.min()) for z in refs), ring
            assert np.array_equal(np.concatenate([z_at for _, _, z_at in chunks]), [z[index] for z in refs]), ring

    def test_mc_stats_reduce_the_reference_states(self, monkeypatch):
        refs = self._references(_path_seeds(3, 0, 7))
        r_at = (SWEEP_PARAMS.sigma * np.array([z[32] for z in refs]) / 2.0) ** 2
        for ring in each_ring(monkeypatch):
            stats = run_mc_stats(SWEEP_PARAMS, SWEEP_SPEC, SWEEP_GRID, 0.5, 7, 3)
            assert stats.sample_mean == float(r_at.mean()), ring
            assert stats.sample_se == float(r_at.std(ddof=1) / math.sqrt(7)), ring

    @pytest.mark.parametrize("shift_slack", [False, True])
    def test_bound_violations_match_matrix_count(self, monkeypatch, shift_slack):
        seeds = _path_seeds(5, 0, 40)
        inc = increment_matrix(SWEEP_SPEC, SWEEP_GRID, seeds)
        z = simulate_z_batch(SWEEP_PARAMS, SWEEP_GRID, inc)
        if shift_slack:
            # a negative slack half-way into the margins, so about half the
            # paths count as violations
            z0 = SWEEP_PARAMS.z0
            limit = z0 + abs(experiments.singular_drift(z0, SWEEP_PARAMS)) * SWEEP_GRID.horizon_t
            margins = limit + 2.0 * np.abs(np.cumsum(inc, axis=1)).max(axis=1) - z.max(axis=1)
            monkeypatch.setattr(experiments, "_BOUND_SLACK", -float(np.median(margins)))
        expected = _bound_violations(SWEEP_PARAMS, SWEEP_GRID, inc, z)
        assert (0 < expected < len(seeds)) if shift_slack else expected == 0
        monkeypatch.setattr(experiments, "_SWEEP_ROWS", 7)
        args = (SWEEP_PARAMS, SWEEP_SPEC, SWEEP_GRID)
        for ring in each_ring(monkeypatch):
            assert run_positivity(*args, len(seeds), 5).bound_violations == expected, ring
            assert run_mc_stats(*args, 1.0, len(seeds), 5).bound_violations == expected, ring

    @pytest.mark.parametrize("shift_slack", [False, True])
    def test_convergence_bound_violations_match_per_seed_count(self, monkeypatch, shift_slack):
        # the count is the per-seed reference summed over the fine grid and
        # every coarse grid
        spec, n_list, n_ref = MixedSpec(weight_bm=2.0), [4, 8, 16], 128
        seeds = _path_seeds(5, 0, 20)
        if shift_slack:
            z0 = PARAMS.z0
            limit = z0 + abs(experiments.singular_drift(z0, PARAMS))
            margins = [
                limit + 2.0 * np.abs(np.cumsum(noise.increments)).max() - traj.z_values.max()
                for seed in seeds
                for noise, traj in _coupled_solutions(PARAMS, spec, n_list, n_ref, seed)
            ]
            monkeypatch.setattr(experiments, "_BOUND_SLACK", -float(np.median(margins)))
        _, expected = _convergence_reference(PARAMS, spec, n_list, n_ref, seeds)
        total = len(seeds) * (1 + len(n_list))
        assert (0 < expected < total) if shift_slack else expected == 0
        monkeypatch.setattr(experiments, "_SWEEP_ROWS", 7)
        for ring in each_ring(monkeypatch):
            report = run_convergence(PARAMS, spec, 1.0, n_list, n_ref, len(seeds), 5)
            assert report.bound_violations == expected, ring

    @pytest.mark.parametrize("run", ["positivity", "mc_stats", "bracket", "convergence", "simulate"])
    def test_each_chunk_is_freed_before_the_next_is_drawn(self, monkeypatch, tmp_path, run):
        returned = []
        blocks = experiments._increment_blocks

        def spy(spec, grid, seeds, block_bytes=None):
            assert all(ref() is None for ref in returned), "the previous chunk is still alive"
            for lo, block in blocks(spec, grid, seeds, block_bytes):
                returned.append(weakref.ref(block.base))  # the generator's buffer
                yield lo, block

        monkeypatch.setattr(experiments, "_increment_blocks", spy)
        monkeypatch.setattr("mfcir.cli._increment_blocks", spy)
        monkeypatch.setattr(experiments, "_SWEEP_ROWS", 3)
        args = (SWEEP_PARAMS, SWEEP_SPEC, SWEEP_GRID)
        if run == "simulate":  # simulate draws each chunk a 2**15-byte block at a time: one block here
            assert main(["simulate", "--n", "64", "--paths", "10", "--out", str(tmp_path / "paths.csv")]) == 0
        elif run == "positivity":
            run_positivity(*args, 10, 3)
        elif run == "mc_stats":
            run_mc_stats(*args, 0.5, 10, 3)
        elif run == "bracket":
            run_bracket(SWEEP_SPEC, SWEEP_GRID, [1, 4], 10, 3)
        else:
            run_convergence(PARAMS, SWEEP_SPEC, 1.0, [4, 8], 64, 10, 3)
        assert len(returned) == 4

    @pytest.mark.parametrize(
        "argv, chunk",
        [
            (["mcstats", "--weight-fbm", "0", "--n", "1024", "--paths", "1100"], 1024),
            (["positivity", "--weight-fbm", "0", "--n", "8192", "--paths", "600"], 512),
            (["convergence", "--paths", "300"], 256),  # at the default n_ref = 2**14
        ],
    )
    def test_memory_is_bounded_by_one_chunk(self, draws, tmp_path, argv, chunk):
        assert main(argv + ["--out", str(tmp_path / "out.csv")]) == 0
        sizes = [len(seeds) for seeds in draws]
        assert max(sizes) == chunk
        assert sum(sizes) == int(argv[-1])

    @pytest.mark.parametrize(
        "line",
        [
            "positivity --n 4096 --paths 1030",
            "simulate --n 8192 --paths 520",
            "bracket --n 65536 --refinements 1,256 --paths 66",
            "convergence --paths 260 --n-list 8,16",
        ],
    )
    def test_spectrum_is_set_up_once_however_many_chunks(self, monkeypatch, tmp_path, line):
        # every chunk after the first looks its spectrum scale up in the cache
        # instead of computing it beside the sweep's state buffers
        calls = []
        eigenvalues = noise._circulant_eigenvalues

        def spy(*args):
            calls.append(args)
            return eigenvalues(*args)

        noise._spectrum_scale.cache_clear()
        monkeypatch.setattr(noise, "_circulant_eigenvalues", spy)
        assert main(line.split() + ["--out", str(tmp_path / "out")]) == 0
        assert len(calls) == 1, calls


def _traced_peak_mb(run) -> float:
    """Peak of the memory traced while ``run()`` runs, after a first run has warmed every cache."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    # tracemalloc sees numpy's buffers, so these peaks count the arrays a run holds

    @pytest.mark.parametrize("width", [1, 3])
    def test_narrow_step_holds_one_path_of_running_sums(self, width):
        # 2**16-step paths in a chunk narrower than _SCALAR_WIDTH: their
        # sup |M| is taken through one buffer of n running sums, and the
        # scalar root steps them in place, so the peak is one path's doubles
        # and a little.  Stepping 4096-step segments through lists took it
        # to 770 KiB on one path, and a fresh cumsum for each path to
        # 1157 KiB on three (2-core x86-64 box, numpy 2.4.6).
        n = 2**16
        grid = GridSpec(1.0, n)
        increments = np.random.default_rng(5).normal(scale=grid.dt**0.5, size=(n, width))
        z = np.empty((n + 1, width))

        def run():
            z[0], z[1:] = PARAMS.z0, increments
            experiments._step(PARAMS, grid, z)

        assert width < experiments._SCALAR_WIDTH
        peak = _traced_peak_mb(run)
        assert peak < (8 * n + 16 * 1024) / 1e6, peak

    def test_bracket_does_not_grow_with_paths(self):
        # one block of one 2**14-step row at a time: ten times the paths, the same peak
        grid = GridSpec(1.0, 2**14)
        peaks = [
            _traced_peak_mb(lambda: run_bracket(MixedSpec(), grid, [1, 16, 256], n_paths, 5))
            for n_paths in (4, 40)
        ]
        assert abs(peaks[1] - peaks[0]) < 0.5, peaks

    def test_sweep_holds_one_state_buffer_and_the_block_buffers(self):
        # no (640, 1024) increment matrix beside the (1025, 640) states, and
        # a Brownian-only draw holds one (rows, n) block buffer: no normals
        # of width 2n, no spectrum.  The slack covers the per-chunk
        # reductions and the sweep's temporaries; the peak measured 0.33 MB
        # above states + block (2-core x86-64 box, numpy 2.4.6).
        n, n_paths = 1024, 640
        rows = mixed._BLOCK_BYTES // (8 * n)
        states = 8 * (n + 1) * n_paths
        block = 8 * rows * n
        slack = 0.5e6
        grid = GridSpec(1.0, n)
        peak = _traced_peak_mb(lambda: run_mc_stats(PARAMS, MixedSpec(weight_fbm=0.0), grid, 0.5, n_paths, 5))
        assert peak < (states + block + slack) / 1e6, peak

    def test_fractional_sweep_holds_one_state_buffer_and_one_block_budget(self):
        # the default mixed driver: beside the (1025, 640) states, its block's
        # normals and spectra fit the block budget, as a Brownian block does,
        # with the same slack.  Counted at 2n normals a row, 64 rows held 2.0 MiB
        # and the peak read 7.93 MB, against 6.17 MB here (2-core x86-64 box,
        # numpy 2.4.6).
        n, n_paths = 1024, 640
        states = 8 * (n + 1) * n_paths
        slack = 0.5e6
        grid = GridSpec(1.0, n)
        peak = _traced_peak_mb(lambda: run_mc_stats(PARAMS, MixedSpec(), grid, 0.5, n_paths, 5))
        assert peak < (states + mixed._BLOCK_BYTES + slack) / 1e6, peak

    def test_positivity_does_not_grow_with_paths(self):
        # ten times the paths, the same peak: every chunk has 1024 paths at
        # n = 16, and only one chunk's seeds are derived at a time.  Holding
        # every seed grew the peak by 0.93 MB here, keeping one chunk's by 0.003 MB.
        grid = GridSpec(1.0, 16)
        peaks = [
            _traced_peak_mb(lambda: run_positivity(PARAMS, MixedSpec(), grid, n_paths, 5)) for n_paths in (2000, 20000)
        ]
        assert abs(peaks[1] - peaks[0]) < 0.1, peaks

    def test_spectrum_setup_does_not_stack_on_the_block_buffers(self):
        # one 2**16-step mixed path, the scale computed afresh on each run:
        # its eigenvalue temporaries (a 2n row and its n + 1 complex
        # transform, at least) are freed before the block buffers exist,
        # and the increments take the unused half of the normals
        n = 2**16
        states = 8 * (n + 1)
        blocks = 8 * 2 * n + 16 * (n + 1)  # normals, spectrum
        scale = 8 * (n + 1)
        grid = GridSpec(1.0, n)

        def run():
            noise._spectrum_scale.cache_clear()
            run_positivity(PARAMS, MixedSpec(), grid, 1, 5)

        peak = _traced_peak_mb(run)
        assert peak < (states + blocks + scale + 8 * n) / 1e6, peak


@given(
    paths=st.integers(1, 12).flatmap(
        lambda steps: st.lists(st.lists(st.floats(), min_size=steps, max_size=steps), min_size=1, max_size=4)
    ),
    ring_rows=st.integers(1, 8),
)
@example(paths=[[1e308, 1e308, -1.0], [-1e308, -1e308, 1.0]], ring_rows=2)  # both signs overflow
@example(paths=[[-0.0, -0.0], [0.0, -0.0]], ring_rows=1)
@example(paths=[[3.0, -4.0, 0.5, -2.0, 2.0]], ring_rows=2)  # the sup is -min, in the last, partial ring
@settings(max_examples=300, deadline=None)
def test_running_sup_equals_the_cumsum_of_each_path(paths, ring_rows):
    # any doubles, inf and nan included, and any ring or segment: partial, one
    # row, longer than the path; each kernel hands on the increments' sup |M|
    # whatever they hold, and whatever states they step to
    increments = np.array(paths)
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.abs(np.cumsum(increments, axis=1)).max(axis=1)
    for scalar_width in (1, 10**9):  # every chunk wide, every chunk narrow
        z = np.vstack([np.full(len(increments), PARAMS.z0), increments.T])
        with pytest.MonkeyPatch.context() as m:
            m.setattr(experiments, "_RING_ROWS", ring_rows)
            m.setattr(experiments, "_SCALAR_WIDTH", scalar_width)
            _, _, got = experiments._step(PARAMS, GridSpec(1.0, increments.shape[1]), z)
        assert np.array_equal(got, want, equal_nan=True), scalar_width


@pytest.mark.parametrize("rows", [1, 3, 64])
def test_a_nan_state_reaches_the_range_check(monkeypatch, rows):
    # the last increment of path 1 is nan, so only its last state is: numpy's
    # reductions keep it, in the last segment too (partial at 3 rows), where
    # Python's min would drop it; through either kernel
    block = np.zeros((3, 8))
    block[1, 7] = math.nan
    checked = []

    def check(z_min, z_max, sigma, _real=experiments._require_in_range):
        checked.append(z_min)
        return _real(z_min, z_max, sigma)

    monkeypatch.setattr(experiments, "_RING_ROWS", rows)
    monkeypatch.setattr(experiments, "_increment_blocks", lambda spec, grid, chunk: iter([(0, block)]))
    monkeypatch.setattr(experiments, "_require_in_range", check)
    for scalar_width in (1, 10**9):  # every chunk wide, every chunk narrow
        monkeypatch.setattr(experiments, "_SCALAR_WIDTH", scalar_width)
        checked.clear()
        chunks = iter([(0, np.arange(3, dtype=np.uint64))])
        with pytest.raises(ValueError, match="the implicit step overflowed"):
            next(_stepped_chunks(PARAMS, MixedSpec(), [GridSpec(1.0, 8)], chunks))
        assert len(checked) == 1 and math.isnan(checked[0]), scalar_width


@pytest.mark.parametrize(
    "params, spec, n",
    [
        (PARAMS, MixedSpec(), 200),  # 200 steps: a partial last segment of 64 rows
        (SWEEP_PARAMS, SWEEP_SPEC, 200),  # below Feller: many steps take the c < 0 root branch
        (PARAMS, MixedSpec(weight_bm=1e160, weight_fbm=0.0), 4),  # c * c overflows: inf and nan states
    ],
    ids=["partial-segments", "below-feller", "overflow"],
)
def test_both_kernels_step_a_chunk_alike(monkeypatch, params, spec, n):
    # the same chunk through the narrow and the wide branch of _step: equal
    # states, minimum, per-path maximum, sup |M| and violation count, bit for bit
    grid = GridSpec(1.0, n)
    increments = increment_matrix(spec, grid, _path_seeds(42, 0, 5))
    runs = []
    for scalar_width in (1, 10**9):  # every chunk wide, every chunk narrow
        monkeypatch.setattr(experiments, "_SCALAR_WIDTH", scalar_width)
        z = np.vstack([np.full(5, params.z0), increments.T])
        z_min, z_max, sup_m = experiments._step(params, grid, z)
        violations = experiments._envelope_violations(params, grid, sup_m, z_max)
        runs.append((z.tobytes(), np.float64(z_min).tobytes(), z_max.tobytes(), sup_m.tobytes(), violations))
    assert runs[0] == runs[1]
    if spec.weight_bm == 1e160:
        assert not np.isfinite(z).all()
        with pytest.raises(ValueError, match="overflowed"):
            experiments._require_in_range(z_min, z_max.max(), params.sigma)
    elif params is SWEEP_PARAMS:
        assert np.count_nonzero(z[:-1] + increments.T < 0.0) >= 30  # c < 0 on 38 of the 1000 steps
    else:
        assert np.isfinite(z).all()


def test_overflowing_driver_is_rejected_not_reported():
    # c * c overflows in the step, which then returns 0 or inf; no report
    # may carry those states as a minimum or a mean.
    spec = MixedSpec(hurst=0.75, weight_bm=1e160, weight_fbm=0.0)
    grid = GridSpec(1.0, 4)
    with pytest.raises(ValueError, match="overflowed"):
        run_positivity(PARAMS, spec, grid, 3, 42)
    with pytest.raises(ValueError, match="overflowed"):
        run_mc_stats(PARAMS, spec, grid, 1.0, 3, 42)
    with pytest.raises(ValueError, match="overflowed"):
        run_bracket(spec, grid, [1, 2], 3, 42)
    with pytest.raises(ValueError, match="overflowed"):
        run_convergence(PARAMS, spec, 1.0, [1, 2], 16, 1, 42)


def test_overflowing_driver_is_rejected_by_every_ring(monkeypatch):
    # weight 1e308 gives infinite increments, whose running sums overflow
    # to inf and nan; the chunk is rejected whatever the ring, and numpy
    # does not warn
    spec = MixedSpec(hurst=0.75, weight_bm=1e308, weight_fbm=0.0)
    for ring in each_ring(monkeypatch):
        with pytest.raises(ValueError, match="overflowed"):
            run_positivity(PARAMS, spec, GridSpec(1.0, 8), 300, 42)
        with pytest.raises(ValueError, match="overflowed"):
            run_mc_stats(PARAMS, spec, GridSpec(1.0, 8), 1.0, 300, 42)


def test_overflowing_sample_moments_are_rejected():
    # Every state and rate is finite (about 1e-301 to 1e300), but the rates'
    # sum and squared deviations are not.
    params = CirParams(1.0, 3.0, 3.0, 1.0)
    spec = MixedSpec(hurst=0.75, weight_bm=1e150, weight_fbm=0.0)
    grid = GridSpec(1.0, 1)
    assert run_positivity(params, spec, grid, 3, 42).min_z > 0.0
    with pytest.raises(ValueError, match="overflowed"):
        run_mc_stats(params, spec, grid, 1.0, 3, 42)
