"""Acceptance gate: nine end-to-end criteria with pinned tolerances.

Each test prints one PASS/FAIL line in the terminal summary (see
conftest.pytest_terminal_summary).  Tolerances and workloads are fixed;
loosening them is not an option when a criterion drifts — fix the code.
"""

import math

import numpy as np
import pytest

from mfcir.bracket import discrete_ito_iterated
from mfcir.cli import main
from mfcir.experiments import run_convergence, run_mc_stats, run_positivity
from mfcir.mixed import MixedSpec, build_mixed
from mfcir.noise import (
    GridSpec,
    NoisePath,
    sample_brownian_increments,
    sample_fbm_cholesky,
    sample_fbm_davies_harte,
    substream_seed,
)
from mfcir.scheme import CirParams, _scalar_steps

UNIT_PARAMS = CirParams(k=1.0, theta=1.0, sigma=1.0, r0=1.0)  # Feller margin m = 1


@pytest.fixture(scope="module")
def positivity_reports():
    """Margin and near-boundary audits shared by criteria 4 and 8."""
    grid = GridSpec(1.0, 2**12)
    margin = run_positivity(UNIT_PARAMS, MixedSpec(hurst=0.75), grid, 1000, 314)
    # 2 k theta = 1.005 sigma^2 puts the Feller margin at m = 0.005
    thin = CirParams(k=1.0, theta=0.5025, sigma=1.0, r0=1.0)
    boundary = run_positivity(thin, MixedSpec(hurst=0.75), grid, 1000, 314)
    return margin, boundary


@pytest.fixture(scope="module")
def convergence_report():
    """Order study shared by criteria 5 and 8."""
    return run_convergence(
        UNIT_PARAMS,
        MixedSpec(hurst=0.75),
        1.0,
        [2**6, 2**7, 2**8, 2**9, 2**10],
        2**14,
        50,
        909,
    )


def test_criterion_1_bracket_identity():
    # median QV of the mixed driver near its horizon; fractional part alone
    # contributes (almost) nothing.
    grid = GridSpec(1.0, 2**16)
    mixed_qv = []
    fbm_qv = []
    for seed in range(100):
        mixed_qv.append(discrete_ito_iterated(build_mixed(MixedSpec(hurst=0.75), grid, seed), 1).qv_sum)
        fbm_only = build_mixed(MixedSpec(hurst=0.75, weight_bm=0.0), grid, seed)
        fbm_qv.append(discrete_ito_iterated(fbm_only, 1).qv_sum)
    assert 0.95 <= float(np.median(mixed_qv)) <= 1.05
    assert float(np.median(fbm_qv)) <= 0.01


def test_criterion_2_telescoping_identity():
    # vectorized replica of the residual computation over 1e6 random paths,
    # plus API spot checks on 1e3 of them: over one outer interval the
    # bracket is X_T^2 - 2 sum X_left dX, which telescopes to the fine QV.
    rng = np.random.Generator(np.random.PCG64(20240822))
    steps = 16
    spot_paths = None
    for chunk in range(10):
        inc = rng.standard_normal((100_000, steps))
        if chunk == 0:
            spot_paths = inc[:1000].copy()
        total = inc.sum(axis=1)
        csum = np.cumsum(inc, axis=1)
        left = np.empty_like(inc)
        left[:, 0] = 0.0
        left[:, 1:] = csum[:, :-1]
        riemann = 2.0 * np.einsum("ij,ij->i", left, inc)
        quad = np.einsum("ij,ij->i", inc, inc)
        residual = np.abs(total * total - riemann - quad)
        assert np.all(residual <= 1e-9 * np.maximum(1.0, total * total))

    grid = GridSpec(1.0, steps)
    for row in spot_paths:
        path = NoisePath(grid, row, seed=0)
        end = path.path_values()[-1]
        residual = discrete_ito_iterated(path, steps).bracket_value - discrete_ito_iterated(path, 1).qv_sum
        assert abs(residual) <= 1e-9 * max(1.0, end * end)


def test_criterion_3_implicit_step_vs_bisection():
    rng = np.random.Generator(np.random.PCG64(33))
    n_cases = 100_000
    z_prev = rng.uniform(1e-3, 10.0, n_cases)
    dm = rng.uniform(-10.0, 10.0, n_cases)
    dt = rng.uniform(1e-4, 1.0, n_cases)
    k = rng.uniform(0.05, 5.0, n_cases)
    m_target = rng.uniform(-0.45, 5.0, n_cases)

    params = [CirParams(k[i], (m_target[i] + 1.0) / (2.0 * k[i]), 1.0, 1.0) for i in range(n_cases)]
    m = np.array([p.m for p in params])
    closed = np.empty(n_cases)
    z = np.empty((2, 1))  # one step's buffer: z_prev, then dm, which the step turns into its state
    for i in range(n_cases):
        z[:, 0] = z_prev[i], dm[i]
        _scalar_steps(params[i], dt[i], z)
        closed[i] = z[1, 0]
    assert np.all(closed > 0.0)

    # independent oracle: bisection on phi(x) = a x - d / x - c, the
    # monotone function whose root the step must return.
    a = 1.0 + 0.5 * k * dt
    c = z_prev + dm
    d = (m + 0.5) * dt
    hi = np.abs(c) + d + 1.0
    lo = d / (hi * a + np.abs(c) + 1.0)
    assert np.all(a * lo - d / lo - c < 0.0)
    assert np.all(a * hi - d / hi - c > 0.0)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        negative = a * mid - d / mid - c < 0.0
        lo = np.where(negative, mid, lo)
        hi = np.where(negative, hi, mid)
    oracle = 0.5 * (lo + hi)
    assert np.max(np.abs(closed - oracle)) <= 1e-10

    drift = (m + 0.5) / closed - 0.5 * k * closed
    residual = np.abs(closed - z_prev - drift * dt - dm)
    assert np.all(residual <= 1e-12 * np.maximum(1.0, closed))


def test_criterion_4_positivity_under_feller_margins(positivity_reports):
    margin, boundary = positivity_reports
    assert margin.min_r > 0.0
    assert boundary.min_r > 0.0
    assert margin.feller_ok and boundary.feller_ok
    assert boundary.min_r <= margin.min_r / 10.0


def test_criterion_5_convergence_order_band(convergence_report):
    report = convergence_report
    assert 0.35 <= report.fitted_order <= 0.75
    assert report.fit_r2 >= 0.9
    errors = report.sup_errors
    assert all(a > b for a, b in zip(errors, errors[1:]))


def test_criterion_6_degenerate_classical_mean():
    params = CirParams(k=1.0, theta=0.04, sigma=0.2, r0=0.08)
    grid = GridSpec(1.0, 2**10)
    stats = run_mc_stats(params, MixedSpec(hurst=0.75, weight_fbm=0.0), grid, 1.0, 10_000, 4242)
    expected = 0.04 + 0.04 * math.exp(-1.0)
    assert stats.closed_form_mean == pytest.approx(expected, rel=1e-12)
    tolerance = max(3.0 * stats.sample_se, 2.0 * grid.dt)
    assert abs(stats.sample_mean - stats.closed_form_mean) <= tolerance


def test_criterion_7_generator_cross_validation():
    grid = GridSpec(1.0, 2**8)
    n_paths = 10_000
    ends_chol = np.array(
        [
            sample_fbm_cholesky(0.75, grid, substream_seed(71, i)).path_values()[-1]
            for i in range(n_paths)
        ]
    )
    ends_dh = np.array(
        [
            sample_fbm_davies_harte(0.75, grid, substream_seed(72, i)).path_values()[-1]
            for i in range(n_paths)
        ]
    )
    # Var(B^H_1) = 1; the sample variance of a Gaussian has SE ~ sqrt(2/N)
    se = math.sqrt(2.0 / n_paths)
    var_chol = ends_chol.var(ddof=1)
    var_dh = ends_dh.var(ddof=1)
    assert abs(var_chol - 1.0) <= 3.0 * se
    assert abs(var_dh - 1.0) <= 3.0 * se
    assert abs(var_chol - var_dh) <= 3.0 * math.sqrt(2.0 * se * se)


def test_criterion_8_uniform_bound_zero_violations(positivity_reports, convergence_report):
    margin, boundary = positivity_reports
    assert margin.bound_violations == 0
    assert boundary.bound_violations == 0
    assert convergence_report.bound_violations == 0


def test_criterion_9_byte_identical_cli_reruns(tmp_path):
    runs = {
        "simulate": ["simulate", "--n", "16", "--paths", "2", "--seed", "5"],
        "convergence": [
            "convergence", "--n-list", "8,16", "--n-ref", "128", "--paths", "2", "--seed", "5",
        ],
        "positivity": ["positivity", "--n", "32", "--paths", "3", "--seed", "5"],
        "bracket": ["bracket", "--n", "16", "--refinements", "1,4", "--paths", "2", "--seed", "5"],
        "mcstats": ["mcstats", "--n", "32", "--paths", "4", "--seed", "5"],
    }
    for name, argv in runs.items():
        first = tmp_path / f"{name}_a.csv"
        second = tmp_path / f"{name}_b.csv"
        assert main(argv + ["--out", str(first)]) == 0
        assert main(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes(), name
