"""Scheme tests: drift, implicit step (with bisection oracle), trajectories."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfcir.cli import main
from mfcir.experiments import run_positivity
from mfcir.mixed import MixedSpec, build_mixed
from mfcir.noise import GridSpec, NoisePath
from mfcir.scheme import (
    CirParams,
    Trajectory,
    _scalar_steps,
    implicit_steps,
    r_to_z,
    simulate_z,
    simulate_z_batch,
    singular_drift,
    z_to_r,
)

# k=1, theta=0.75, sigma=1 gives m = 0.5 exactly; k=theta=sigma=1 gives m = 1.
PARAMS_M_HALF = CirParams(k=1.0, theta=0.75, sigma=1.0, r0=0.0625)
PARAMS_M_ONE = CirParams(k=1.0, theta=1.0, sigma=1.0, r0=0.04)


def one_step(z_prev: float, dm: float, dt: float, params: CirParams) -> float:
    """One drift-implicit Euler step from ``z_prev``: the scheme's scalar root."""
    return _scalar_steps(params, dt, z_prev, [dm])[-1]


def equilibrium(params: CirParams) -> float:
    """Positive root of the drift, sqrt((2 m + 1) / k)."""
    return math.sqrt((2.0 * params.m + 1.0) / params.k)


def bisection_step(z_prev: float, dm: float, dt: float, params: CirParams) -> float:
    """Independent root-finder for phi(x) = x - b(x) dt - (z_prev + dm)."""
    a = 1.0 + 0.5 * params.k * dt
    c = z_prev + dm
    d = (params.m + 0.5) * dt

    def phi(x: float) -> float:
        return x - (((params.m + 0.5) / x - 0.5 * params.k * x) * dt) - c

    hi = abs(c) + d + 1.0
    lo = d / (hi * a + abs(c) + 1.0)
    assert phi(lo) < 0.0 < phi(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if phi(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestParams:
    def test_m_formula(self):
        p = CirParams(k=2.0, theta=0.3, sigma=0.7, r0=0.1)
        assert p.m == (2.0 * 2.0 * 0.3 - 0.7**2) / 0.7**2

    def test_feller_flag(self):
        assert PARAMS_M_HALF.feller_ok
        assert not CirParams(1.0, 0.1, 1.0, 0.1).feller_ok  # m = -0.8

    def test_z0(self):
        assert CirParams(1.0, 1.0, 2.0, 1.0).z0 == 1.0
        assert PARAMS_M_HALF.z0 == 0.5

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("slot", range(4))
    def test_rejects_nonpositive(self, bad, slot):
        args = [1.0, 1.0, 1.0, 1.0]
        args[slot] = bad
        with pytest.raises(ValueError):
            CirParams(*args)


class TestTransforms:
    def test_plugin_values(self):
        assert z_to_r(2.0, 1.0) == 1.0
        assert r_to_z(1.0, 2.0) == 1.0

    def test_round_trip(self):
        r = 0.37
        back = z_to_r(r_to_z(r, 0.8), 0.8)
        assert abs(back - r) <= 2 * np.spacing(r)

    @given(r=st.floats(1e-6, 1e6), sigma=st.floats(1e-3, 1e3))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_fuzz(self, r, sigma):
        assert z_to_r(r_to_z(r, sigma), sigma) == pytest.approx(r, rel=1e-14)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            z_to_r(-0.1, 1.0)
        with pytest.raises(ValueError):
            r_to_z(-0.1, 1.0)

    def test_array_of_states(self):
        z = np.array([0.0, 0.5, 2.0, 3.0])
        assert np.array_equal(z_to_r(z, 0.8), np.array([z_to_r(v, 0.8) for v in z.tolist()]))
        with pytest.raises(ValueError, match="z must be >= 0, got -0.1"):
            z_to_r(np.array([1.0, -0.1, 2.0]), 1.0)


class TestDrift:
    def test_equilibrium_root(self):
        z_star = equilibrium(PARAMS_M_HALF)
        assert singular_drift(z_star, PARAMS_M_HALF) == pytest.approx(0.0, abs=1e-15)

    def test_formula_values(self):
        assert singular_drift(1.0, PARAMS_M_ONE) == 1.0
        assert singular_drift(2.0, PARAMS_M_HALF) == -0.5

    def test_rejects_nonpositive_state(self):
        with pytest.raises(ValueError):
            singular_drift(0.0, PARAMS_M_HALF)


class TestImplicitStep:
    def test_fixed_point(self):
        z_star = equilibrium(PARAMS_M_HALF)
        out = one_step(z_star, 0.0, 0.1, PARAMS_M_HALF)
        assert abs(out - z_star) <= 4 * np.spacing(z_star)

    def test_closed_form_value(self):
        out = one_step(1.0, 0.0, 0.1, PARAMS_M_HALF)
        # a = 1.05, c = 1, d = 0.1
        assert out == pytest.approx((1.0 + math.sqrt(1.42)) / 2.1, rel=1e-15)
        assert out == pytest.approx(1.043637, abs=1e-6)
        assert abs(out - bisection_step(1.0, 0.0, 0.1, PARAMS_M_HALF)) <= 1e-12

    def test_large_negative_shock_stays_positive(self):
        out = one_step(1.0, -10.0, 0.01, PARAMS_M_ONE)
        assert out > 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="-1/2"):
            one_step(1.0, 0.0, 0.1, CirParams(1.0, 0.1, 1.0, 0.1))  # m = -0.8


class TestStepDomainEdge:
    """k = sigma = r0 = 1, where theta = 1/4 puts m = -1/2 exactly on the edge of the step's domain."""

    EDGE = 0.25
    INSIDE = math.nextafter(0.25, 1.0)  # m = -1/2 + 2**-53
    MESSAGE = "implicit step requires m > -1/2, got m = -0.5 (increase k * theta or decrease sigma)"
    GRID = GridSpec(1.0, 16)
    SPEC = MixedSpec(weight_bm=4.0, weight_fbm=0.0)  # some steps take the c < 0 branch, where z falls to ~1e-17

    def _states(self, entry, params):
        grid, spec = self.GRID, self.SPEC
        noise = build_mixed(spec, grid, 3)
        if entry == "simulate_z":
            return simulate_z(params, noise).z_values
        if entry == "implicit_steps":
            rows = np.stack([noise.increments, -noise.increments], axis=1)
            implicit_steps(params, grid.dt, rows)
            return rows
        if entry == "simulate_z_batch":
            return simulate_z_batch(params, grid, np.stack([noise.increments, -noise.increments]))
        report = run_positivity(params, spec, grid, 5, 3)
        return np.array([report.min_z, report.min_r])

    ENTRIES = ["simulate_z", "implicit_steps", "simulate_z_batch", "run_positivity"]

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_edge_is_rejected_with_one_message(self, entry):
        params = CirParams(1.0, self.EDGE, 1.0, 1.0)
        assert params.m == -0.5
        with pytest.raises(ValueError, match=f"^{re.escape(self.MESSAGE)}$"):
            self._states(entry, params)

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_just_inside_stays_positive(self, entry):
        params = CirParams(1.0, self.INSIDE, 1.0, 1.0)
        assert params.m > -0.5
        states = self._states(entry, params)
        assert np.all(states > 0.0) and np.all(np.isfinite(states))

    @pytest.mark.parametrize("command", ["simulate", "positivity", "mcstats"])
    def test_cli(self, command, tmp_path, capsys):
        argv = [command, "--k", "1", "--sigma", "1", "--r0", "1", "--n", "16", "--paths", "5", "--weight-fbm", "0",
                "--out", str(tmp_path / "out")]
        assert main(argv + ["--theta", repr(self.EDGE)]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == f"mfcir: error: {self.MESSAGE}"
        assert main(argv + ["--theta", repr(self.INSIDE)]) == 0


def param_strategy():
    # sigma = frac * 2 sqrt(k theta) gives m = 1/(2 frac^2) - 1, so the
    # scheme domain m > -1/2 holds for every frac < 1 while frac > 1/sqrt(2)
    # walks into Feller-violating territory.
    return st.builds(
        lambda k, theta, frac: CirParams(k, theta, frac * 2.0 * math.sqrt(k * theta), 1.0),
        k=st.floats(0.01, 5.0),
        theta=st.floats(0.01, 5.0),
        frac=st.floats(0.05, 0.99),
    )


class TestStepProperties:
    @given(
        params=param_strategy(),
        z_prev=st.floats(1e-6, 100.0),
        dm=st.floats(-100.0, 100.0),
        dt=st.floats(1e-6, 10.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_positivity_and_residual(self, params, z_prev, dm, dt):
        z = one_step(z_prev, dm, dt, params)
        assert z > 0.0
        residual = z - z_prev - singular_drift(z, params) * dt - dm
        assert abs(residual) <= 1e-12 * max(1.0, abs(z))

    @given(
        params=param_strategy(),
        z_lo=st.floats(1e-3, 50.0),
        gap=st.floats(1e-5, 10.0),
        dm=st.floats(-50.0, 50.0),
        dt=st.floats(1e-4, 2.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_state_and_shock(self, params, z_lo, gap, dm, dt):
        assert one_step(z_lo + gap, dm, dt, params) > one_step(z_lo, dm, dt, params)
        assert one_step(z_lo, dm + gap, dt, params) > one_step(z_lo, dm, dt, params)

    @given(
        params=param_strategy(),
        z_prev=st.floats(1e-3, 50.0),
        dm=st.floats(-50.0, 50.0),
        dt=st.floats(1e-4, 2.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_against_bisection_oracle(self, params, z_prev, dm, dt):
        closed = one_step(z_prev, dm, dt, params)
        oracle = bisection_step(z_prev, dm, dt, params)
        assert abs(closed - oracle) <= 1e-11 * max(1.0, closed)


def zero_noise(grid: GridSpec) -> NoisePath:
    return NoisePath(grid, np.zeros(grid.steps_n), seed=0)


class TestSimulate:
    def test_constant_at_equilibrium(self):
        z_star = equilibrium(PARAMS_M_HALF)
        r_star = z_to_r(z_star, PARAMS_M_HALF.sigma)
        params = CirParams(1.0, 0.75, 1.0, r_star)
        traj = simulate_z(params, zero_noise(GridSpec(5.0, 50)))
        assert np.max(np.abs(traj.z_values - params.z0)) <= 1e-10

    def test_monotone_relaxation_matches_ode(self):
        # start below equilibrium, no noise: strictly increasing toward the
        # drift root, never overshooting, and within O(dt) of a fine
        # explicit integration of dz = b(z) dt.
        params = PARAMS_M_HALF
        grid = GridSpec(5.0, 100)
        traj = simulate_z(params, zero_noise(grid))
        z = traj.z_values
        z_star = equilibrium(params)
        assert np.all(np.diff(z) > 0.0)
        assert z[-1] < z_star
        assert z[-1] == pytest.approx(z_star, abs=0.01)

        refine = 2000
        dt_fine = grid.dt / refine
        x = params.z0
        ode = [x]
        for _ in range(grid.steps_n * refine):
            x = x + (((params.m + 0.5) / x) - 0.5 * params.k * x) * dt_fine
            ode.append(x)
        on_grid = np.asarray(ode)[::refine]
        assert np.max(np.abs(z - on_grid)) <= 0.5 * grid.dt

    def test_seeded_path_stays_positive(self):
        grid = GridSpec(1.0, 512)
        noise = build_mixed(MixedSpec(), grid, 314159)
        traj = simulate_z(PARAMS_M_ONE, noise)
        assert np.min(traj.z_values) > 0.0
        assert np.min(traj.r_values) > 0.0

    def test_uniform_pathwise_bound(self):
        params = PARAMS_M_ONE
        grid = GridSpec(1.0, 256)
        for seed in range(20):
            noise = build_mixed(MixedSpec(), grid, seed)
            traj = simulate_z(params, noise)
            sup_noise = np.max(np.abs(noise.path_values()))
            limit = (
                params.z0
                + abs(singular_drift(params.z0, params)) * grid.horizon_t
                + 2.0 * sup_noise
            )
            assert np.max(traj.z_values) <= limit + 1e-9

    def test_transform_consistency(self):
        noise = build_mixed(MixedSpec(), GridSpec(1.0, 64), 7)
        traj = simulate_z(PARAMS_M_ONE, noise)
        assert np.array_equal(traj.r_values, (PARAMS_M_ONE.sigma * traj.z_values / 2.0) ** 2)
        assert traj.z_values[0] == PARAMS_M_ONE.z0

    def test_deterministic(self):
        noise = build_mixed(MixedSpec(), GridSpec(1.0, 64), 7)
        a = simulate_z(PARAMS_M_ONE, noise)
        b = simulate_z(PARAMS_M_ONE, noise)
        assert np.array_equal(a.z_values, b.z_values)

    def test_batch_matches_scalar_bitwise(self):
        grid = GridSpec(1.0, 128)
        paths = [build_mixed(MixedSpec(), grid, seed) for seed in range(8)]
        inc = np.stack([p.increments for p in paths])
        batch = simulate_z_batch(PARAMS_M_ONE, grid, inc)
        for i, p in enumerate(paths):
            assert np.array_equal(batch[i], simulate_z(PARAMS_M_ONE, p).z_values)

    def test_kernel_negative_branch_matches_scalar(self):
        # increments that push c = z + dm below zero on most steps
        dm = np.array([[-5.0, 0.3], [-0.1, -2.0], [0.0, -1e-300], [-3.0, 4.0]])
        rows = dm.copy()
        implicit_steps(PARAMS_M_HALF, 0.01, rows)
        for path in range(dm.shape[1]):
            z = PARAMS_M_HALF.z0
            for step in range(dm.shape[0]):
                z = one_step(z, dm[step, path], 0.01, PARAMS_M_HALF)
                assert rows[step, path] == z

    def test_kernel_nan_column_leaves_the_others_alone(self):
        # a NaN in c takes the masked branch, which must neither touch the
        # NaN column nor skip a negative c in another one
        dm = np.array([[math.nan, -5.0, 0.3], [0.1, -0.1, -2.0], [-3.0, 0.0, 4.0]])
        rows = dm.copy()
        implicit_steps(PARAMS_M_HALF, 0.01, rows)
        for path in range(dm.shape[1]):
            want = _scalar_steps(PARAMS_M_HALF, 0.01, PARAMS_M_HALF.z0, dm[:, path].tolist())[1:]
            assert np.array_equal(rows[:, path], want, equal_nan=True)
        assert np.isnan(rows[:, 0]).all() and np.isfinite(rows[:, 1:]).all()

    def test_batch_of_zero_paths(self):
        assert simulate_z_batch(PARAMS_M_ONE, GridSpec(1.0, 4), np.zeros((0, 4))).shape == (0, 5)

    def test_batch_shape_validation(self):
        with pytest.raises(ValueError):
            simulate_z_batch(PARAMS_M_ONE, GridSpec(1.0, 4), np.zeros(4))
        with pytest.raises(ValueError):
            simulate_z_batch(PARAMS_M_ONE, GridSpec(1.0, 4), np.zeros((2, 5)))


class TestTrajectoryValidation:
    def _mk(self, z):
        z = np.asarray(z, dtype=float)
        params = CirParams(1.0, 1.0, 2.0, 1.0)  # z0 = 1
        return Trajectory(GridSpec(1.0, len(z) - 1), z, params, 0)

    def test_valid_roundtrip(self):
        traj = self._mk([1.0, 3.0])
        assert traj.z_values[1] == 3.0
        assert traj.r_values[1] == 9.0

    def test_rejects_bad_shape(self):
        params = CirParams(1.0, 1.0, 2.0, 1.0)
        with pytest.raises(ValueError, match="shape"):
            Trajectory(GridSpec(1.0, 2), np.ones(2), params, 0)

    def test_rejects_nonpositive_state(self):
        with pytest.raises(ValueError, match="positive"):
            self._mk([1.0, 0.0])

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rejects_non_finite_state(self, bad):
        with pytest.raises(ValueError, match="finite.*overflowed"):
            self._mk([1.0, bad])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_rejects_finite_state_whose_rate_overflows(self):
        params = CirParams(1.0, 10.0, 3.0, 1.0)
        z = np.array([params.z0, 1e154])  # (3 * 1e154 / 2)**2 is past the float range
        with pytest.raises(ValueError, match="overflowed"):
            Trajectory(GridSpec(1.0, 1), z, params, 0)

    def test_rejects_initial_mismatch(self):
        params = CirParams(1.0, 1.0, 2.0, 1.0)
        z = np.array([2.0, 3.0])
        with pytest.raises(ValueError, match="r0"):
            Trajectory(GridSpec(1.0, 1), z, params, 0)

    def test_arrays_read_only(self):
        traj = self._mk([1.0, 3.0])
        with pytest.raises(ValueError):
            traj.z_values[0] = 2.0


class TestInterpolate:
    """Linear interpolation of a trajectory, as the convergence harness extends a coarse solution."""

    def _two_node(self):
        params = CirParams(1.0, 1.0, 2.0, 1.0)
        z = np.array([1.0, 3.0])
        return Trajectory(GridSpec(1.0, 1), z, params, 0)

    def test_nodes_exact(self):
        noise = build_mixed(MixedSpec(), GridSpec(1.0, 16), 3)
        traj = simulate_z(PARAMS_M_ONE, noise)
        for k, t in enumerate(traj.grid.times):
            assert np.interp(t, traj.grid.times, traj.z_values) == traj.z_values[k]

    def test_midpoint(self):
        traj = self._two_node()
        assert np.interp(0.5, traj.grid.times, traj.z_values) == 2.0

    def test_left_endpoint(self):
        traj = self._two_node()
        assert np.interp(0.0, traj.grid.times, traj.z_values) == 1.0
