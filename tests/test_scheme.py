"""Scheme tests: drift, implicit step (with bisection oracle), trajectories."""

import itertools
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from conftest import euler_on_r, increment_matrix

from mfcir.cli import main
from mfcir.experiments import run_positivity
from mfcir.mixed import MixedSpec, build_mixed
from mfcir.noise import GridSpec, NoisePath, _path_seeds
from mfcir.scheme import (
    CirParams,
    Trajectory,
    _require_in_range,
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
    """One drift-implicit Euler step from ``z_prev``: the scheme's scalar root, on a (2, 1) buffer."""
    z = np.array([[z_prev], [dm]])
    _scalar_steps(params, dt, z)
    return float(z[1, 0])


def step_major(params: CirParams, increments: np.ndarray) -> np.ndarray:
    """The matrix that implicit_steps steps: z0 in row 0, then ``increments`` (steps, paths)."""
    return np.vstack([np.full(increments.shape[1], params.z0), increments])


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

    def test_m_is_finite_where_two_k_overflows(self):
        # 2 k overflows, but k theta is about 1, so m = 2 k theta - 1 is about 1
        assert CirParams(1e308, 1e-308, 1.0, 1.0).m == 2.0 * (1e308 * 1e-308) - 1.0

    @pytest.mark.parametrize(
        "k, theta, sigma",
        [(1.0, 1.0, 1e-200), (1.0, 1.0, 1e-160), (1e300, 1e300, 1.0), (1.0, 1.0, 1e200)],
        ids=["sigma2-underflows", "m-inf", "k-theta-inf", "m-nan"],
    )
    def test_rejects_m_that_is_not_finite(self, k, theta, sigma):
        with pytest.raises(ValueError, match="is not finite for k = .*, theta = .* and sigma = "):
            CirParams(k, theta, sigma, 1.0)

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
            z = step_major(params, np.stack([noise.increments, -noise.increments], axis=1))
            implicit_steps(params, grid.dt, z)
            return z
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


# Inputs of the kernel comparisons, each an @example of the property test.
NEGATIVE_SHOCKS = np.array([[-5.0, 0.3], [-0.1, -2.0], [0.0, -1e-300], [-3.0, 4.0]])  # c < 0 on most steps
NAN_SHOCKS = np.array([[math.nan, -5.0, 0.3], [0.1, -0.1, -2.0], [-3.0, 0.0, 4.0]])


def _mixed_shocks() -> np.ndarray:
    """64 steps of 4 paths: normal shocks, shocks that take the c < 0 branch, -0.0, 1e-300 and nan."""
    block = np.random.default_rng(11).normal(scale=2.0, size=(4, 128))[:, -64:]
    block[0, :4] = [-5.0, -0.1, 0.0, -3.0]
    block[1, :4] = [0.3, -2.0, -1e-300, 4.0]
    block[2, :3] = [-0.0, 1e-300, math.nan]
    return block.T


def _any_start() -> np.ndarray:
    """12 steps of 5 paths from start states that are not z0; path 0's shocks take the c < 0 branch."""
    z = np.random.default_rng(7).normal(scale=2.0, size=(13, 5))
    z[0] = [1e-3, 0.2, 1.0, 3.5, 40.0]
    z[1:, 0] = -0.5
    return z


MIXED_SHOCKS = _mixed_shocks()
ANY_START = _any_start()


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

    @given(
        start=hnp.arrays(np.float64, st.tuples(st.integers(1, 13), st.integers(1, 40)), elements=st.floats()),
        margin=st.integers(0, 2),
        split=st.none() | st.integers(0, 12),
        params=param_strategy(),
        dt=st.floats(1e-4, 2.0),
    )
    @example(step_major(PARAMS_M_HALF, NEGATIVE_SHOCKS), 0, None, PARAMS_M_HALF, 0.01)
    @example(step_major(PARAMS_M_HALF, NAN_SHOCKS), 0, None, PARAMS_M_HALF, 0.01)
    @example(step_major(PARAMS_M_HALF, MIXED_SHOCKS), 64, None, PARAMS_M_HALF, 0.01)
    @example(step_major(PARAMS_M_ONE, MIXED_SHOCKS), 64, None, PARAMS_M_ONE, 0.01)
    @example(ANY_START, 0, 1, PARAMS_M_HALF, 0.01)
    @example(ANY_START, 0, 5, PARAMS_M_HALF, 0.01)
    @example(ANY_START, 0, 11, PARAMS_M_HALF, 0.01)
    @settings(max_examples=300, deadline=None)
    def test_both_kernels_step_a_buffer_alike(self, start, margin, split, params, dt):
        # any start row and any doubles (inf, nan, -0.0 and c < 0 included),
        # in a contiguous buffer or in a view of a wider one, whose columns
        # are strided, stepped in one call or in two split at any row: the
        # scalar and the array root leave the same buffer, bit for bit but
        # for the payload of a nan, and write nothing outside it
        steps, width = len(start) - 1, start.shape[1]
        runs = []
        for kernel in (_scalar_steps, implicit_steps):
            wide = np.full((steps + 1, width + 2 * margin), np.pi)
            z = wide[:, margin : margin + width]
            z[...] = start
            if split is None:
                kernel(params, dt, z)
            else:
                cut = min(split, steps)
                kernel(params, dt, z[: cut + 1])
                kernel(params, dt, z[cut:])
            runs.append(wide)
        scalar, array = runs
        nan = np.isnan(scalar)
        assert np.array_equal(nan, np.isnan(array))
        assert scalar[~nan].tobytes() == array[~nan].tobytes()
        assert (np.delete(scalar, np.s_[margin : margin + width], axis=1) == np.pi).all()

    @pytest.mark.parametrize("shocks", [NEGATIVE_SHOCKS, MIXED_SHOCKS], ids=["negative", "mixed"])
    def test_examples_take_the_negative_branch(self, shocks):
        z = step_major(PARAMS_M_HALF, shocks)
        _scalar_steps(PARAMS_M_HALF, 0.01, z)
        assert (z[:-1] + shocks < 0.0).any()  # some c = z_prev + dm < 0

    @pytest.mark.parametrize("kernel", [_scalar_steps, implicit_steps], ids=["scalar", "array"])
    def test_kernel_nan_column_leaves_the_others_alone(self, kernel):
        # a NaN in c takes the array kernel's masked branch, which must
        # neither touch the NaN column nor skip a negative c in another one
        rows = step_major(PARAMS_M_HALF, NAN_SHOCKS)
        kernel(PARAMS_M_HALF, 0.01, rows)
        assert np.isnan(rows[1:, 0]).all() and np.isfinite(rows[:, 1:]).all()

    @pytest.mark.parametrize("kernel", [_scalar_steps, implicit_steps], ids=["scalar", "array"])
    @pytest.mark.parametrize("k", [1, 5, 11])
    def test_kernel_continues_from_any_start_state(self, kernel, k):
        # one call over n = 12 steps equals two calls split at row k, the
        # second stepping z[k:] from the states that the first left in row
        # k; the start states are not z0, and the shocks take the c < 0 branch
        z, split = ANY_START.copy(), ANY_START.copy()
        assert PARAMS_M_HALF.z0 not in z[0]
        kernel(PARAMS_M_HALF, 0.01, z)
        kernel(PARAMS_M_HALF, 0.01, split[: k + 1])
        kernel(PARAMS_M_HALF, 0.01, split[k:])
        assert z.tobytes() == split.tobytes()
        assert (ANY_START[1:] + z[:-1] < 0.0).any()  # some c = z_prev + dm < 0

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


def numpy_range_check(z_min, z_max, sigma):
    """``_require_in_range`` as it was written in numpy: the reference the Python-float form must equal."""
    with np.errstate(over="ignore"):
        if not (z_min > 0.0 and np.isfinite(z_to_r(np.float64(z_max), sigma))):
            raise ValueError("a state left the positive finite range: the implicit step overflowed "
                             "(driver increments too large)")


def range_check_outcome(check, z_min, z_max, sigma):
    try:
        check(z_min, z_max, sigma)
    except ValueError as exc:
        return str(exc)
    return None


class TestRangeCheck:
    """``_require_in_range`` gives the verdict and the message of its numpy reference.

    Its callers pass the smallest and the largest state of one set, so
    ``z_min <= z_max`` unless a state is nan.
    """

    @pytest.mark.parametrize("sigma", [0.2, 1.0, 3.0])
    def test_same_as_numpy_reference_at_the_edges(self, sigma):
        # 2 sqrt(DBL_MAX) / sigma is where the rate (sigma z / 2)**2 leaves the float range
        edge = 2.0 * math.sqrt(sys.float_info.max) / sigma
        near = [edge]
        for _ in range(3):
            near = [math.nextafter(near[0], 0.0), *near, math.nextafter(near[-1], math.inf)]
        values = [0.0, -0.0, 5e-324, 1.0, math.nan, math.inf, -math.inf, sys.float_info.max, *near]
        verdicts = set()
        for z_min, z_max in itertools.product(values, repeat=2):
            if z_min > z_max:
                continue
            for cast in (float, np.float64):
                got = range_check_outcome(_require_in_range, cast(z_min), cast(z_max), sigma)
                assert got == range_check_outcome(numpy_range_check, cast(z_min), cast(z_max), sigma)
                if z_min == 1.0 and z_max in near:
                    verdicts.add(got)
        assert len(verdicts) == 2  # the neighbours of the edge lie on both sides of it

    @settings(max_examples=500, deadline=None)
    @given(z_min=st.floats(), z_max=st.floats(), sigma=st.floats(min_value=5e-324, allow_infinity=False))
    def test_same_as_numpy_reference(self, z_min, z_max, sigma):
        assume(not z_min > z_max)
        got = range_check_outcome(_require_in_range, z_min, z_max, sigma)
        assert got == range_check_outcome(numpy_range_check, z_min, z_max, sigma)


class TestSecondSolver:
    """The scheme and explicit Euler on r, on the same driver rows, meet as the grid refines.

    theta = 0.04, sigma = 0.2, r0 = 0.08, k = 1 (m = 1), T = 5, 200 paths,
    H = 0.75.  Over master seeds 1-12 the median |r_T gap| fell by 3.4 to
    5.3 times from n = 2**8 to 2**12, where it was 1.9e-4 to 3.6e-4.  With
    d = m dt, a = 1 + k dt or a = 1 (no - k z / 2) in the scheme it stayed
    near 9e-3, 1.6e-2 and 0.21, and fell by 1.1 times at most.  Only
    |w_bm| = 1 is checked: the drift's Ito correction assumes [M]_t = t.
    """

    PARAMS = CirParams(k=1.0, theta=0.04, sigma=0.2, r0=0.08)

    def _median_gap(self, spec, n, seed):
        grid = GridSpec(5.0, n)
        increments = increment_matrix(spec, grid, _path_seeds(seed, 0, 200))
        z = step_major(self.PARAMS, increments.T)
        implicit_steps(self.PARAMS, grid.dt, z)
        gap = z_to_r(z[-1], self.PARAMS.sigma) - euler_on_r(self.PARAMS, grid.dt, increments)
        return float(np.median(np.abs(gap)))

    @pytest.mark.parametrize("weight_fbm", [0.0, 1.0])
    def test_gap_shrinks_with_the_grid(self, weight_fbm):
        spec = MixedSpec(hurst=0.75, weight_bm=1.0, weight_fbm=weight_fbm)
        coarse, fine = self._median_gap(spec, 2**8, 3), self._median_gap(spec, 2**12, 3)
        assert coarse / fine >= 2.5, (coarse, fine)
        assert fine <= 5e-4

