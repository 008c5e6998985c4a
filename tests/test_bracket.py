"""Bracket and chain-rule diagnostics: exact identities plus statistical limits."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import coupled_paths

from mfcir.bracket import BracketEstimate, discrete_ito_iterated
from mfcir.mixed import MixedSpec, build_mixed
from mfcir.noise import GridSpec, NoisePath, _block_sums, _path_values, sample_brownian_increments


def deterministic_path(n: int, horizon: float = 1.0) -> NoisePath:
    """The linear path X_t = t seen on n uniform steps."""
    grid = GridSpec(horizon, n)
    return NoisePath(grid, np.full(n, grid.dt), seed=0)


def chain_rule_residual(path: NoisePath, refinement: int = 1, f=np.square, df=lambda x: 2.0 * x, d2f=lambda x: 2.0):
    """Defect of the second-order chain rule on the grid that merges ``refinement`` steps.

    ``|f(X_T) - f(X_0) - sum df(X_left) dX - 1/2 sum d2f(X_left) dX^2|``;
    for the default f(x) = x^2 the rule is exact on any grid.
    """
    outer = _block_sums(path.increments, path.grid.steps_n // refinement)
    values = _path_values(outer)
    left = values[:-1]
    riemann = float(np.sum(df(left) * outer))
    quad = 0.5 * float(np.sum(d2f(left) * outer * outer))
    return abs(float(f(values[-1])) - float(f(values[0])) - riemann - quad)


class TestQuadraticVariation:
    def test_smooth_proxy_scales_like_dt(self):
        for n in (4, 16, 64):
            qv = discrete_ito_iterated(deterministic_path(n), 1).qv_sum
            assert qv == pytest.approx(n * (1.0 / n) ** 2, rel=1e-12)
        assert discrete_ito_iterated(deterministic_path(4096), 1).qv_sum < 1e-3

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_brownian_clock(self, seed):
        path = sample_brownian_increments(GridSpec(1.0, 2**16), seed)
        assert abs(discrete_ito_iterated(path, 1).qv_sum - 1.0) <= 0.05

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_mixed_clock(self, seed):
        path = build_mixed(MixedSpec(hurst=0.75), GridSpec(1.0, 2**16), seed)
        assert abs(discrete_ito_iterated(path, 1).qv_sum - 1.0) <= 0.05

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_fractional_only_vanishes(self, seed):
        path = build_mixed(MixedSpec(hurst=0.75, weight_bm=0.0), GridSpec(1.0, 2**16), seed)
        assert discrete_ito_iterated(path, 1).qv_sum <= 0.01

    def test_median_error_decreases_with_refinement(self):
        # one fine driver per seed, coarsened consistently: the deviation
        # |QV - T| should shrink (in median) as the grid refines.
        n_levels = [2**10, 2**12, 2**14, 2**16]
        deviations = {n: [] for n in n_levels}
        for seed in range(100):
            for path in coupled_paths(MixedSpec(), 1.0, 2**16, n_levels[:-1], seed):
                deviations[path.grid.steps_n].append(abs(discrete_ito_iterated(path, 1).qv_sum - 1.0))
        medians = [np.median(deviations[n]) for n in n_levels]
        assert all(a > b for a, b in zip(medians, medians[1:]))


class TestDiscreteIterated:
    def test_refinement_one_collapses(self):
        path = build_mixed(MixedSpec(), GridSpec(1.0, 64), 17)
        est = discrete_ito_iterated(path, 1)
        assert est.iterated_correction == 0.0
        assert est.bracket_value == est.qv_sum
        assert est.qv_sum == float(np.einsum("i,i->", path.increments, path.increments))

    def test_telescopes_to_fine_qv(self):
        path = build_mixed(MixedSpec(), GridSpec(1.0, 2**14), 2024)
        est = discrete_ito_iterated(path, 2**8)
        fine_qv = discrete_ito_iterated(path, 1).qv_sum
        assert est.grid.steps_n == 2**6
        assert abs(est.bracket_value - fine_qv) <= 1e-12 * max(1.0, fine_qv)
        assert abs(est.bracket_value - 1.0) <= 0.05

    def test_linear_path_bracket_shrinks(self):
        # outer grid held at 2^4 intervals; refining the inner grid sends
        # the bracket of a smooth path to zero.
        values = []
        for refinement in (1, 4, 16, 64, 256):
            path = deterministic_path(2**4 * refinement)
            values.append(discrete_ito_iterated(path, refinement).bracket_value)
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-3

    def test_estimate_fields(self):
        path = build_mixed(MixedSpec(), GridSpec(2.0, 32), 9)
        est = discrete_ito_iterated(path, 4)
        assert isinstance(est, BracketEstimate)
        assert est.refinement == 4
        assert est.grid.horizon_t == 2.0
        assert est.bracket_value == est.qv_sum - est.iterated_correction

    def test_refinement_validation(self):
        path = build_mixed(MixedSpec(), GridSpec(1.0, 16), 0)
        with pytest.raises(ValueError, match="3"):
            discrete_ito_iterated(path, 3)
        with pytest.raises(ValueError):
            discrete_ito_iterated(path, 0)
        with pytest.raises(TypeError):
            discrete_ito_iterated(path, 2.0)
        with pytest.raises(TypeError):
            discrete_ito_iterated(path, True)

    @given(
        increments=st.lists(
            st.floats(-1.0, 1.0, allow_nan=False), min_size=16, max_size=16
        ),
        refinement=st.sampled_from([1, 2, 4, 8, 16]),
    )
    @settings(max_examples=100, deadline=None)
    def test_telescoping_for_arbitrary_paths(self, increments, refinement):
        path = NoisePath(GridSpec(1.0, 16), np.asarray(increments), seed=0)
        est = discrete_ito_iterated(path, refinement)
        fine_qv = discrete_ito_iterated(path, 1).qv_sum
        assert abs(est.bracket_value - fine_qv) <= 1e-9 * max(1.0, fine_qv)


@given(
    increments=st.lists(st.floats(-1e100, 1e100), min_size=1, max_size=40),
    negative=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_refinement_one_skips_the_iterated_sums(increments, negative):
    # the general formula, with one fine step per outer interval, gives the
    # same qv_sum and bracket_value bit for bit, and a correction of +-0.0
    # (-0.0 when every increment is negative: each term is 0 * inc)
    inc = -np.abs(increments) if negative else np.asarray(increments)
    path = NoisePath(GridSpec(1.0, len(inc)), inc, seed=0)
    outer = _block_sums(inc, len(inc))
    qv = float(np.einsum("i,i->", outer, outer))
    left = path.path_values()[:-1].reshape(len(inc), 1)
    rel = left - left[:, :1]  # the path relative to each outer interval's start
    correction = 2.0 * float(np.sum(rel * inc.reshape(len(inc), 1)))
    est = discrete_ito_iterated(path, 1)
    assert (est.qv_sum, est.iterated_correction, est.bracket_value) == (qv, 0.0, qv - correction)
    assert correction == 0.0 and str(est.iterated_correction) == "0.0"


class TestChainRuleResidual:
    @pytest.mark.parametrize("builder", [
        lambda: sample_brownian_increments(GridSpec(1.0, 2**16), 3),
        lambda: build_mixed(MixedSpec(), GridSpec(1.0, 2**16), 3),
        lambda: deterministic_path(2**10),
    ])
    def test_square_is_exact(self, builder):
        path = builder()
        end = path.path_values()[-1]
        assert chain_rule_residual(path) <= 1e-9 * max(1.0, end * end)

    def test_square_exact_on_coarsened_grid(self):
        path = build_mixed(MixedSpec(), GridSpec(1.0, 2**12), 11)
        end = path.path_values()[-1]
        for refinement in (1, 4, 64):
            assert chain_rule_residual(path, refinement) <= 1e-9 * max(1.0, end * end)

    def test_linear_path_calculus_identity(self):
        for n in (2**4, 2**8, 2**12):
            assert chain_rule_residual(deterministic_path(n)) <= 1e-12

    def test_sine_converges_on_mixed_paths(self):
        # non-polynomial f: the remainder is cubic in the increments, so
        # the residual falls with the mesh; median over seeds to keep the
        # check statistical rather than pathwise.
        coarse, fine = [], []
        for seed in range(20):
            path = build_mixed(MixedSpec(), GridSpec(1.0, 2**16), seed)
            kwargs = dict(f=np.sin, df=np.cos, d2f=lambda x: -np.sin(x))
            coarse.append(chain_rule_residual(path, 2**8, **kwargs))
            fine.append(chain_rule_residual(path, 1, **kwargs))
        assert np.median(fine) < np.median(coarse)
        assert max(fine) <= 1e-2


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_telescoping_identity_at_path_level(seed):
    # (sum of increments)^2 == 2 * sum(left * inc) + sum(inc^2), the whole-
    # interval version of the bracket identity.
    path = build_mixed(MixedSpec(), GridSpec(1.0, 256), seed)
    inc = path.increments
    left = path.path_values()[:-1]
    total = path.path_values()[-1]
    rhs = 2.0 * float(np.dot(left, inc)) + float(np.dot(inc, inc))
    assert abs(total * total - rhs) <= 1e-9 * max(1.0, total * total)
