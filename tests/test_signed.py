import itertools

import numpy as np
import pytest

from jointrisk import (
    DimensionError,
    JointRiskSpec,
    clayton,
    empirical_copula,
    frank,
    gamma_signed_2d,
    gamma_survival_form,
    gumbel,
    identity,
    independence,
    random_portfolio,
    scenario_set,
    survival_copula,
    cvar_ramp,
    power,
)
from jointrisk.copula import Copula, SurvivalCopula
from reference import cell_grid_survival

IDENTITY_SPECS = [
    JointRiskSpec(independence(2), (identity(), identity())),
    JointRiskSpec(survival_copula(clayton(2.0)), (identity(), identity())),
    JointRiskSpec(survival_copula(frank(5.0)), (identity(), identity())),
]


def empirical_specs(s):
    """The survival coupling of the portfolio's own empirical copula under continuous distortions."""
    cop = survival_copula(empirical_copula(s))
    return [JointRiskSpec(cop, (power(2.0), cvar_ramp(0.3))), JointRiskSpec(cop, (cvar_ramp(0.3), power(2.0)))]


def signed_portfolio(rng, max_m=12):
    m = int(rng.integers(2, max_m + 1))
    cols = [
        (rng.choice(np.arange(1, 64), size=m, replace=False) - 32) / 16.0
        for _ in range(2)
    ]
    return scenario_set(np.column_stack(cols))


class TestConstants:
    @pytest.mark.parametrize("spec", IDENTITY_SPECS)
    def test_sign_patterns_multiply(self, spec):
        for c1, c2 in [(-1.0, 2.0), (1.0, 2.0), (-1.0, -2.0), (1.0, -2.0)]:
            s = scenario_set([[c1, c2]])
            assert gamma_signed_2d(s, spec) == pytest.approx(c1 * c2, abs=1e-12)

    @pytest.mark.parametrize("point", [[-3.0], [-1.0, 2.0, -0.5], [1.5, -2.0, 0.5, 4.0], [-1.0, -1.0, -2.0, -0.25]])
    def test_sign_patterns_multiply_in_any_dimension(self, point):
        d = len(point)
        spec = JointRiskSpec(independence(d), (identity(),) * d)
        assert gamma_signed_2d(scenario_set([point]), spec) == pytest.approx(np.prod(point), abs=1e-12)

    def test_minus_one_two_is_minus_two(self):
        s = scenario_set([[-1.0, 2.0]])
        spec = JointRiskSpec(independence(2), (identity(), identity()))
        assert gamma_signed_2d(s, spec) == pytest.approx(-2.0, abs=1e-12)


class TestNonnegativeAgreement:
    def test_bitwise_equality_on_nonnegative_instances(self):
        # the couplings that make a grid: the signed evaluator is the cell
        # sum off one grid bit for bit, with no cell below 0
        rng = np.random.default_rng(21)
        specs = IDENTITY_SPECS[1:] + [
            JointRiskSpec(survival_copula(gumbel(2.0)), (cvar_ramp(0.9), power(2.0)))
        ]
        for k in range(40):
            s = random_portfolio(rng, 2, max_m=15)
            spec = specs[k % len(specs)]
            assert gamma_signed_2d(s, spec) == cell_grid_survival(s, spec)

    def test_four_point_independent_case(self):
        s = scenario_set([[1.0, 1.0], [1.0, 3.0], [3.0, 1.0], [3.0, 3.0]])
        spec = JointRiskSpec(independence(2), (identity(), identity()))
        assert gamma_signed_2d(s, spec) == 4.0


class TestSignedCases:
    def test_mean_product_with_sign(self):
        # X1 in {-1, +1} equally likely, X2 = 1: value is E[X1] * 1 = 0
        s = scenario_set([[-1.0, 1.0], [1.0, 1.0]])
        spec = JointRiskSpec(independence(2), (identity(), identity()))
        assert gamma_signed_2d(s, spec) == pytest.approx(0.0, abs=1e-12)

    def test_independent_signed_factorizes(self):
        # independent product scenario grid: measure = E[X1] E[X2] under identity
        x1, x2 = np.array([-2.0, 1.0, 3.0]), np.array([-1.0, 2.0])
        rows = [(a, b) for a in x1 for b in x2]
        s = scenario_set(rows)
        spec = JointRiskSpec(independence(2), (identity(), identity()))
        want = x1.mean() * x2.mean()
        assert gamma_signed_2d(s, spec) == pytest.approx(want, rel=1e-12)

    def test_shift_identity_first_axis(self):
        # with X2 >= 0: value(X1, X2) = value(X1 + n, X2) - value(n, X2)
        rng = np.random.default_rng(22)
        for k in range(50):
            m = int(rng.integers(2, 10))
            col1 = (rng.choice(np.arange(1, 64), size=m, replace=False) - 32) / 16.0
            col2 = rng.choice(np.arange(1, 64), size=m, replace=False) / 16.0
            s = scenario_set(np.column_stack([col1, col2]))
            shift = 4.0
            shifted = s.with_losses(np.column_stack([col1 + shift, col2]))
            const = s.with_losses(np.column_stack([np.full(m, shift), col2]))
            for spec in (IDENTITY_SPECS[k % len(IDENTITY_SPECS)], *empirical_specs(s)):
                want = gamma_survival_form(shifted, spec) - gamma_survival_form(const, spec)
                assert gamma_signed_2d(s, spec) == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_shift_identity_second_axis_recursive(self):
        # fully signed: value(X) = value(X + (0, n)) - value((X1, n))
        rng = np.random.default_rng(23)
        for k in range(50):
            s = signed_portfolio(rng)
            shift = 4.0
            moved = s.with_losses(np.column_stack([s.losses[:, 0], s.losses[:, 1] + shift]))
            const = s.with_losses(np.column_stack([s.losses[:, 0], np.full(s.m, shift)]))
            for spec in (IDENTITY_SPECS[k % len(IDENTITY_SPECS)], *empirical_specs(s)):
                want = gamma_signed_2d(moved, spec) - gamma_signed_2d(const, spec)
                assert gamma_signed_2d(s, spec) == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_five_row_empirical_case(self):
        # the empirical copula's margins meet the diagonal only at the data's
        # own tail levels, so subtracting the distorted marginal level on a
        # negative cell, not the coupling at level 1, gave 0.58
        s = scenario_set([[-1.0, 2.0], [1.0, -1.0], [2.0, 1.0], [-2.0, -2.0], [3.0, 0.5]])
        spec = JointRiskSpec(survival_copula(empirical_copula(s)), (power(2.0), power(2.0)))
        assert gamma_signed_2d(s, spec) == pytest.approx(0.5, abs=1e-12)


class TestValidation:
    def test_portfolio_dimension_must_match_the_spec(self):
        s = scenario_set([[1.0, -2.0, 3.0]])
        spec = JointRiskSpec(independence(2), (identity(),) * 2)
        with pytest.raises(DimensionError):
            gamma_signed_2d(s, spec)

    def test_spec_dimension_checked(self):
        s = scenario_set([[1.0, 2.0]])
        spec = JointRiskSpec(independence(3), (identity(),) * 3)
        with pytest.raises(DimensionError):
            gamma_signed_2d(s, spec)


@pytest.mark.parametrize("choice", ["clayton", "empirical"])
@pytest.mark.parametrize("shift", [0.0, 2.0])
def test_signed_form_evaluates_the_coupling_once(monkeypatch, choice, shift):
    # single grids and batches of grids: the coupling's contract takes the latter
    calls = []
    for cls, name in itertools.product((Copula, SurvivalCopula), ("cdf_grid", "cdf_grids")):
        def counted(self, axes, _grid=getattr(cls, name)):
            calls.append(len(axes))
            return _grid(self, axes)

        monkeypatch.setattr(cls, name, counted)
    s = signed_portfolio(np.random.default_rng(5))
    s = s.with_losses(s.losses + shift)
    cop = clayton(2.0) if choice == "clayton" else empirical_copula(s)
    gamma_signed_2d(s, JointRiskSpec(survival_copula(cop), (cvar_ramp(0.8), power(2.0))))
    # an empirical coupling sums per scenario, with no grid
    assert calls == ([] if choice == "empirical" else [2])
