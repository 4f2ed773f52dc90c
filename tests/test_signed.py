import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointrisk import (
    DimensionError,
    JointRiskSpec,
    clayton,
    comonotone,
    countermonotone_2d,
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
    var_step,
)
from jointrisk.copula import EMPIRICAL, Copula, SurvivalCopula
from jointrisk.portfolio import marginal_cells, marginal_steps
from jointrisk.scalar_risk import _contract

IDENTITY_SPECS = [
    JointRiskSpec(independence(2), (identity(), identity())),
    JointRiskSpec(survival_copula(clayton(2.0)), (identity(), identity())),
    JointRiskSpec(survival_copula(frank(5.0)), (identity(), identity())),
]


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

    def test_minus_one_two_is_minus_two(self):
        s = scenario_set([[-1.0, 2.0]])
        spec = JointRiskSpec(independence(2), (identity(), identity()))
        assert gamma_signed_2d(s, spec) == pytest.approx(-2.0, abs=1e-12)


class TestNonnegativeAgreement:
    def test_bitwise_equality_on_nonnegative_instances(self):
        rng = np.random.default_rng(21)
        specs = IDENTITY_SPECS + [
            JointRiskSpec(survival_copula(gumbel(2.0)), (cvar_ramp(0.9), power(2.0)))
        ]
        for k in range(40):
            s = random_portfolio(rng, 2, max_m=15)
            spec = specs[k % len(specs)]
            assert gamma_signed_2d(s, spec) == gamma_survival_form(s, spec)

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
        for k in range(25):
            spec = IDENTITY_SPECS[k % len(IDENTITY_SPECS)]
            m = int(rng.integers(2, 10))
            col1 = (rng.choice(np.arange(1, 64), size=m, replace=False) - 32) / 16.0
            col2 = rng.choice(np.arange(1, 64), size=m, replace=False) / 16.0
            s = scenario_set(np.column_stack([col1, col2]))
            shift = 4.0
            shifted = s.with_losses(np.column_stack([col1 + shift, col2]))
            const = s.with_losses(np.column_stack([np.full(m, shift), col2]))
            want = gamma_survival_form(shifted, spec) - gamma_survival_form(const, spec)
            assert gamma_signed_2d(s, spec) == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_shift_identity_second_axis_recursive(self):
        # fully signed: value(X) = value(X + (0, n)) - value((X1, n))
        rng = np.random.default_rng(23)
        for k in range(25):
            spec = IDENTITY_SPECS[k % len(IDENTITY_SPECS)]
            s = signed_portfolio(rng)
            shift = 4.0
            moved = s.with_losses(np.column_stack([s.losses[:, 0], s.losses[:, 1] + shift]))
            const = s.with_losses(np.column_stack([s.losses[:, 0], np.full(s.m, shift)]))
            want = gamma_signed_2d(moved, spec) - gamma_signed_2d(const, spec)
            assert gamma_signed_2d(s, spec) == pytest.approx(want, rel=1e-9, abs=1e-12)


class TestValidation:
    def test_dimension_three_rejected(self):
        s = scenario_set([[1.0, 2.0, 3.0]])
        spec = JointRiskSpec(independence(3), (identity(),) * 3)
        with pytest.raises(DimensionError):
            gamma_signed_2d(s, spec)

    def test_spec_dimension_checked(self):
        s = scenario_set([[1.0, 2.0]])
        spec = JointRiskSpec(independence(3), (identity(),) * 3)
        with pytest.raises(DimensionError):
            gamma_signed_2d(s, spec)


def _negative_cells(values, tail):
    """Left-edge survival values and widths of one marginal's cells covering [min, 0)."""
    k = int(np.count_nonzero(values < 0.0))
    if k == 0:
        return np.empty(0), np.empty(0)
    return tail[:k], np.diff(np.concatenate((values[:k], [0.0])))


def _level_runs(levels, widths):
    """Each run of equal neighbouring levels: its first cell and its widths summed in cell order."""
    starts = np.flatnonzero(np.concatenate(([True], levels[1:] != levels[:-1])))
    return starts, np.array([np.cumsum(w)[-1] for w in np.split(widths, starts[1:])])


def _signed_per_quadrant(s, spec, merge=True):
    """The signed form with one cdf_grid call per non-empty quadrant.

    With ``merge``, the positive quadrant takes one level per run of equal
    neighbouring levels on each axis, with the run's summed widths; without
    it, every cell.
    """
    _, sv_pos, w_pos = zip(*(marginal_cells(s, i) for i in range(2)))
    sv_neg, w_neg = zip(*(_negative_cells(*marginal_steps(s, i)) for i in range(2)))
    gp = [np.asarray(g(sv), dtype=float) for g, sv in zip(spec.distortions, sv_pos)]
    gn = [np.asarray(g(sv), dtype=float) for g, sv in zip(spec.distortions, sv_neg)]
    c = spec.cstar
    total = 0.0
    if len(w_pos[0]) and len(w_pos[1]):
        levels, widths = gp, w_pos
        if merge:
            runs = [_level_runs(g, w) for g, w in zip(gp, w_pos)]
            levels, widths = [g[starts] for g, (starts, _) in zip(gp, runs)], [w for _, w in runs]
        total += float(widths[0] @ (c.cdf_grid(levels) @ widths[1]))
    if len(w_pos[0]) and len(w_neg[1]):
        total += float(w_pos[0] @ (c.cdf_grid([gp[0], gn[1]]) - gp[0][:, None]) @ w_neg[1])
    if len(w_neg[0]) and len(w_pos[1]):
        total += float(w_neg[0] @ (c.cdf_grid([gn[0], gp[1]]) - gp[1][None, :]) @ w_pos[1])
    if len(w_neg[0]) and len(w_neg[1]):
        total += float(w_neg[0] @ (c.cdf_grid(gn) - gn[0][:, None] - gn[1][None, :] + 1.0) @ w_neg[1])
    return total


def _base_family(cop):
    while isinstance(cop, SurvivalCopula):
        cop = cop.base
    return cop.family


@st.composite
def signed_case(draw):
    """A two-column portfolio of either sign and a spec over any coupling.

    Losses come from small pools, so columns tie and some sit at zero; some
    weights differ and some columns are all zero.  The coupling is any
    family, the empirical copula of tied data included, bare or
    survival-wrapped.
    """
    pool = draw(st.sampled_from(([-2.0, -0.5, 0.0, 1.0, 2.5], [-1.5, -0.25, 0.75, 3.0], [0.0, 0.5, 1.0, 4.25])))
    m = draw(st.integers(1, 10))
    losses = np.array(draw(st.lists(st.sampled_from(pool), min_size=2 * m, max_size=2 * m))).reshape(m, 2)
    if draw(st.integers(0, 4)) == 0:
        losses[:, draw(st.integers(0, 1))] = 0.0
    weights = None if draw(st.booleans()) else np.array(draw(st.lists(st.integers(1, 4), min_size=m, max_size=m)), float)
    choice = draw(st.sampled_from(("independence", "comonotone", "countermonotone", "clayton", "gumbel", "frank", EMPIRICAL)))
    if choice == EMPIRICAL:
        rng = np.random.default_rng(draw(st.integers(0, 3)))
        cop = empirical_copula(scenario_set(np.round(rng.uniform(0, 3, size=(12, 2)))))
    elif choice in ("independence", "comonotone", "countermonotone"):
        cop = {"independence": independence(2), "comonotone": comonotone(2), "countermonotone": countermonotone_2d()}[choice]
    else:
        theta = draw(st.sampled_from((1.0, 2.5) if choice == "gumbel" else (0.5, 3.0)))
        cop = {"clayton": clayton, "gumbel": gumbel, "frank": frank}[choice](theta, 2)
    for _ in range(draw(st.integers(0, 2))):
        cop = survival_copula(cop)
    kinds = (identity(), var_step(0.7), cvar_ramp(0.6), power(2.0), power(0.5))
    spec = JointRiskSpec(cop, (draw(st.sampled_from(kinds)), draw(st.sampled_from(kinds))))
    return scenario_set(losses, weights), spec


@settings(max_examples=300, deadline=None)
@given(case=signed_case())
def test_signed_form_equals_the_per_quadrant_calls(case):
    s, spec = case
    got, want = gamma_signed_2d(s, spec), _signed_per_quadrant(s, spec)
    if s.nonnegative or _base_family(spec.cstar) != EMPIRICAL:
        assert got == want
    else:
        # an empirical grid over both quadrants' levels splits histogram
        # bins, which moves the rounding of its sums; every integrand lies
        # in [-1, 1], so the area of the loss box sets the rounding scale
        area = float(np.prod(s.losses.max(axis=0) - np.minimum(s.losses.min(axis=0), 0.0)))
        assert abs(got - want) <= 1e-14 * max(abs(got), abs(want), area)
    # the per-cell positive quadrant differs by the order of its additions only
    _assert_per_cell_close(s, got, _signed_per_quadrant(s, spec, merge=False))


def _assert_per_cell_close(s, got, per_cell):
    """``got`` within 1e-13 of the per-cell sum: relative on nonnegative data, else on the loss box's area.

    A nonnegative portfolio's form adds nonnegative terms only; the signed
    quadrants cancel, so a value near 0 can come from terms as large as
    the area of the loss box (every integrand lies in [-1, 1]).
    """
    scale = max(abs(got), abs(per_cell))
    if not s.nonnegative:
        scale = max(scale, float(np.prod(s.losses.max(axis=0) - s.losses.min(axis=0).clip(max=0.0))))
    assert abs(got - per_cell) <= 1e-13 * scale


def _signed_one_grid(s, spec, merge=True):
    """The signed form on its own grid: g(concat(neg, pos)) levels, one cdf_grid, four blocks.

    With ``merge``, the positive quadrant takes one grid entry per run of
    equal neighbouring levels on each axis, with the run's widths summed in
    cell order; without it, every cell.
    """
    _, sv_pos, w_pos = zip(*(marginal_cells(s, i) for i in range(2)))
    sv_neg, w_neg = zip(*(_negative_cells(*marginal_steps(s, i)) for i in range(2)))
    levels = [np.asarray(g(np.concatenate((n, p))), dtype=float) for g, n, p in zip(spec.distortions, sv_neg, sv_pos)]
    grid = spec.cstar.cdf_grid(levels)
    k1, k2 = len(w_neg[0]), len(w_neg[1])
    gn, gp = [levels[0][:k1], levels[1][:k2]], [levels[0][k1:], levels[1][k2:]]
    total = 0.0
    if len(w_pos[0]) and len(w_pos[1]):
        picks, widths = [np.arange(len(w)) for w in w_pos], w_pos
        if merge:
            picks, widths = zip(*(_level_runs(g, w) for g, w in zip(gp, w_pos)))
        cells = grid[np.ix_(k1 + picks[0], k2 + picks[1])]
        total += float(_contract(cells[None], [widths[0][None], widths[1][None]])[0])
    if len(w_pos[0]) and k2:
        total += float(w_pos[0] @ (grid[k1:, :k2] - gp[0][:, None]) @ w_neg[1])
    if k1 and len(w_pos[1]):
        total += float(w_neg[0] @ (grid[:k1, k2:] - gp[1][None, :]) @ w_pos[1])
    if k1 and k2:
        total += float(w_neg[0] @ (grid[:k1, :k2] - gn[0][:, None] - gn[1][None, :] + 1.0) @ w_neg[1])
    return total


@settings(max_examples=300, deadline=None)
@given(case=signed_case())
def test_signed_form_equals_its_own_one_grid_construction(case):
    # the step grid adds the levels 1 and g(0) and shares an axis' entry k
    # between its quadrants; a parametric cell depends on its own levels only,
    # and under an empirical base the extra levels bin no scenario
    s, spec = case
    got, want = gamma_signed_2d(s, spec), _signed_one_grid(s, spec)
    assert got == want and np.signbit(got) == np.signbit(want)
    # the per-cell positive quadrant differs by the order of its additions only
    _assert_per_cell_close(s, got, _signed_one_grid(s, spec, merge=False))


@pytest.mark.parametrize("choice", ["clayton", "empirical"])
@pytest.mark.parametrize("shift", [0.0, 2.0])
def test_signed_form_evaluates_the_coupling_once(monkeypatch, choice, shift):
    calls = []
    for cls in (Copula, SurvivalCopula):
        def counted(self, axes, _grid=cls.cdf_grid):
            calls.append(len(axes))
            return _grid(self, axes)

        monkeypatch.setattr(cls, "cdf_grid", counted)
    s = signed_portfolio(np.random.default_rng(5))
    s = s.with_losses(s.losses + shift)
    cop = clayton(2.0) if choice == "clayton" else empirical_copula(s)
    gamma_signed_2d(s, JointRiskSpec(survival_copula(cop), (cvar_ramp(0.8), power(2.0))))
    assert calls == [2]
