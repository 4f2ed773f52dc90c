import functools
import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jointrisk import (
    ConfidenceBand,
    DataError,
    DimensionError,
    DomainError,
    JointRiskSpec,
    ParameterError,
    TruncationError,
    axiom_suite,
    clayton,
    comonotone,
    countermonotone_2d,
    cvar_ramp,
    dyadic_bounds,
    empirical_copula,
    frank,
    gamma_dyadic,
    gamma_forms,
    gamma_ls_form,
    gamma_survival_form,
    gamma_survival_forms,
    gumbel,
    identity,
    independence,
    pi_comonotone_split,
    power,
    random_portfolio,
    scenario_set,
    survival_copula,
    var_step,
    varcvar_spec_factory,
)
from jointrisk import scalar_risk
from jointrisk.copula import Copula, SurvivalCopula
from jointrisk.portfolio import marginal_cells, marginal_steps
from jointrisk.scalar_risk import _contract

BAND = ConfidenceBand(0.90, 0.99)

COPULA_ZOO = [
    independence(2),
    comonotone(2),
    clayton(2.0),
    gumbel(2.0),
    frank(5.0),
    countermonotone_2d(),
]


def identity_spec(cstar):
    return JointRiskSpec(cstar, tuple(identity() for _ in range(cstar.dim)))


def indep_two_by_two():
    # X1, X2 independent, each {1, 3} with probability 1/2
    return scenario_set([[1.0, 1.0], [1.0, 3.0], [3.0, 1.0], [3.0, 3.0]])


def spec_zoo(dim):
    """Representative (cstar, distortions) bundles for randomized agreement runs."""
    bundles = [
        JointRiskSpec(independence(dim), tuple(identity() for _ in range(dim))),
        JointRiskSpec(
            survival_copula(clayton(2.0, dim)), tuple(cvar_ramp(0.9) for _ in range(dim))
        ),
        JointRiskSpec(survival_copula(comonotone(dim)), tuple(power(2.0) for _ in range(dim))),
        JointRiskSpec(
            survival_copula(gumbel(2.0, dim)),
            tuple(var_step(0.85) if i % 2 else identity() for i in range(dim)),
        ),
    ]
    if dim == 2:
        bundles.append(
            JointRiskSpec(survival_copula(countermonotone_2d()), (cvar_ramp(0.95), identity()))
        )
    return bundles


class TestGoldens:
    def test_unit_portfolio_normalization(self):
        ones = scenario_set([[1.0, 1.0]])
        for cop in COPULA_ZOO:
            for gs in ((identity(), identity()), (var_step(0.95), var_step(0.95))):
                spec = JointRiskSpec(survival_copula(cop), gs)
                assert gamma_survival_form(ones, spec) == pytest.approx(1.0, abs=1e-12)
                assert gamma_ls_form(ones, spec) == pytest.approx(1.0, abs=1e-12)

    def test_independent_two_by_two_is_four(self):
        spec = identity_spec(independence(2))
        assert gamma_survival_form(indep_two_by_two(), spec) == pytest.approx(4.0, abs=1e-12)
        assert gamma_ls_form(indep_two_by_two(), spec) == pytest.approx(4.0, abs=1e-12)

    def test_comonotone_pairs_is_five(self):
        s = scenario_set([[1.0, 1.0], [3.0, 3.0]])
        spec = identity_spec(survival_copula(comonotone(2)))
        assert gamma_survival_form(s, spec) == pytest.approx(5.0, abs=1e-12)
        assert gamma_ls_form(s, spec) == pytest.approx(5.0, abs=1e-12)

    def test_product_of_means_under_independence(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            s = random_portfolio(rng, 3, max_m=10)
            spec = identity_spec(independence(3))
            means = s.weights @ s.losses
            assert gamma_survival_form(s, spec) == pytest.approx(float(np.prod(means)), rel=1e-12)

    def test_zero_marginal_annihilates(self):
        s = scenario_set([[0.0, 1.0], [0.0, 3.0]])
        for cop in COPULA_ZOO:
            assert gamma_survival_form(s, identity_spec(survival_copula(cop))) == 0.0
            assert gamma_ls_form(s, identity_spec(survival_copula(cop))) == 0.0


class TestValidation:
    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            gamma_survival_form(indep_two_by_two(), identity_spec(independence(3)))

    def test_negative_losses_rejected(self):
        s = scenario_set([[-1.0, 2.0]])
        with pytest.raises(DataError):
            gamma_survival_form(s, identity_spec(independence(2)))

    def test_spec_arity_checked(self):
        with pytest.raises(DimensionError):
            JointRiskSpec(independence(2), (identity(),))


class TestFormulationAgreement:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_survival_vs_ls_on_random_instances(self, dim):
        rng = np.random.default_rng(100 + dim)
        for k in range(25):
            s = random_portfolio(rng, dim, max_m=12)
            spec = spec_zoo(dim)[k % len(spec_zoo(dim))]
            a, b = gamma_survival_form(s, spec), gamma_ls_form(s, spec)
            assert a == pytest.approx(b, rel=1e-9, abs=1e-12)

    def test_agreement_with_empirical_coupling_on_large_portfolio(self):
        # regression: distorted survival levels can land exactly on the rank
        # thresholds of an empirical coupling copula; both formulations must
        # resolve such ties identically, which requires a single shared step
        # representation of every marginal survival function
        from jointrisk import empirical_copula

        rng = np.random.default_rng(7)
        losses = np.exp(0.4 * rng.multivariate_normal([0, 0], [[1, 0.6], [0.6, 1]], 250) + 1)
        s = scenario_set(losses, weights=np.full(250, 0.004))
        spec = JointRiskSpec(survival_copula(empirical_copula(s)), (power(2.0), power(2.0)))
        a, b = gamma_survival_form(s, spec), gamma_ls_form(s, spec)
        assert a == pytest.approx(b, rel=1e-9)


def _dependent_losses(seed, m, dim):
    # positively dependent losses in [0, 8), rounded so that marginals carry a few ties
    rng = np.random.default_rng(seed)
    common = rng.standard_normal((m, 1))
    z = 0.6 * common + 0.8 * rng.standard_normal((m, dim))
    return np.round(np.minimum(np.exp(0.5 * z), 7.99), 4)


class TestExactnessAtScale:
    """Survival and ls forms agree to 1e-9 at sizes well past the m <= 250 tiers."""

    @pytest.mark.parametrize(
        "m, dim, choice",
        [(2000, 2, "empirical"), (2000, 2, "clayton"), (150, 3, "empirical"), (150, 3, "gumbel")],
    )
    def test_formulations_agree(self, m, dim, choice):
        from jointrisk import empirical_copula

        s = scenario_set(_dependent_losses(m + dim, m, dim))
        cop = empirical_copula(s) if choice == "empirical" else {"clayton": clayton, "gumbel": gumbel}[choice](2.0, dim)
        spec = JointRiskSpec(survival_copula(cop), tuple(power(2.0) if i % 2 else cvar_ramp(0.9) for i in range(dim)))
        a, b = gamma_survival_form(s, spec), gamma_ls_form(s, spec)
        assert a > 0.0
        assert abs(a - b) <= 1e-9 * max(abs(a), abs(b))
        if dim == 2:
            lo, hi = dyadic_bounds(s, spec, 8)
            assert lo - 1e-12 <= gamma_dyadic(s, spec, 8) <= hi + 1e-12
            assert hi <= a + 1e-12


@st.composite
def portfolio_batch(draw):
    """1-6 portfolios of one dimension, a coupling copula and distortions.

    Losses come from small pools, so columns tie; the pools hold 0.0 and
    -0.0, and some portfolios get an all-zero column (gamma 0).
    """
    d = draw(st.sampled_from((1, 2, 3)))
    pool = draw(st.sampled_from(([0.0, -0.0, 1.0, 2.5], [0.5, 1.0, 1.5, 2.0, 3.0, 4.25], [0.0, 0.125, 7.0])))
    portfolios = []
    for _ in range(draw(st.integers(1, 6))):
        m = draw(st.integers(1, 8))
        losses = np.array(draw(st.lists(st.sampled_from(pool), min_size=m * d, max_size=m * d))).reshape(m, d)
        if draw(st.integers(0, 4)) == 0:
            losses[:, draw(st.integers(0, d - 1))] = 0.0
        weights = None if draw(st.booleans()) else np.array(draw(st.lists(st.integers(1, 4), min_size=m, max_size=m)), float)
        portfolios.append(scenario_set(losses, weights))
    choice = draw(st.sampled_from(("independence", "comonotone", "clayton", "gumbel", "frank", "empirical")))
    if choice == "empirical":
        rng = np.random.default_rng(draw(st.integers(0, 3)))
        cop = empirical_copula(scenario_set(np.round(rng.uniform(0, 3, size=(12, d)))))
    elif choice in ("independence", "comonotone"):
        cop = {"independence": independence, "comonotone": comonotone}[choice](d)
    else:
        theta = draw(st.sampled_from((1.0, 2.5) if choice == "gumbel" else (0.5, 3.0)))
        cop = {"clayton": clayton, "gumbel": gumbel, "frank": frank}[choice](theta, d)
    if draw(st.booleans()):
        cop = survival_copula(cop)
    kinds = (identity(), var_step(0.7), cvar_ramp(0.6), power(2.0), power(0.5))
    return portfolios, JointRiskSpec(cop, tuple(draw(st.sampled_from(kinds)) for _ in range(d)))


def _survival_form_per_axis(s, spec):
    """The survival form unbatched: marginal_cells and a distortion call per axis, one cdf_grid."""
    levels, widths = [], []
    for i in range(s.dim):
        _, sv, w = marginal_cells(s, i)
        if len(w) == 0:
            return 0.0
        levels.append(np.asarray(spec.distortions[i](sv), dtype=float))
        widths.append(w)
    return _grid_contract(spec.cstar.cdf_grid(levels), widths)


def _grid_contract(grid, widths):
    """Sum of a grid of copula values times the product of per-axis widths.

    The contraction of one grid as written before it was batched: the
    reference for every batch row of ``_contract``.
    """
    vals = grid.reshape(len(widths[0]), -1)
    tail_w = functools.reduce(np.multiply.outer, widths[1:], np.ones(1)).ravel()
    return float(widths[0] @ (vals @ tail_w))


@settings(max_examples=200, deadline=None)
@given(case=portfolio_batch())
# a one-step last axis padded to two: a strided sub-grid of the batch
@example(case=(
    [scenario_set([[3.5, 1.5, 1.5], [0.5, 0.5, 1.5]]), scenario_set([[1.5, 1.5, 1.5], [2.5, 2.5, 3.5]])],
    JointRiskSpec(survival_copula(clayton(0.5, 3)), (power(0.5), identity(), identity())),
))
# cell counts (3, 3), none on axis 1, (1, 1), (2, 2), (1, 1): the size sort
# reorders them, so values must be put back in input order
@example(case=(
    [
        scenario_set([[1.0, 2.5], [2.5, 1.0], [4.25, 3.0]]),
        scenario_set([[1.5, 0.0], [3.0, 0.0]]),
        scenario_set([[2.0, 1.0]]),
        scenario_set([[1.0, 0.5], [2.0, 1.5]], [1.0, 3.0]),
        scenario_set([[0.5, 3.0]]),
    ],
    JointRiskSpec(survival_copula(clayton(3.0)), (power(0.5), cvar_ramp(0.6))),
))
def test_batched_survival_forms_equal_single_ones_bit_for_bit(case):
    portfolios, spec = case
    singles = [_survival_form_per_axis(s, spec) for s in portfolios]
    for s, value in zip(portfolios, singles):
        if not np.all(s.losses.max(axis=0) > 0.0):
            assert value == 0.0
    # the default budget, one portfolio per chunk, and a few per chunk
    for budget in (scalar_risk._CELL_BUDGET, 1, 40):
        with mock.patch.object(scalar_risk, "_CELL_BUDGET", budget):
            batched = gamma_survival_forms(portfolios, spec)
            assert batched == [gamma_survival_form(s, spec) for s in portfolios]
        assert batched == singles


def _ls_form_per_mask(s, spec):
    """The ls form with one cdf_grid call per inclusion-exclusion mask.

    Each axis is distorted at its tails (the levels at each step) and at the
    tails shifted down by one step with 1 in front (the levels below it).
    """
    g_at, g_below, coords = [], [], []
    for i, g in enumerate(spec.distortions):
        values, tail = marginal_steps(s, i)
        g_at.append(np.asarray(g(tail), dtype=float))
        g_below.append(np.asarray(g(np.concatenate(([1.0], tail[:-1]))), dtype=float))
        coords.append(values)
    total = 0.0
    for mask in itertools.product((False, True), repeat=s.dim):
        levels = [g_at[i] if mask[i] else g_below[i] for i in range(s.dim)]
        sign = -1.0 if sum(mask) % 2 else 1.0
        total += sign * _grid_contract(spec.cstar.cdf_grid(levels), coords)
    return total


@st.composite
def ls_case(draw):
    """A nonnegative portfolio of dimension 1-4 and a spec over any coupling.

    Losses come from small pools, so columns tie; some weights differ and
    some columns are all zero.  The coupling is any family, the empirical
    copula of tied data included, bare, survival-wrapped or wrapped twice.
    """
    d = draw(st.integers(1, 4))
    pool = draw(st.sampled_from(([0.0, -0.0, 1.0, 2.5], [0.5, 1.0, 1.5, 2.0, 3.0, 4.25], [0.0, 0.125, 7.0])))
    m = draw(st.integers(1, 9 - d))
    losses = np.array(draw(st.lists(st.sampled_from(pool), min_size=m * d, max_size=m * d))).reshape(m, d)
    if draw(st.integers(0, 4)) == 0:
        losses[:, draw(st.integers(0, d - 1))] = 0.0
    weights = None if draw(st.booleans()) else np.array(draw(st.lists(st.integers(1, 4), min_size=m, max_size=m)), float)
    families = ["independence", "comonotone", "clayton", "gumbel", "frank", "empirical"]
    choice = draw(st.sampled_from(families + ["countermonotone"] if d == 2 else families))
    if choice == "empirical":
        rng = np.random.default_rng(draw(st.integers(0, 3)))
        cop = empirical_copula(scenario_set(np.round(rng.uniform(0, 3, size=(12, d)))))
    elif choice == "countermonotone":
        cop = countermonotone_2d()
    elif choice in ("independence", "comonotone"):
        cop = {"independence": independence, "comonotone": comonotone}[choice](d)
    else:
        theta = draw(st.sampled_from((1.0, 2.5) if choice == "gumbel" else (0.5, 3.0)))
        cop = {"clayton": clayton, "gumbel": gumbel, "frank": frank}[choice](theta, d)
    for _ in range(draw(st.integers(0, 2))):
        cop = survival_copula(cop)
    kinds = (identity(), var_step(0.7), cvar_ramp(0.6), power(2.0), power(0.5))
    spec = JointRiskSpec(cop, tuple(draw(st.sampled_from(kinds)) for _ in range(d)))
    return scenario_set(losses, weights), spec


@settings(max_examples=300, deadline=None)
@given(case=ls_case())
# a one-step last axis: every mask's sub-grid is strided
@example(case=(
    scenario_set([[0.5, 0.5, 1.5], [1.0, 1.0, 1.5]]),
    JointRiskSpec(survival_copula(clayton(0.5, 3)), (power(0.5), identity(), identity())),
))
def test_ls_form_equals_the_per_mask_loop_bit_for_bit(case):
    s, spec = case
    assert gamma_ls_form(s, spec) == _ls_form_per_mask(s, spec)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("choice", ["clayton", "empirical"])
def test_ls_form_evaluates_the_coupling_once(monkeypatch, d, choice):
    calls = []
    for cls in (Copula, SurvivalCopula):
        def counted(self, axes, _grid=cls.cdf_grid):
            calls.append(len(axes))
            return _grid(self, axes)

        monkeypatch.setattr(cls, "cdf_grid", counted)
    s = scenario_set(_dependent_losses(3, 30, d))
    cop = clayton(2.0, d) if choice == "clayton" else empirical_copula(s)
    spec = JointRiskSpec(survival_copula(cop), tuple(cvar_ramp(0.8) for _ in range(d)))
    gamma_ls_form(s, spec)
    assert calls == [d]


@st.composite
def forms_case(draw):
    """An :func:`ls_case` whose columns may be made to start at 0.

    Each column gets a zero loss in a drawn row with probability 1/2, so its
    smallest distinct value is 0 and its cells start one step after its
    steps; the all-zero columns of ``ls_case`` have no cell at all.
    """
    s, spec = draw(ls_case())
    losses = s.losses.copy()
    for i in range(s.dim):
        if draw(st.booleans()):
            losses[draw(st.integers(0, s.m - 1)), i] = 0.0
    return s.with_losses(losses), spec


@settings(max_examples=300, deadline=None)
@given(case=forms_case())
# zero-start columns: the survival form's levels start one entry into the
# ls form's level vectors
@example(case=(
    scenario_set([[0.0, 1.0], [2.0, 0.0], [3.0, 3.0], [2.0, 1.0]], [1.0, 2.0, 1.0, 3.0]),
    JointRiskSpec(survival_copula(clayton(2.0)), (cvar_ramp(0.6), identity())),
))
@example(case=(
    scenario_set([[0.0, 1.0, 0.5], [2.0, 0.0, 0.5], [2.0, 3.0, 0.0]]),
    JointRiskSpec(
        survival_copula(empirical_copula(scenario_set([[1.0, 2.0, 1.0], [2.0, 1.0, 1.0], [3.0, 3.0, 2.0]]))),
        (var_step(0.7), power(2.0), identity()),
    ),
))
def test_both_forms_from_one_grid_equal_the_separate_forms_bit_for_bit(case):
    s, spec = case
    assert gamma_forms(s, spec) == (gamma_survival_form(s, spec), _ls_form_per_mask(s, spec))


class TestBatchedSurvivalForm:
    def test_empty_batch(self):
        assert gamma_survival_forms([], JointRiskSpec(independence(2), (identity(), identity()))) == []

    def test_every_portfolio_is_validated(self):
        spec = JointRiskSpec(independence(2), (identity(), identity()))
        good = scenario_set([[1.0, 2.0]])
        with pytest.raises(DataError):
            gamma_survival_forms([good, scenario_set([[1.0, -2.0]])], spec)
        with pytest.raises(DimensionError):
            gamma_survival_forms([good, scenario_set([[1.0, 2.0, 3.0]])], spec)

    def test_negative_loss_in_the_last_portfolio_is_a_data_error(self):
        spec = identity_spec(clayton(2.0))
        batch = [indep_two_by_two() for _ in range(4)]
        batch.append(batch[0].with_losses([[1.0, 1.0], [1.0, 3.0], [3.0, 1.0], [3.0, -0.5]]))
        with pytest.raises(DataError, match="negative losses"):
            gamma_survival_forms(batch, spec)

    @pytest.mark.parametrize("position", [0, 2])
    def test_nan_loss_is_a_data_error(self, position):
        # with_losses does not check finiteness, so the batch scan must catch it
        spec = identity_spec(independence(2))
        batch = [indep_two_by_two() for _ in range(3)]
        losses = batch[position].losses.copy()
        losses[1, 1] = np.nan
        batch[position] = batch[position].with_losses(losses)
        with pytest.raises(DataError):
            gamma_survival_forms(batch, spec)

    def test_dimension_mismatch_is_raised_before_any_cell_table(self, monkeypatch):
        built = []

        def counted(*args, _steps=scalar_risk.steps):
            built.append(len(args[1]))
            return _steps(*args)

        monkeypatch.setattr(scalar_risk, "steps", counted)
        spec = identity_spec(independence(2))
        # a negative set ahead of the mismatched one: dimensions are checked first
        batch = [scenario_set([[1.0, -2.0]]), indep_two_by_two(), scenario_set([[1.0, 2.0, 3.0]])]
        with pytest.raises(DimensionError):
            gamma_survival_forms(batch, spec)
        assert built == []
        gamma_survival_forms(batch[1:2], spec)
        assert built == [2]


@st.composite
def contract_case(draw):
    """A batch of G grids of one shape, d = 1-4, with weights; axes of one cell are common."""
    d = draw(st.integers(1, 4))
    top = {1: 2000, 2: 300, 3: 30, 4: 12}[d]
    shape = tuple(draw(st.one_of(st.just(1), st.integers(1, top))) for _ in range(d))
    batch = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grids = rng.uniform(size=(batch,) + shape)
    weights = [rng.exponential(size=(batch, n)) for n in shape]
    return grids, weights


@settings(max_examples=300, deadline=None)
@given(case=contract_case())
@example(case=(np.full((3, 1), 0.3), [np.full((3, 1), 0.7)]))
@example(case=(np.linspace(0, 1, 24).reshape(2, 1, 3, 1, 4), [np.full((2, n), 1.1) for n in (1, 3, 1, 4)]))
def test_batched_contract_rows_equal_the_per_grid_formula(case):
    grids, weights = case
    rows = _contract(grids, weights)
    assert rows.shape == (len(grids),)
    # each grid copied out alone, as the unbatched kernel saw it
    assert rows.tolist() == [_grid_contract(g.copy(), [w[p] for w in weights]) for p, g in enumerate(grids)]


class TestDyadic:
    def test_unit_portfolio_close(self):
        ones = scenario_set([[1.0, 1.0]])
        spec = identity_spec(independence(2))
        assert abs(gamma_dyadic(ones, spec, 4) - 1.0) <= 2 * 2 / 2**4

    def test_independent_case_converges(self):
        spec = identity_spec(independence(2))
        assert abs(gamma_dyadic(indep_two_by_two(), spec, 6) - 4.0) < 0.2

    def test_sandwich_and_monotone_refinement(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            s = random_portfolio(rng, 2, max_m=10)
            spec = identity_spec(survival_copula(clayton(2.0)))
            exact = gamma_survival_form(s, spec)
            errors = []
            for n in (4, 6, 8):
                lo, hi = dyadic_bounds(s, spec, n)
                d = gamma_dyadic(s, spec, n)
                assert lo - 1e-12 <= d <= hi + 1e-12
                assert hi <= exact + 1e-12
                errors.append(abs(exact - d))
            assert errors[0] >= errors[1] - 1e-12 >= errors[2] - 2e-12

    def test_truncation_level_must_cover_losses(self):
        s = scenario_set([[10.0, 3.0]])
        with pytest.raises(TruncationError):
            gamma_dyadic(s, identity_spec(independence(2)), 4)
        with pytest.raises(TruncationError):
            dyadic_bounds(s, identity_spec(independence(2)), 4)

    @pytest.mark.parametrize("n", [0, -1, 2.5, 4.0, np.float64(4.0)])
    @pytest.mark.parametrize("measure", [gamma_dyadic, dyadic_bounds])
    def test_resolution_must_be_a_positive_integer(self, measure, n):
        # checked before the truncation level: 2.5 covers these losses
        s = scenario_set([[1.0, 2.0], [2.0, 0.5]])
        with pytest.raises(DomainError, match="positive integer"):
            measure(s, identity_spec(independence(2)), n)

    @pytest.mark.parametrize("measure", [gamma_dyadic, dyadic_bounds])
    def test_numpy_integer_resolution_is_accepted(self, measure):
        s = scenario_set([[1.0, 2.0], [2.0, 0.5]])
        spec = identity_spec(independence(2))
        assert measure(s, spec, np.int64(4)) == measure(s, spec, 4)


class TestHomogeneityAndConvergence:
    def test_scaling_identity(self):
        rng = np.random.default_rng(55)
        spec = identity_spec(survival_copula(gumbel(2.0)))
        for _ in range(10):
            s = random_portfolio(rng, 2)
            c = rng.choice([0.5, 1.5, 2.0, 3.0], size=2)
            scaled = s.with_losses(s.losses * c[None, :])
            assert gamma_survival_form(scaled, spec) == pytest.approx(
                float(np.prod(c)) * gamma_survival_form(s, spec), rel=1e-12
            )

    def test_clamp_sequences_increase_to_limit(self):
        rng = np.random.default_rng(56)
        spec = identity_spec(survival_copula(frank(5.0)))
        s = random_portfolio(rng, 2, max_m=10)
        full = gamma_survival_form(s, spec)
        prev = -np.inf
        for frac in (0.2, 0.4, 0.6, 0.8, 1.0):
            clamped = s.with_losses(np.minimum(s.losses, frac * s.losses.max(axis=0)[None, :]))
            g = gamma_survival_form(clamped, spec)
            assert g >= prev - 1e-12
            prev = g
        assert prev == pytest.approx(full, rel=1e-12)


def _broken(u):
    """A distortion that is not monotone: it drops from 0.5 to 0.1 at u = 0.5."""
    u = np.asarray(u, dtype=float)
    out = np.where(u < 0.5, u, 0.1)
    out = np.where(u == 1.0, 1.0, out)
    return out


def _broken_factory(cop):
    return JointRiskSpec(survival_copula(cop), (_broken, _broken))


def _scenario_set_axiom_suite(spec_factory, copulas, trials, seed):
    """``axiom_suite(...).as_dict()`` with every trial portfolio built as a ScenarioSet.

    The suite's construction before its flat loss batches, kept as an
    independent reference for both the random stream and the arithmetic:
    each trial draws with ``rng.choice`` and builds its transforms in place,
    one column and one loop at a time, through ``with_losses``,
    ``pi_comonotone_split`` and a mask generator; each trial's whole batch,
    copies included, is one ``gamma_survival_forms`` call.
    """
    dim = copulas[0].dim
    rng = np.random.default_rng(seed)
    specs = [spec_factory(c) for c in copulas]
    worst = {a: (0.0, None) for a in scalar_risk.AXIOM_DESCRIPTIONS}

    def note(axiom, violation, witness):
        if violation > worst[axiom][0]:
            worst[axiom] = (violation, witness)

    def mixed(y, z):
        for mask in itertools.product((False, True), repeat=dim):
            yield sum(mask), y.with_losses(np.where(mask, y.losses, z.losses))

    def rank_preserving_increase(s, uniques):
        cols = []
        for col, values in zip(s.losses.T, uniques):
            newv = values + rng.choice(np.array([0.0, 0.25, 0.5, 1.0]), size=len(values))
            for j in range(1, len(newv)):
                if newv[j] <= newv[j - 1]:
                    newv[j] = newv[j - 1] + 0.0625
            cols.append(newv[np.searchsorted(values, col)])
        return s.with_losses(np.column_stack(cols))

    def single_cell_squeeze(s, uniques):
        i = int(rng.integers(0, dim))
        values = uniques[i]
        if len(values) < 3:
            return s.with_losses(s.losses + 0.25)
        j = int(rng.integers(1, len(values) - 1))
        newv = values.copy()
        newv[j] = values[j] + (values[j + 1] - values[j]) * 0.9375
        losses = s.losses.copy()
        losses[:, i] = newv[np.searchsorted(values, losses[:, i])]
        return s.with_losses(losses)

    floor = scalar_risk.ABS_FLOOR
    for t in range(trials):
        s = random_portfolio(rng, dim)
        c_vec = rng.choice(np.array([0.25, 0.5, 0.75, 1.25, 1.5, 2.0, 3.0]), size=dim)
        uniques = [np.unique(col) for col in s.losses.T]
        bigger = rank_preserving_increase(s, uniques)
        squeezed = single_cell_squeeze(s, uniques)
        clamps = [float(v[rng.integers(0, len(v))] if len(v) > 1 else v[0] * 0.5) for v in uniques]
        y, z = pi_comonotone_split(s, clamps=clamps)
        perm = rng.permutation(s.m)
        w = s.weights[perm]
        relabeled = scenario_set(
            np.vstack([s.losses[perm], s.losses[perm][:1]]),
            np.concatenate(([w[0] / 2.0], w[1:], [w[0] / 2.0])),
            s.names,
        )
        increments = list(mixed(bigger, s))
        splits = [p for _, p in mixed(y, z)]
        clamped = [
            s.with_losses(np.minimum(s.losses, frac * s.losses.max(axis=0)[None, :]))
            for frac in (0.25, 0.5, 0.75, 1.0)
        ]
        batch = [s, s.with_losses(s.losses * c_vec[None, :]), bigger, squeezed]
        batch += [p for _, p in increments] + splits + clamped + [relabeled]
        ci = t % len(copulas)
        gammas = iter(gamma_survival_forms(batch, specs[ci]))
        base = next(gammas)
        info = {"trial": t, "copula_index": ci, "m": s.m}
        lhs, rhs = next(gammas), float(np.prod(c_vec)) * base
        note("A1", scalar_risk._rel_gap(lhs, rhs), {**info, "scales": c_vec.tolist(), "lhs": lhs, "rhs": rhs})
        high = next(gammas)
        scale = max(abs(base), abs(high), floor)
        note("A2", max(0.0, (base - high) / scale), {**info, "gamma_low": base, "gamma_high": high})
        squeezed_gamma = next(gammas)
        note(
            "A2",
            max(0.0, (base - squeezed_gamma) / max(abs(base), abs(squeezed_gamma), floor)),
            {**info, "gamma_low": base, "gamma_high": squeezed_gamma, "perturbation": "cell_squeeze"},
        )
        increment = 0.0
        for picks, _ in increments:
            increment += (-1.0 if (dim - picks) % 2 else 1.0) * next(gammas)
        note("A5", max(0.0, -increment / scale), {**info, "increment": increment})
        total = sum(next(gammas) for _ in splits)
        note("A3", scalar_risk._rel_gap(base, total), {**info, "clamps": clamps, "sum": total, "gamma": base})
        seq = [next(gammas) for _ in clamped]
        mono = max(max(0.0, (seq[j] - seq[j + 1]) / max(abs(seq[j + 1]), floor)) for j in range(3))
        note("A4", max(mono, scalar_risk._rel_gap(seq[-1], base)), {**info, "sequence": seq, "gamma": base})
        note("A6", scalar_risk._rel_gap(base, next(gammas)), info)
    checks = [
        {
            "axiom": a,
            "description": scalar_risk.AXIOM_DESCRIPTIONS[a],
            "passed": worst[a][0] <= scalar_risk.REL_TOL,
            "worst_violation": worst[a][0],
            "witness": worst[a][1] if worst[a][0] > scalar_risk.REL_TOL else None,
        }
        for a in ("A1", "A2", "A3", "A4", "A5", "A6")
    ]
    return {"seed": seed, "trials": trials, "all_passed": all(c["passed"] for c in checks), "checks": checks}


def _low_level_factory(c):
    # levels low enough that m <= 8 portfolios have nonzero measures
    return JointRiskSpec(survival_copula(c), (cvar_ramp(0.3),) * c.dim)


class TestAxiomSuite:
    @pytest.mark.parametrize("budget", [scalar_risk._CELL_BUDGET, 1])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_flat_batches_equal_the_scenario_set_construction_bit_for_bit(self, d, budget):
        rng = np.random.default_rng(d)
        copulas = [independence(d), empirical_copula(scenario_set(np.round(rng.gamma(2.0, 1.5, size=(30, d)), 1)))]
        if d > 1:
            copulas += [clayton(2.0, d), gumbel(1.5, d)]
        cases = [(_low_level_factory, copulas, 9), (varcvar_spec_factory(BAND, "cvar", grid_n=20), copulas, 5)]
        if d == 2:
            cases.append((_broken_factory, [independence(2)], 40))
        with mock.patch.object(scalar_risk, "_CELL_BUDGET", budget):
            for factory, cops, trials in cases:
                for seed in (1, 8):
                    want = _scenario_set_axiom_suite(factory, cops, trials, seed)
                    assert axiom_suite(factory, cops, trials=trials, seed=seed).as_dict() == want
            # a per-portfolio term in every value fails A1, A3, A4 and A6 too,
            # so that their witnesses are compared as well
            kernel = scalar_risk._survival_forms

            def skewed(losses, weights, lengths, spec):
                largest = np.maximum.reduceat(losses.max(axis=1), np.cumsum(lengths) - lengths)
                return kernel(losses, weights, lengths, spec) + lengths - largest**2

            with mock.patch.object(scalar_risk, "_survival_forms", skewed):
                want = _scenario_set_axiom_suite(_low_level_factory, copulas, 9, 1)
                assert {c["axiom"] for c in want["checks"] if c["witness"]} >= {"A1", "A3", "A4", "A6"}
                assert axiom_suite(_low_level_factory, copulas, trials=9, seed=1).as_dict() == want

    @pytest.mark.parametrize("seed", [-1, 1.5, 2.0, "3"])
    def test_negative_or_non_integer_seed_is_a_parameter_error(self, seed):
        with pytest.raises(ParameterError, match="seed"):
            axiom_suite(_low_level_factory, [independence(2)], trials=2, seed=seed)

    @pytest.mark.parametrize("trials", [0, 2.0, 1.5])
    def test_non_positive_or_non_integer_trials_is_a_parameter_error(self, trials):
        with pytest.raises(ParameterError, match="trials"):
            axiom_suite(_low_level_factory, [independence(2)], trials=trials, seed=0)

    def test_no_copula_is_a_data_error(self):
        with pytest.raises(DataError, match="at least one copula"):
            axiom_suite(_low_level_factory, [], trials=2)

    def test_copulas_of_two_dimensions_are_a_dimension_error(self):
        with pytest.raises(DimensionError, match="share one dimension"):
            axiom_suite(_low_level_factory, [independence(2), independence(3)], trials=2)

    def test_a_spec_of_another_dimension_is_a_dimension_error(self):
        def factory(c):
            return JointRiskSpec(independence(c.dim + 1), (identity(),) * (c.dim + 1))

        with pytest.raises(DimensionError, match="mismatched dimension"):
            axiom_suite(factory, [independence(2)], trials=2)

    @pytest.mark.parametrize("max_m", [-3, 0, 1, 64, 100])
    def test_random_portfolio_size_bound_outside_its_range_is_a_parameter_error(self, max_m):
        rng = np.random.default_rng(0)
        with pytest.raises(ParameterError, match="max_m"):
            random_portfolio(rng, 2, max_m=max_m)
        # raised before any draw: the generator's stream is untouched
        assert rng.integers(0, 2**62) == np.random.default_rng(0).integers(0, 2**62)

    @pytest.mark.parametrize("dim", [0, -1])
    def test_random_portfolio_without_columns_is_a_dimension_error(self, dim):
        rng = np.random.default_rng(0)
        with pytest.raises(DimensionError, match="dim"):
            random_portfolio(rng, dim)
        assert rng.integers(0, 2**62) == np.random.default_rng(0).integers(0, 2**62)

    def test_a_nan_measure_fails_every_axiom_at_its_first_nan_trial(self):
        # a trial sends 2^(d+1) + 6 portfolios to the kernel
        kernel, width = scalar_risk._survival_forms, 2**3 + 6

        def nan_trials(losses, weights, lengths, spec):
            # one spec: trial t is the t-th run of `width` values
            out = kernel(losses, weights, lengths, spec)
            out[30 * width : 31 * width] = out[35 * width : 36 * width] = np.nan
            return out

        with mock.patch.object(scalar_risk, "_survival_forms", nan_trials):
            # A2 also fails on finite values before trial 30
            report = axiom_suite(_broken_factory, [independence(2)], trials=40, seed=1)
        assert not report.all_passed
        for c in report.checks:
            assert not c.passed and np.isnan(c.worst_violation)
            assert c.witness["trial"] == 30

    def test_fewer_trials_than_copulas(self):
        copulas = [independence(2), clayton(2.0), gumbel(1.5)]
        report = axiom_suite(_low_level_factory, copulas, trials=2, seed=0).as_dict()
        assert report == _scenario_set_axiom_suite(_low_level_factory, copulas, 2, 0)

    @pytest.mark.parametrize("max_m", [2, 8, 63])
    def test_random_portfolio_in_range_draws_the_same_stream(self, max_m):
        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        s = random_portfolio(rng, 3, max_m=max_m)
        m = int(ref.integers(2, max_m + 1))
        cols = [ref.choice(np.arange(1, 64), size=m, replace=False) / 16 for _ in range(3)]
        assert np.array_equal(s.losses, np.column_stack(cols))
        assert rng.integers(0, 2**62) == ref.integers(0, 2**62)

    def test_numpy_integer_seed_and_trials_are_accepted(self):
        want = axiom_suite(_low_level_factory, [independence(2)], trials=3, seed=4).as_dict()
        assert axiom_suite(_low_level_factory, [independence(2)], trials=np.int64(3), seed=np.int64(4)).as_dict() == want

    def test_example_family_passes(self):
        factory = varcvar_spec_factory(BAND, "cvar", grid_n=60)
        report = axiom_suite(factory, COPULA_ZOO, trials=30, seed=2024)
        assert report.all_passed, [c.as_dict() for c in report.checks if not c.passed]
        assert report.seed == 2024

    def test_broken_distortion_fails_monotonicity(self):
        report = axiom_suite(_broken_factory, [independence(2)], trials=40, seed=1)
        a2 = report.check("A2")
        assert not a2.passed
        assert a2.witness is not None
        assert a2.worst_violation > 1e-9

    @pytest.mark.parametrize("d", [2, 3])
    def test_report_does_not_depend_on_the_cell_budget(self, d):
        factory = varcvar_spec_factory(BAND, "cvar", grid_n=40)
        copulas = [clayton(2.0, d), gumbel(1.5, d)]
        report = axiom_suite(factory, copulas, trials=12, seed=3).as_dict()
        with mock.patch.object(scalar_risk, "_CELL_BUDGET", 1):
            assert axiom_suite(factory, copulas, trials=12, seed=3).as_dict() == report

    def test_broken_distortion_witness_does_not_depend_on_the_cell_budget(self):
        report = axiom_suite(_broken_factory, [independence(2)], trials=40, seed=1).as_dict()
        assert report["checks"][1]["witness"] is not None
        with mock.patch.object(scalar_risk, "_CELL_BUDGET", 1):
            assert axiom_suite(_broken_factory, [independence(2)], trials=40, seed=1).as_dict() == report

    def test_rank_preserving_increase_equals_the_gap_loop(self):
        # reference: one Python pass per distinct value, on the same bumps
        def looped(values, bumps):
            newv = values + bumps
            for j in range(1, len(newv)):
                if newv[j] <= newv[j - 1]:
                    newv[j] = newv[j - 1] + 0.0625
            return newv

        draw = np.random.default_rng(41)
        for case in range(300):
            d = int(draw.integers(1, 5))
            if case % 2:
                s = random_portfolio(draw, d, max_m=30)
            else:
                # ties and zeros on the sixteenths grid
                s = scenario_set(draw.integers(0, 24, size=(int(draw.integers(1, 30)), d)) / 16)
            for col in s.losses.T:
                values = np.unique(col)
                bumps = draw.choice(scalar_risk._BUMPS, size=len(values))
                got = scalar_risk._rank_preserving_increase(values, bumps)
                assert np.array_equal(got, looped(values, bumps))
                assert np.all(np.diff(got) > 0) and np.all(got >= values)
        # a stack of columns, as axiom_suite passes them, equals column by column
        columns = [draw.choice(np.arange(1, 64), size=8, replace=False) for _ in range(15)]
        values = np.sort(np.reshape(columns, (5, 3, 8)), axis=-1) / 16
        bumps = draw.choice(scalar_risk._BUMPS, size=values.shape)
        want = [looped(v, b) for v, b in zip(values.reshape(-1, 8), bumps.reshape(-1, 8))]
        got = scalar_risk._rank_preserving_increase(values, bumps)
        assert np.array_equal(got, np.reshape(want, values.shape))

    def test_single_cell_squeeze_moves_one_interior_value_per_row(self):
        draw = np.random.default_rng(43)
        for n in (3, 4, 8):
            rows = [draw.choice(np.arange(1, 64), size=n, replace=False) for _ in range(20)]
            values = np.sort(np.array(rows), axis=1) / 16
            cell = draw.integers(1, n - 1, size=len(values))
            got = scalar_risk._single_cell_squeeze(values, cell)
            for row, j, new in zip(values, cell, got):
                want = row.copy()
                want[j] = row[j] + (row[j + 1] - row[j]) * 0.9375
                assert np.array_equal(new, want)
                assert np.all(np.diff(new) > 0) and np.all(new >= row)

    def test_one_copula_grid_call_per_spec(self):
        calls = []

        def spy(cls):
            original = cls.cdf_grids

            def counting(self, axes):
                calls.append(len(axes[0]))
                return original(self, axes)

            return mock.patch.object(cls, "cdf_grids", counting)

        factory = varcvar_spec_factory(BAND, "var", grid_n=40)
        with spy(Copula), spy(SurvivalCopula):
            axiom_suite(factory, [clayton(2.0)], trials=10, seed=4)
        # the portfolios of all ten trials (14 each at d = 2, less those
        # without cells) in one grid batch
        assert len(calls) == 1 and 120 < calls[0] <= 140

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_each_trial_sends_its_distinct_portfolios_once(self, d):
        batches = []
        kernel = scalar_risk._survival_forms

        def spy(losses, weights, lengths, spec):
            ends = np.cumsum(lengths)
            batches.append([(losses[e - n : e], weights[e - n : e]) for e, n in zip(ends, lengths)])
            return kernel(losses, weights, lengths, spec)

        trials, sent, full = 12, 2 ** (d + 1) + 6, 2 ** (d + 1) + 9
        with mock.patch.object(scalar_risk, "_survival_forms", spy):
            axiom_suite(_low_level_factory, [independence(d)], trials=trials, seed=d)
            # one kernel call per trial, each with the trial's whole batch
            _scenario_set_axiom_suite(_low_level_factory, [independence(d)], trials, d)
        suite, reference = batches[0], batches[1:]
        assert len(suite) == trials * sent and len(reference) == trials

        def same(p, q):
            return np.array_equal(p[0], q[0]) and np.array_equal(p[1], q[1])

        # the all-False increment mix is the base, the all-True one the
        # bigger portfolio, and the clamp at the column maxima the base
        copies = {4: 0, 3 + 2**d: 2, full - 2: 0}
        trial_batches = [suite[t * sent : (t + 1) * sent] for t in range(trials)]
        for got, want in zip(trial_batches, reference):
            assert all(same(want[k], want[j]) for k, j in copies.items())
            kept = [p for k, p in enumerate(want) if k not in copies]
            assert len(got) == len(kept) and all(map(same, got, kept))
        # no two places in the batch hold the same portfolio in every trial
        for a, b in itertools.combinations(range(sent), 2):
            assert not all(same(batch[a], batch[b]) for batch in trial_batches)

    def test_large_batch_memory_is_bounded_by_the_cell_budget(self):
        rng = np.random.default_rng(11)
        portfolios = [random_portfolio(rng, 3) for _ in range(2000)]
        spec = JointRiskSpec(survival_copula(gumbel(1.5, 3)), (cvar_ramp(0.9),) * 3)
        tracemalloc.start()
        try:
            gamma_survival_forms(portfolios, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one unchunked batch of these 2000 grids (8^3 padded cells each) peaks at ~37 MB
        assert peak < 6 * 2**20

    def test_univariate_reduction_matches_direct_choquet_sum(self):
        # d = 1 with the identity copula: measure equals the distorted tail integral
        rng = np.random.default_rng(9)
        g = cvar_ramp(0.8)
        spec = JointRiskSpec(independence(1), (g,))
        for _ in range(10):
            s = random_portfolio(rng, 1, max_m=12)
            values = np.unique(s.losses[:, 0])
            edges = np.concatenate(([0.0], values))
            direct = 0.0
            for lo, hi in zip(edges[:-1], edges[1:]):
                tail = float(s.weights[s.losses[:, 0] > lo].sum())
                direct += g(tail) * (hi - lo)
            assert gamma_survival_form(s, spec) == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("kinds", ["identity", ["var", "bogus"], "power:2", ["var", "var", "cvar"]])
    def test_factory_rejects_non_tail_kinds(self, kinds):
        # these used to build cvar ramps for every kind that was not "var"
        with pytest.raises(ParameterError):
            varcvar_spec_factory(BAND, kinds, grid_n=20)(clayton(2.0))

    @pytest.mark.parametrize("trials", [0, -3])
    def test_no_trials_is_a_parameter_error(self, trials):
        # a suite that checks nothing must not report all_passed
        factory = varcvar_spec_factory(BAND, "var", grid_n=40)
        with pytest.raises(ParameterError):
            axiom_suite(factory, [clayton(2.0)], trials=trials)

    def test_deterministic_given_seed(self):
        factory = varcvar_spec_factory(BAND, "var", grid_n=40)
        r1 = axiom_suite(factory, [clayton(2.0)], trials=10, seed=5)
        r2 = axiom_suite(factory, [clayton(2.0)], trials=10, seed=5)
        assert r1.as_dict() == r2.as_dict()


@pytest.mark.parametrize("axiom", ["A0", "a1", ""])
def test_axiom_report_check_of_an_unknown_axiom_is_a_key_error(axiom):
    report = scalar_risk.AxiomReport(seed=0, trials=1, checks=(scalar_risk.AxiomCheck("A1", "monotonicity", True, 0.0),))
    assert report.check("A1").passed
    with pytest.raises(KeyError) as info:
        report.check(axiom)
    assert info.value.args == (axiom,)
