import functools
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jointrisk import (
    ConfidenceBand,
    DataError,
    DimensionError,
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
    gamma_ls_form,
    gamma_survival_form,
    gamma_survival_forms,
    gumbel,
    identity,
    independence,
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
def test_batched_survival_forms_equal_single_ones_bit_for_bit(case):
    portfolios, spec = case
    batched = gamma_survival_forms(portfolios, spec)
    assert batched == [gamma_survival_form(s, spec) for s in portfolios]
    assert batched == [_survival_form_per_axis(s, spec) for s in portfolios]
    for s, value in zip(portfolios, batched):
        if not np.all(s.losses.max(axis=0) > 0.0):
            assert value == 0.0


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

        def counted(*args, _cell_table=scalar_risk.cell_table):
            built.append(len(args[0]))
            return _cell_table(*args)

        monkeypatch.setattr(scalar_risk, "cell_table", counted)
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


class TestAxiomSuite:
    def test_example_family_passes(self):
        factory = varcvar_spec_factory(BAND, "cvar", grid_n=60)
        report = axiom_suite(factory, COPULA_ZOO, trials=30, seed=2024)
        assert report.all_passed, [c.as_dict() for c in report.checks if not c.passed]
        assert report.seed == 2024

    def test_broken_distortion_fails_monotonicity(self):
        def broken(u):
            u = np.asarray(u, dtype=float)
            out = np.where(u < 0.5, u, 0.1)
            out = np.where(u == 1.0, 1.0, out)
            return out

        def factory(cop):
            return JointRiskSpec(survival_copula(cop), (broken, broken))

        report = axiom_suite(factory, [independence(2)], trials=40, seed=1)
        a2 = report.check("A2")
        assert not a2.passed
        assert a2.witness is not None
        assert a2.worst_violation > 1e-9

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
