import functools
import itertools
import json
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
    gamma_signed_2d,
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
from jointrisk import copula, scalar_risk
from jointrisk.copula import Copula, SurvivalCopula
from jointrisk.portfolio import marginal_cells, marginal_steps
from jointrisk.scalar_risk import _contract
from reference import clamp_split, level_runs, rise_and_fall

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
        # by the dyadic forms only: the survival form takes either sign
        s = scenario_set([[-1.0, 2.0]])
        spec = identity_spec(independence(2))
        for dyadic in (gamma_dyadic, dyadic_bounds):
            with pytest.raises(DataError, match="nonnegative"):
                dyadic(s, spec, 4)
        assert gamma_survival_form(s, spec) == -2.0

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


def _survival_form_per_axis(s, spec, merge=True):
    """The survival form unbatched: marginal_cells and a distortion call per axis, one cdf_grid.

    With ``merge``, each axis' runs of one distorted level are one grid
    entry with the run's summed widths; without it, every cell is its own
    entry (the sum the runs reassociate).
    """
    levels, widths = [], []
    for i in range(s.dim):
        _, sv, w = marginal_cells(s, i)
        if len(w) == 0:
            return 0.0
        g = np.asarray(spec.distortions[i](sv), dtype=float)
        if merge:
            starts, w = level_runs(g, w)
            g = g[starts]
        levels.append(g)
        widths.append(w)
    return _grid_contract(spec.cstar.cdf_grid(levels), widths)


def _factors(cop):
    """Whether ``contract`` sums the coupling per mixture component, with no grid."""
    return copula._mixture(cop) is not None


def _near_grid(got, want, scale):
    """A factored value against a grid reference, within 1e-13 of ``scale``.

    ``scale`` is the sum of the terms' magnitudes at C = 1 (the product of
    each axis' summed |weights|).  A survival grid's inclusion-exclusion
    leaves residues of a few eps in every cell, so the grid is the less
    accurate of the two; ``test_oracle.py`` judges the factored values
    against exact sums.
    """
    return abs(got - want) <= 1e-13 * scale


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
        per_cell = _survival_form_per_axis(s, spec, merge=False)
        assert abs(value - per_cell) <= 1e-13 * abs(per_cell)
    # the default budget, one portfolio per chunk, and a few per chunk
    for budget in (copula._CHUNK, 1, 40):
        with mock.patch.object(copula, "_CHUNK", budget):
            batched = gamma_survival_forms(portfolios, spec)
            assert batched == [gamma_survival_form(s, spec) for s in portfolios]
        if _factors(spec.cstar):
            scales = [np.prod(s.losses.max(axis=0)) for s in portfolios]
            assert all(_near_grid(a, b, c) for a, b, c in zip(batched, singles, scales))
        else:
            assert batched == singles


@st.composite
def runs_case(draw):
    """1-4 portfolios of dimension 1-4 and a spec whose distortions make runs of equal levels.

    Losses come from small pools, so columns tie; a column may be all zero
    or start at zero.  The coupling is any family (Frank with theta < 0 and
    countermonotone at d = 2 only), bare or survival-wrapped once or twice.
    The distortions are the built-in kinds at a few levels and
    :func:`~reference.rise_and_fall`.
    """
    d = draw(st.integers(1, 4))
    pool = draw(st.sampled_from(([0.0, 1.0, 2.5], [0.5, 1.0, 1.5, 2.0, 3.0, 4.25], [0.125, 0.25, 0.5, 7.0])))
    portfolios = []
    for _ in range(draw(st.integers(1, 4))):
        m = draw(st.integers(1, {1: 12, 2: 8, 3: 5, 4: 4}[d]))
        losses = np.array(draw(st.lists(st.sampled_from(pool), min_size=m * d, max_size=m * d))).reshape(m, d)
        col, shape = draw(st.integers(0, d - 1)), draw(st.integers(0, 3))
        if shape == 0:
            losses[:, col] = 0.0  # no cell: gamma 0
        elif shape == 1:
            losses[draw(st.integers(0, m - 1)), col] = 0.0  # cells start one step in
        weights = None if draw(st.booleans()) else np.array(draw(st.lists(st.integers(1, 4), min_size=m, max_size=m)), float)
        portfolios.append(scenario_set(losses, weights))
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
        thetas = {"clayton": (0.5, 3.0), "gumbel": (1.0, 2.5), "frank": (-3.0, 0.5, 3.0) if d == 2 else (0.5, 3.0)}
        cop = {"clayton": clayton, "gumbel": gumbel, "frank": frank}[choice](draw(st.sampled_from(thetas[choice])), d)
    for _ in range(draw(st.integers(0, 2))):
        cop = survival_copula(cop)
    kinds = (identity(), var_step(0.5), var_step(0.9), cvar_ramp(0.6), cvar_ramp(0.95), power(2.0), power(0.5), rise_and_fall)
    return portfolios, JointRiskSpec(cop, tuple(draw(st.sampled_from(kinds)) for _ in range(d)))


@settings(max_examples=300, deadline=None)
@given(case=runs_case())
# axis 0's levels 0.1, 0.4, 0.7, 0.9, 1, 1, 0.9, 0.8, 0.6, 0.3: the two 1s
# merge, the two 0.9s are runs of their own; axis 1 merges its two 1s
@example(case=(
    [scenario_set(np.column_stack([np.arange(1.0, 11.0), np.tile([1.0, 2.0], 5)]))],
    JointRiskSpec(survival_copula(clayton(3.0)), (rise_and_fall, cvar_ramp(0.6))),
))
def test_survival_kernel_equals_the_full_cell_sum(case):
    # merging a run of equal levels reassociates the cell sum; nothing else
    # moves.  A factored coupling makes no grid, and is judged against the
    # grid's own rounding (an empty joint tail is exactly 0 there, where a
    # survival grid leaves a residue)
    portfolios, spec = case
    want = [_survival_form_per_axis(s, spec, merge=False) for s in portfolios]
    for budget in (copula._CHUNK, 1):
        with mock.patch.object(copula, "_CHUNK", budget):
            got = gamma_survival_forms(portfolios, spec)
        for s, a, b in zip(portfolios, got, want):
            if _factors(spec.cstar):
                assert _near_grid(a, b, np.prod(s.losses.max(axis=0)))
            else:
                assert abs(a - b) <= 1e-13 * abs(b)


@st.composite
def signed_runs_case(draw):
    """A :func:`runs_case` batch in which some portfolios are moved below 0.

    Each portfolio stays as drawn or, with probability 1/2, has each column
    lowered by 0, 1, 2.5 or 8: a column can then stay nonnegative, cross 0
    with or without a value at 0, end at 0 or lie wholly below it.
    """
    portfolios, spec = draw(runs_case())
    moved = []
    for s in portfolios:
        if draw(st.booleans()):
            s = s.with_losses(s.losses - np.array([draw(st.sampled_from((0.0, 1.0, 2.5, 8.0))) for _ in range(s.dim)]))
        moved.append(s)
    return moved, spec


@settings(max_examples=300, deadline=None)
@given(case=signed_runs_case())
# axis 0 ends at 0 and var(0.9) puts both its cells at level 1: their widths
# -2 and 2 cancel, so the value is 0.0 on the grid and factored alike (the
# batched grid drops the row, gamma_forms contracts a zero weight against
# axis 1's weighted levels, which sum to -1)
@example(case=(
    [scenario_set([[-2.0, -3.0], [0.0, 1.0]]), scenario_set([[1.0, -1.0], [2.5, 3.0]])],
    JointRiskSpec(survival_copula(clayton(3.0)), (var_step(0.9), identity())),
))
@example(case=(
    [scenario_set([[-2.0, 1.0], [0.0, 2.0]]), scenario_set([[-3.0, -1.0], [-0.5, -3.0]])],
    JointRiskSpec(survival_copula(comonotone(2)), (var_step(0.9), rise_and_fall)),
))
def test_batched_signed_forms_equal_the_single_evaluators_bit_for_bit(case):
    # one evaluator for one or many portfolios of either sign: a batch row,
    # the survival half of gamma_forms and gamma_signed_2d are one float,
    # sign of zero included
    portfolios, spec = case
    singles = [gamma_forms(s, spec)[0].hex() for s in portfolios]
    assert singles == [gamma_signed_2d(s, spec).hex() for s in portfolios]
    for budget in (copula._CHUNK, 1):
        with mock.patch.object(copula, "_CHUNK", budget):
            assert [x.hex() for x in gamma_survival_forms(portfolios, spec)] == singles


def _spied_grids(monkeypatch):
    """Record the shape of every batch of grids asked of a copula."""
    shapes = []
    for cls in (Copula, SurvivalCopula):
        def spy(self, axes, _grids=cls.cdf_grids):
            out = _grids(self, axes)
            shapes.append(out.shape)
            return out

        monkeypatch.setattr(cls, "cdf_grids", spy)
    return shapes


@pytest.mark.parametrize("d", [2, 3])
def test_var_axiom_suite_grids_hold_at_most_two_levels_per_axis(monkeypatch, d):
    # a var step takes the levels 0 and 1 only, and they are in order: at most two runs per axis
    shapes = _spied_grids(monkeypatch)
    copulas = [clayton(2.0, d), independence(d), empirical_copula(scenario_set(_dependent_losses(d, 40, d)))]
    axiom_suite(varcvar_spec_factory(BAND, "var"), copulas, trials=12, seed=3)
    assert shapes and all(max(shape[1:]) <= 2 for shape in shapes)


def test_identity_grids_are_the_cell_counts(monkeypatch):
    # identity levels are the survival values, distinct on every cell: no run merges
    rng = np.random.default_rng(11)
    portfolios = [random_portfolio(rng, 3, max_m=8) for _ in range(6)]
    shapes = _spied_grids(monkeypatch)
    with mock.patch.object(copula, "_CHUNK", 1):
        gamma_survival_forms(portfolios, identity_spec(survival_copula(clayton(2.0, 3))))
    counts = [tuple(len(marginal_cells(s, i)[2]) for i in range(3)) for s in portfolios]
    assert sorted(shapes) == sorted((1, *c) for c in counts)


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
    # a factored coupling's ls form is its atom-measure sum, with no grid
    s, spec = case
    if _factors(spec.cstar):
        assert _near_grid(gamma_ls_form(s, spec), _ls_form_per_mask(s, spec), _coordinate_scale(s))
    else:
        assert gamma_ls_form(s, spec) == _ls_form_per_mask(s, spec)


def _coordinate_scale(s):
    """The ls form's terms at C = 1: the product of each column's summed distinct |values|."""
    return np.prod([np.abs(marginal_steps(s, i)[0]).sum() for i in range(s.dim)])


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
    # an empirical coupling sums per scenario, with no grid
    assert calls == ([] if choice == "empirical" else [d])


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("choice", ["clayton", "empirical"])
def test_forms_call_each_distortion_once(d, choice):
    # both forms read one level vector per axis
    calls = [0] * d

    def counted(i, g):
        def call(u):
            calls[i] += 1
            return g(u)

        return call

    s = scenario_set(_dependent_losses(4, 30, d))
    cop = clayton(2.0, d) if choice == "clayton" else empirical_copula(s)
    spec = JointRiskSpec(survival_copula(cop), tuple(counted(i, cvar_ramp(0.8)) for i in range(d)))
    gamma_forms(s, spec)
    assert calls == [1] * d


ZERO_COLUMN_FAMILIES = {
    "independence": independence(2),
    "comonotone": comonotone(2),
    "clayton": clayton(2.0),
    "gumbel": gumbel(1.5),
    "frank": frank(3.0),
    "countermonotone": countermonotone_2d(),
    "empirical": empirical_copula(scenario_set([[1.0, 2.0], [2.0, 1.0], [3.0, 3.0]])),
}


@pytest.mark.parametrize(
    "losses, g",
    [([[-0.0, 1.0], [0.0, 2.0]], identity()), ([[0.0, -1.0], [0.0, 2.0]], power(2.0))],
    ids=["negative-zero", "signed"],
)
@pytest.mark.parametrize("wraps", [0, 1, 2])
@pytest.mark.parametrize("family", ZERO_COLUMN_FAMILIES)
def test_an_all_zero_column_gives_positive_zeros_with_no_evaluation(monkeypatch, losses, g, wraps, family):
    # the first column has no cell: both forms are +0.0, with no grid or contraction
    calls = []
    for cls in (Copula, SurvivalCopula):
        for name in ("cdf_grid", "contract"):
            def spied(self, *args, _name=name, _method=getattr(cls, name)):
                calls.append(_name)
                return _method(self, *args)

            monkeypatch.setattr(cls, name, spied)
    cop = ZERO_COLUMN_FAMILIES[family]
    for _ in range(wraps):
        cop = survival_copula(cop)
    got = gamma_forms(scenario_set(losses), JointRiskSpec(cop, (g, g)))
    assert got == (0.0, 0.0) and not np.signbit(got).any()
    assert calls == []


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
    survival, ls = gamma_forms(s, spec)
    assert survival == gamma_survival_form(s, spec)
    if _factors(spec.cstar):
        assert _near_grid(ls, _ls_form_per_mask(s, spec), _coordinate_scale(s))
    else:
        assert ls == _ls_form_per_mask(s, spec)


def _wide_portfolio(seed, signed):
    """400 scenarios of two columns with 341 distinct cent values each: grids of 341 x 341 runs under power distortions."""
    rng = np.random.default_rng(seed)
    lo, hi = (-3000, 7000) if signed else (1, 10001)
    columns = []
    for _ in range(2):
        values = rng.choice(np.arange(lo, hi), size=341, replace=False) / 100.0
        columns.append(rng.permutation(np.concatenate((values, rng.choice(values, 400 - 341)))))
    return scenario_set(np.column_stack(columns))


@pytest.mark.parametrize(
    "measure, signed, spec, bound",
    [
        # a survival grid of 341 x 341 runs (0.94 MB): the base grid held it
        # and a zero-filled total beside it, 1.98 MB in all
        (gamma_signed_2d, True, JointRiskSpec(survival_copula(frank(-3.0)), (power(0.5), power(0.5))), 1.3e6),
        # 2 x 2 runs repeated to a 341 x 341 step grid, whose four ls-form
        # terms were each copied to contiguous memory: 1.90 MB
        (gamma_forms, False, varcvar_spec_factory(BAND, "var")(clayton(2.0)), 1.1e6),
    ],
    ids=["signed-frank", "forms-clayton-var"],
)
def test_a_d2_parametric_measure_holds_one_grid(measure, signed, spec, bound):
    s = _wide_portfolio(7, signed)
    measure(s, spec)
    tracemalloc.start()
    try:
        measure(s, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


@pytest.mark.parametrize("coupling", [survival_copula(clayton(2.0)), independence(2)], ids=["survival-clayton", "independence"])
def test_a_ragged_batch_peaks_no_higher_than_with_one_lexsort(coupling):
    # 402 columns, two of 2 000 values and 400 of three: the padded sort
    # table is as large as the prefix-sum and cell tables after it
    rng = np.random.default_rng(17)
    batch = [scenario_set(rng.gamma(2.0, 1.5, size=(2000, 2)))]
    batch += [scenario_set(rng.integers(0, 5, size=(3, 2)).astype(float)) for _ in range(200)]
    spec = JointRiskSpec(coupling, (cvar_ramp(0.9), cvar_ramp(0.9)))
    gamma_survival_forms(batch, spec)
    tracemalloc.start()
    try:
        gamma_survival_forms(batch, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 5% above the 33.60 MB both peaked at with one lexsort of all columns
    assert peak < 35.3e6


class TestBatchedSurvivalForm:
    def test_empty_batch(self):
        assert gamma_survival_forms([], JointRiskSpec(independence(2), (identity(), identity()))) == []

    def test_every_portfolio_is_validated(self):
        spec = JointRiskSpec(independence(2), (identity(), identity()))
        good = scenario_set([[1.0, 2.0]])
        with pytest.raises(DimensionError):
            gamma_survival_forms([good, scenario_set([[1.0, 2.0, 3.0]])], spec)
        with pytest.raises(DimensionError):
            gamma_survival_forms([scenario_set([[1.0, 2.0, 3.0]]), good], spec)

    def test_negative_loss_in_the_last_portfolio_leaves_the_others_unchanged(self):
        spec = identity_spec(clayton(2.0))
        batch = [indep_two_by_two() for _ in range(4)]
        batch.append(batch[0].with_losses([[1.0, 1.0], [1.0, 3.0], [3.0, 1.0], [3.0, -0.5]]))
        got = gamma_survival_forms(batch, spec)
        assert got == [gamma_survival_form(s, spec) for s in batch]
        assert got[:4] == gamma_survival_forms(batch[:4], spec)

    @pytest.mark.parametrize("position", [0, 2])
    def test_nan_loss_is_a_data_error(self, position):
        # a non-finite loss cannot enter a scenario set, so no batch holds one
        batch = [indep_two_by_two() for _ in range(3)]
        losses = batch[position].losses.copy()
        losses[1, 1] = np.nan
        with pytest.raises(DataError, match="finite"):
            batch[position].with_losses(losses)

    def test_dimension_mismatch_is_raised_before_any_steps(self, monkeypatch):
        built = []

        def counted(*args, _steps=scalar_risk.steps):
            built.append(len(args[1]))
            return _steps(*args)

        monkeypatch.setattr(scalar_risk, "steps", counted)
        spec = identity_spec(independence(2))
        # a signed set ahead of the mismatched one: dimensions are checked first
        batch = [scenario_set([[1.0, -2.0]]), indep_two_by_two(), scenario_set([[1.0, 2.0, 3.0]])]
        with pytest.raises(DimensionError):
            gamma_survival_forms(batch, spec)
        assert built == []
        # one portfolio reads its cached steps; two are stacked, 2 columns each
        gamma_survival_forms(batch[:2], spec)
        assert built == [4]

    @pytest.mark.parametrize("cstar", [independence(2), survival_copula(clayton(2.0))], ids=["independence", "clayton"])
    def test_each_distortion_is_called_once_on_its_axis_cells_unpadded(self, cstar):
        # a ragged batch, m = 1, 5 and 9, one portfolio with an all-zero column
        rng = np.random.default_rng(5)
        batch = [
            scenario_set([[2.0, 0.5]]),
            scenario_set(np.round(rng.uniform(-1.0, 4.0, size=(5, 2)), 1)),
            scenario_set(np.column_stack([rng.integers(1, 6, size=9), np.zeros(9)])),
        ]
        calls = []

        def spy(g, axis):
            def distort(u):
                calls.append((axis, np.shape(u)))
                return g(u)

            return distort

        spec = JointRiskSpec(cstar, (spy(cvar_ramp(0.6), 0), spy(power(0.5), 1)))
        cells = [sum(len(marginal_cells(s, i)[2]) for s in batch) for i in range(2)]
        singles = []
        for s in batch:
            calls.clear()
            singles.append(gamma_survival_form(s, spec))
            assert calls == [(i, (len(marginal_cells(s, i)[2]),)) for i in range(2)]
        assert singles[2] == 0.0
        calls.clear()
        assert gamma_survival_forms(batch, spec) == singles
        assert calls == [(0, (cells[0],)), (1, (cells[1],))]


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

    # from 1015 on, n * 2^n is no float: a raw OverflowError or an overflow warning
    @pytest.mark.parametrize("n", [0, -1, 2.5, 4.0, np.float64(4.0), True, 1015, np.int64(1015), 10**9])
    @pytest.mark.parametrize("measure", [gamma_dyadic, dyadic_bounds])
    def test_resolution_must_be_a_positive_integer(self, measure, n):
        # checked before the truncation level: 2.5 covers these losses
        s = scenario_set([[1.0, 2.0], [2.0, 0.5]])
        with pytest.raises(DomainError, match="positive integer"):
            measure(s, identity_spec(independence(2)), n)

    @pytest.mark.parametrize("measure", [gamma_dyadic, dyadic_bounds])
    def test_finest_resolution_1014_is_exact(self, measure):
        s = scenario_set([[1.0, 2.0], [2.0, 0.5]])
        spec = identity_spec(independence(2))
        assert np.all(np.asarray(measure(s, spec, 1014)) == gamma_survival_form(s, spec))

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
    the generator calls of the suite's drawer are replayed in its order and
    shapes, then each trial builds its transforms in place, one column and
    one loop at a time, through ``with_losses``, the clamp split and a mask
    generator; each trial's whole batch, copies included, is one
    ``gamma_survival_forms`` call.
    """
    dim = copulas[0].dim
    rng = np.random.default_rng(seed)
    # one call per quantity for every trial: sizes, numerators (the first m
    # of each column's shuffle), scale, bump, squeezed column and cell, clamp
    # indices and the relabeling keys
    ms = rng.integers(2, 9, size=trials)
    numerators = rng.permuted(np.broadcast_to(np.arange(1, 64), (trials, dim, 63)), axis=-1)
    scale_at = rng.integers(0, 7, size=(trials, dim))
    bump_at = rng.integers(0, 4, size=(trials, dim, ms.max()))
    squeezed_col = rng.integers(0, dim, size=trials)
    cells = rng.integers(1, np.maximum(ms - 1, 2))
    clamp_at = rng.integers(0, ms[:, None], size=(trials, dim))
    keys = rng.random((trials, ms.max()))
    specs = [spec_factory(c) for c in copulas]
    worst = {a: (0.0, None) for a in scalar_risk.AXIOM_DESCRIPTIONS}

    def note(axiom, violation, witness):
        if violation > worst[axiom][0]:
            worst[axiom] = (violation, witness)

    def mixed(y, z):
        for mask in itertools.product((False, True), repeat=dim):
            yield sum(mask), y.with_losses(np.where(mask, y.losses, z.losses))

    def rank_preserving_increase(s, uniques, bumps):
        cols = []
        for col, values, bump in zip(s.losses.T, uniques, bumps):
            newv = values + np.array([0.0, 0.25, 0.5, 1.0])[bump[: len(values)]]
            for j in range(1, len(newv)):
                if newv[j] <= newv[j - 1]:
                    newv[j] = newv[j - 1] + 0.0625
            cols.append(newv[np.searchsorted(values, col)])
        return s.with_losses(np.column_stack(cols))

    def single_cell_squeeze(s, uniques, i, j):
        values = uniques[i]
        if len(values) < 3:
            return s.with_losses(s.losses + 0.25)
        newv = values.copy()
        newv[j] = values[j] + (values[j + 1] - values[j]) * 0.9375
        losses = s.losses.copy()
        losses[:, i] = newv[np.searchsorted(values, losses[:, i])]
        return s.with_losses(losses)

    floor = scalar_risk.ABS_FLOOR
    for t in range(trials):
        s = scenario_set(numerators[t, :, : ms[t]].T / 16)
        c_vec = np.array([0.25, 0.5, 0.75, 1.25, 1.5, 2.0, 3.0])[scale_at[t]]
        uniques = [np.unique(col) for col in s.losses.T]
        bigger = rank_preserving_increase(s, uniques, bump_at[t])
        squeezed = single_cell_squeeze(s, uniques, squeezed_col[t], cells[t])
        clamps = [float(v[k]) for v, k in zip(uniques, clamp_at[t])]
        y, z = clamp_split(s, clamps)
        perm = np.argsort(keys[t, : s.m], kind="stable")
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


def _less_the_copies(losses, weights, lengths, d):
    """One reference trial's kernel input without the three portfolios that copy another."""
    copies = [4, 3 + 2**d, 2 ** (d + 1) + 7]
    ends = np.cumsum(lengths)
    rows = np.concatenate([np.arange(e - n, e) for k, (e, n) in enumerate(zip(ends, lengths)) if k not in copies])
    return losses[rows], weights[rows], np.delete(lengths, copies)


def _skewed(kernel):
    """``kernel`` plus a per-portfolio term, which fails A1, A3, A4 and A6 (and so gives them witnesses)."""

    def skewed(losses, weights, lengths, spec):
        largest = np.maximum.reduceat(losses.max(axis=1), np.cumsum(lengths) - lengths)
        return kernel(losses, weights, lengths, spec) + lengths - largest**2

    return skewed


class TestAxiomSuite:
    @pytest.mark.parametrize("budget", [copula._CHUNK, 1])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_flat_batches_equal_the_scenario_set_construction_bit_for_bit(self, d, budget):
        rng = np.random.default_rng(d)
        copulas = [independence(d), empirical_copula(scenario_set(np.round(rng.gamma(2.0, 1.5, size=(30, d)), 1)))]
        if d > 1:
            copulas += [clayton(2.0, d), gumbel(1.5, d)]
        cases = [(_low_level_factory, copulas, 9), (varcvar_spec_factory(BAND, "cvar", grid_n=20), copulas, 5)]
        if d == 2:
            cases.append((_broken_factory, [independence(2)], 40))
        with mock.patch.object(copula, "_CHUNK", budget):
            for factory, cops, trials in cases:
                for seed in (1, 8):
                    want = _scenario_set_axiom_suite(factory, cops, trials, seed)
                    assert axiom_suite(factory, cops, trials=trials, seed=seed).as_dict() == want
            # a per-portfolio term in every value fails A1, A3, A4 and A6 too,
            # so that their witnesses are compared as well
            with mock.patch.object(scalar_risk, "_survival_forms", _skewed(scalar_risk._survival_forms)):
                want = _scenario_set_axiom_suite(_low_level_factory, copulas, 9, 1)
                assert {c["axiom"] for c in want["checks"] if c["witness"]} >= {"A1", "A3", "A4", "A6"}
                assert axiom_suite(_low_level_factory, copulas, trials=9, seed=1).as_dict() == want

    @settings(max_examples=15, deadline=None)
    @given(
        d=st.integers(1, 4),
        trials=st.integers(1, 60),
        seed=st.integers(0, 2**32 - 1),
        picks=st.lists(st.integers(0, 3), min_size=1, max_size=3),
    )
    # seven trials of sizes 5, 2, 6, 8, 3, 7 and 4: every m from 2 to 8
    @example(d=3, trials=7, seed=150, picks=[0, 1])
    # three trials of size 2: no interior value to squeeze, nothing padded
    @example(d=2, trials=3, seed=34, picks=[3])
    def test_padded_pass_equals_the_scenario_set_construction_at_every_size(self, d, trials, seed, picks):
        rng = np.random.default_rng(d)
        pool = [independence(d), empirical_copula(scenario_set(np.round(rng.gamma(2.0, 1.5, size=(30, d)), 1)))]
        pool += [clayton(2.0, d), gumbel(1.5, d)] if d > 1 else [comonotone(1), independence(1)]
        copulas = [pool[k] for k in picks]
        calls, kernel = [], scalar_risk._survival_forms

        def spy(losses, weights, lengths, spec):
            calls.append((losses, weights, lengths))
            return kernel(losses, weights, lengths, spec)

        with mock.patch.object(scalar_risk, "_survival_forms", spy):
            got = axiom_suite(_low_level_factory, copulas, trials=trials, seed=seed).as_dict()
            suite = calls[:]
            want = _scenario_set_axiom_suite(_low_level_factory, copulas, trials, seed)
        assert got == want
        # the kernel sees the reference's rows, weights and lengths in trial
        # order, less each trial's three copied portfolios
        reference = calls[len(suite) :]
        assert len(suite) == min(trials, len(copulas)) and len(reference) == trials
        for ci, batch in enumerate(suite):
            parts = zip(*(_less_the_copies(*reference[t], d) for t in range(ci, trials, len(copulas))))
            assert all(np.array_equal(got, np.concatenate(part)) for got, part in zip(batch, parts))
        # the skewed kernel fails A1, A3, A4 and A6 as well, so their witnesses are compared too
        with mock.patch.object(scalar_risk, "_survival_forms", _skewed(scalar_risk._survival_forms)):
            want = _scenario_set_axiom_suite(_low_level_factory, copulas, trials, seed)
            assert axiom_suite(_low_level_factory, copulas, trials=trials, seed=seed).as_dict() == want

    @pytest.mark.parametrize("d, trials, seed", [(1, 9, 4), (3, 7, 215), (2, 2, 5), (4, 5, 871), (3, 7, 150)])
    def test_each_spec_sends_its_trials_in_one_call_in_trial_order(self, d, trials, seed):
        calls, kernel = [], scalar_risk._survival_forms
        ms = scalar_risk._draw_trials(np.random.default_rng(seed), trials, d)[0].tolist()

        def spy(losses, weights, lengths, spec):
            calls.append((losses.shape, weights.copy(), lengths.copy(), spec))
            return kernel(losses, weights, lengths, spec)

        copulas = [independence(d), comonotone(d), independence(d)]
        specs = []

        def factory(c):
            specs.append(_low_level_factory(c))
            return specs[-1]

        with mock.patch.object(scalar_risk, "_survival_forms", spy):
            axiom_suite(factory, copulas, trials=trials, seed=seed)
        if (d, trials, seed) == (3, 7, 150):
            assert sorted(ms) == list(range(2, 9))
        # one call per spec that has a trial, in spec order
        assert len(calls) == min(trials, len(copulas)) and [c[3] for c in calls] == specs[:trials]
        for ci, (shape, weights, lengths, _) in enumerate(calls):
            # per trial: m rows for each of 2^(d+1) + 5 portfolios, then the
            # relabeled set's m + 1, in trial order
            own = ms[ci :: len(copulas)]
            assert lengths.tolist() == [n + (k == 2 ** (d + 1) + 5) for n in own for k in range(2 ** (d + 1) + 6)]
            assert shape == (lengths.sum(), d)
            # weights 1/m, but 1/(2m) on the relabeled set's first and last rows
            want = np.concatenate([np.r_[np.full((2 ** (d + 1) + 5) * n, 1 / n), 0.5 / n, np.full(n - 1, 1 / n), 0.5 / n] for n in own])
            assert np.array_equal(weights, want)

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(1, 4), trials=st.integers(1, 60), seed=st.integers(0, 2**32 - 1))
    def test_drawn_trials_keep_each_per_trial_law_and_pad_past_m(self, d, trials, seed):
        drawn = scalar_risk._draw_trials(np.random.default_rng(seed), trials, d)
        m, cols, scales, bumps, col, cell, clamp_at, perm = drawn
        top = int(m.max())
        assert cols.shape == bumps.shape == (trials, d, top) and perm.shape == (trials, top)
        assert scales.shape == clamp_at.shape == (trials, d) and m.shape == col.shape == cell.shape == (trials,)
        assert ((2 <= m) & (m <= 8)).all() and ((0 <= col) & (col < d)).all()
        assert ((0 <= scales) & (scales < 7)).all() and ((0 <= bumps) & (bumps <= 3)).all()
        for t, n in enumerate(m.tolist()):
            # m distinct sixteenths in (0, 63/16] per column, then +inf
            numerators = cols[t, :, :n] * 16
            assert np.array_equal(numerators, np.round(numerators)) and ((1 <= numerators) & (numerators <= 63)).all()
            assert all(len(set(column)) == n for column in numerators.tolist())
            assert (cols[t, :, n:] == np.inf).all() and (bumps[t, :, n:] == 0).all()
            assert 1 <= cell[t] <= n - 2 if n > 2 else cell[t] == 0
            assert ((0 <= clamp_at[t]) & (clamp_at[t] < n)).all()
            assert sorted(perm[t, :n].tolist()) == list(range(n)) and perm[t, n:].tolist() == list(range(n, top))
        again = scalar_risk._draw_trials(np.random.default_rng(seed), trials, d)
        assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(drawn, again))

    def test_the_suite_makes_as_many_generator_calls_for_one_trial_as_for_five_hundred(self):
        counts, make = [], np.random.default_rng

        class Counting:
            def __init__(self, seed):
                self.rng = make(seed)

            def __getattr__(self, name):
                method = getattr(self.rng, name)

                def counted(*args, **kwargs):
                    counts[-1] += 1
                    return method(*args, **kwargs)

                return counted

        for trials in (1, 500):
            counts.append(0)
            with mock.patch.object(scalar_risk.np.random, "default_rng", Counting):
                axiom_suite(_low_level_factory, [independence(2), clayton(2.0)], trials=trials, seed=3)
        assert counts[0] == counts[1] > 0

    @pytest.mark.parametrize("seed", [-1, 1.5, 2.0, "3", True, False, np.True_])
    def test_negative_or_non_integer_seed_is_a_parameter_error(self, seed):
        with pytest.raises(ParameterError, match="seed"):
            axiom_suite(_low_level_factory, [independence(2)], trials=2, seed=seed)

    @pytest.mark.parametrize("trials", [0, 2.0, 1.5, True, False, np.True_])
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

    @pytest.mark.parametrize("max_m", [-3, 0, 1, 64, 100, True, False, 2.5, "2"])
    def test_random_portfolio_size_bound_outside_its_range_is_a_parameter_error(self, max_m):
        rng = np.random.default_rng(0)
        with pytest.raises(ParameterError, match="max_m"):
            random_portfolio(rng, 2, max_m=max_m)
        # raised before any draw: the generator's stream is untouched
        assert rng.integers(0, 2**62) == np.random.default_rng(0).integers(0, 2**62)

    @pytest.mark.parametrize("dim", [0, -1, True, False, 2.5, "2"])
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

    @pytest.mark.parametrize("kind", [np.int64, np.uint8, np.int32])
    def test_numpy_integer_seed_and_trials_give_a_json_ready_report(self, kind):
        report = axiom_suite(_broken_factory, [independence(2)], trials=kind(40), seed=kind(1))
        assert type(report.seed) is int and type(report.trials) is int
        text = json.dumps(report.as_dict())
        assert json.loads(text) == axiom_suite(_broken_factory, [independence(2)], trials=40, seed=1).as_dict()

    def test_report_dicts_are_fresh_containers(self):
        report = axiom_suite(_broken_factory, [independence(2)], trials=40, seed=1)
        first = report.as_dict()
        first["checks"][1]["witness"]["gamma_low"] = None
        first["checks"][0]["axiom"] = None
        assert report.as_dict() == axiom_suite(_broken_factory, [independence(2)], trials=40, seed=1).as_dict()
        assert report.check("A2").witness["gamma_low"] is not None

    def test_memory_of_a_thousand_three_column_trials(self):
        factory = varcvar_spec_factory(BAND, "cvar")
        copulas = [clayton(2.0, 3), independence(3)]
        axiom_suite(factory, copulas, trials=5, seed=1)
        tracemalloc.start()
        try:
            axiom_suite(factory, copulas, trials=1000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # about 17 MB: the kernel's cell table and run tables of one spec's
        # 500 trials (22 portfolios each), beside both specs' loss batches
        assert peak < 20 * 2**20

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
        with mock.patch.object(copula, "_CHUNK", 1):
            assert axiom_suite(factory, copulas, trials=12, seed=3).as_dict() == report

    def test_broken_distortion_witness_does_not_depend_on_the_cell_budget(self):
        report = axiom_suite(_broken_factory, [independence(2)], trials=40, seed=1).as_dict()
        assert report["checks"][1]["witness"] is not None
        with mock.patch.object(copula, "_CHUNK", 1):
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
