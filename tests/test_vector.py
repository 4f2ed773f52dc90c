import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jointrisk import (
    ConfidenceBand,
    DataError,
    DegenerateTailError,
    DimensionError,
    JointRiskSpec,
    DomainError,
    ParameterError,
    blend_diagnostics,
    clayton,
    comonotone,
    countermonotone_2d,
    cvar,
    cvar_ramp,
    empirical_copula,
    frank,
    gamma_survival_form,
    gumbel,
    h_vector,
    identity,
    independence,
    mixture_var_cvar,
    mtce,
    mtdrm,
    power,
    random_portfolio,
    scenario_set,
    survival_copula,
    var,
    var_step,
)
from jointrisk.distortion import build_distortions
from jointrisk.portfolio import _var_at, marginal_cells
from jointrisk.scalar_risk import _BUMPS, _rank_preserving_increase
from reference import clamp_split

BAND = ConfidenceBand(0.90, 0.99)


def decile_pair():
    col = np.arange(1.0, 11.0)
    return scenario_set(np.column_stack([col, col]))


class TestHVector:
    def test_constant_portfolio(self):
        s = scenario_set([[2.0, 5.0]])
        spec = JointRiskSpec(survival_copula(clayton(2.0)), (cvar_ramp(0.9), var_step(0.9)))
        assert h_vector(s, spec).components == pytest.approx((2.0, 5.0))

    def test_identity_gives_means(self):
        rng = np.random.default_rng(1)
        s = random_portfolio(rng, 3, max_m=12)
        spec = JointRiskSpec(independence(3), (identity(),) * 3)
        means = s.weights @ s.losses
        assert h_vector(s, spec).components == pytest.approx(tuple(means), rel=1e-12)

    def test_var_step_matches_quantile(self):
        spec = JointRiskSpec(survival_copula(gumbel(2.0)), (var_step(0.85), var_step(0.85)))
        s = decile_pair()
        assert h_vector(s, spec).components == (9.0, 9.0)
        # losses of either sign, some weights unequal: the quantile bit for bit
        shifted = s.with_losses(s.losses - 5.5)
        mixed = scenario_set([[-2.25, 1.5], [-0.5, -3.0], [0.75, 0.0], [3.0, -0.0]], [1.0, 3.0, 1.0, 2.0])
        assert h_vector(shifted, spec).components == (3.5, 3.5)
        for x in (s, shifted, mixed):
            assert h_vector(x, spec).components == (var(x, 0, 0.85), var(x, 1, 0.85))

    def test_matches_embedded_scalar_portfolio(self):
        rng = np.random.default_rng(2)
        for cop in (independence(2), clayton(2.0), frank(5.0)):
            spec = JointRiskSpec(survival_copula(cop), (cvar_ramp(0.9), var_step(0.8)))
            s = random_portfolio(rng, 2, max_m=10)
            hv = h_vector(s, spec)
            for i in range(2):
                embedded = s.losses.copy()
                embedded[:, 1 - i] = 1.0
                g = gamma_survival_form(scenario_set(embedded), spec)
                assert hv.components[i] == pytest.approx(g, rel=1e-9)


class TestMixture:
    def test_comonotone_uses_high_level(self):
        m = np.arange(1.0, 101.0)
        s = scenario_set(np.column_stack([m, m]))
        res = mixture_var_cvar(s, comonotone(2), BAND, "var")
        assert res.components == (99.0, 99.0)
        assert res.diagnostics["alpha_c"] == 0.99
        assert res.diagnostics["theta_c"] == 0.0

    def test_countermonotone_uses_low_level(self):
        m = np.arange(1.0, 101.0)
        s = scenario_set(np.column_stack([m, m]))
        res = mixture_var_cvar(s, countermonotone_2d(), BAND, "var")
        assert res.components == (90.0, 90.0)
        assert res.diagnostics["theta_c"] == pytest.approx(1.0)

    def test_independence_cvar_matches_direct_cvar(self):
        m = np.arange(1.0, 1001.0) / 10.0
        # nonnegative, and shifted to either sign
        for s in (scenario_set(np.column_stack([m, m])), scenario_set(np.column_stack([m - 99.0, 50.0 - m]))):
            res = mixture_var_cvar(s, independence(2), BAND, "cvar", grid_n=200)
            level = res.diagnostics["alpha_c"]
            assert level == pytest.approx(0.945, abs=1e-12)
            for i in range(2):
                assert res.components[i] == pytest.approx(cvar(s, i, level), rel=1e-9)

    def test_band_collapse_reproduces_plain_var_cvar(self):
        rng = np.random.default_rng(3)
        s = random_portfolio(rng, 2, max_m=15)
        for cop in (independence(2), clayton(2.0), countermonotone_2d()):
            res = mixture_var_cvar(s, cop, ConfidenceBand(0.8, 0.8), ["var", "cvar"], grid_n=40)
            assert res.components[0] == pytest.approx(var(s, 0, 0.8), rel=1e-12)
            assert res.components[1] == pytest.approx(cvar(s, 1, 0.8), rel=1e-9)

    def test_a_given_blend_replaces_the_frechet_grid(self, monkeypatch):
        from jointrisk import vector_risk

        s = decile_pair()
        blend = blend_diagnostics(clayton(2.0), BAND, 30)
        alone = mixture_var_cvar(s, clayton(2.0), BAND, "cvar", 30)

        def refused(*args):
            raise AssertionError("blend_diagnostics evaluated again")

        monkeypatch.setattr(vector_risk, "blend_diagnostics", refused)
        handed = mixture_var_cvar(s, clayton(2.0), BAND, "cvar", 30, blend)
        assert handed.as_dict() == alone.as_dict()

    @pytest.mark.parametrize("kinds", ["identity", ["var", "power:2"], ["var"] * 3])
    def test_other_kinds_are_parameter_errors(self, kinds):
        with pytest.raises(ParameterError):
            mixture_var_cvar(decile_pair(), independence(2), BAND, kinds, grid_n=20)

    def test_mixed_kinds_per_component(self):
        s = decile_pair()
        res = mixture_var_cvar(s, comonotone(2), ConfidenceBand(0.8, 0.8), ["var", "cvar"])
        assert res.components == (var(s, 0, 0.8), pytest.approx(cvar(s, 1, 0.8)))


class TestMtce:
    def test_independence_two_point(self):
        s = scenario_set([[1.0, 1.0], [3.0, 3.0]])
        assert mtce(s, independence(2), 0.5).components == pytest.approx((3.0, 3.0))

    def test_comonotone_gives_tail_mean_of_common_marginal(self):
        s = decile_pair()
        for q in (0.3, 0.5, 0.8):
            res = mtce(s, comonotone(2), q)
            for i in range(2):
                assert res.components[i] == pytest.approx(cvar(s, i, q), rel=1e-9)

    def test_unconditional_limit(self):
        rng = np.random.default_rng(4)
        s = random_portfolio(rng, 2, max_m=10)
        means = s.weights @ s.losses
        res = mtce(s, independence(2), 1e-6)
        for i in range(2):
            assert res.components[i] == pytest.approx(means[i], rel=1e-6)

    def test_independence_matches_conditional_tail_mean(self):
        rng = np.random.default_rng(5)
        vals = np.column_stack([rng.choice(np.arange(1, 200), 20, replace=False),
                                rng.choice(np.arange(1, 200), 20, replace=False)]).astype(float)
        s = scenario_set(vals)
        for q in (0.5, 0.9):
            res = mtce(s, independence(2), q)
            for i in range(2):
                v = var(s, i, q)
                tail = s.losses[:, i] > v
                direct = float(s.losses[tail, i].mean())
                assert res.components[i] == pytest.approx(direct, rel=1e-9)

    def test_degenerate_tail_raises(self):
        s = scenario_set([[1.0, 1.0], [3.0, 3.0]])
        with pytest.raises(DegenerateTailError):
            mtce(s, countermonotone_2d(), 0.6)

    def test_inclusion_exclusion_residue_is_a_degenerate_tail(self):
        # no scenario has every rank above q = 0.95, but the 16-term survival
        # sum of the empirical copula leaves p = 1.1e-16, which used to be
        # divided through and returned (13.2, 0, 0, 0)
        rng = np.random.default_rng(0)
        s = scenario_set(np.round(rng.gamma(2, 1.5, (200, 4)), 1), rng.uniform(1, 3, 200))
        e = empirical_copula(s)
        assert not np.any(np.all(e.ranks > 0.95, axis=1))
        with pytest.raises(DegenerateTailError):
            mtce(s, e, 0.95)

    @pytest.mark.parametrize("seed", range(12))
    def test_constant_component_is_exact_under_empirical_copula(self, seed):
        # A constant column has survival 1 >= alpha below its value, so every
        # capped cell is the normaliser itself and must divide to exactly 1.
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 5))
        losses = np.round(rng.gamma(2.0, 1.5, (40, d)), 1)
        losses[:, 0] = 2.5
        s = scenario_set(losses, rng.uniform(1.0, 3.0, 40))
        assert mtce(s, empirical_copula(s), 0.3).components[0] == 2.5


class TestMtdrm:
    def test_whole_space_identity_gives_means(self):
        rng = np.random.default_rng(6)
        s = random_portfolio(rng, 2, max_m=12)
        res = mtdrm(s, (identity(), identity()))
        assert res.components == pytest.approx(tuple(s.weights @ s.losses), rel=1e-12)

    def test_whole_space_var_step_matches_quantile(self):
        s = decile_pair()
        res = mtdrm(s, (var_step(0.85), var_step(0.85)))
        assert res.components == (var(s, 0, 0.85), var(s, 1, 0.85))

    def test_joint_exceedance_comonotone_pairs(self):
        s = scenario_set([[1.0, 1.0], [3.0, 3.0]])
        res = mtdrm(s, (identity(), identity()), 0.5)
        assert res.components == pytest.approx((3.0, 3.0))
        assert res.diagnostics["tail_probability"] == 0.5

    def test_empty_tail_raises(self):
        s = scenario_set([[1.0, 3.0], [3.0, 1.0]])  # countermonotone data
        with pytest.raises(DegenerateTailError):
            mtdrm(s, (identity(), identity()), 0.5)

    def test_quantile_ties_fall_outside_tail(self):
        s = scenario_set([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0]])
        res = mtdrm(s, (identity(), identity()), 0.5)
        # VaR_.5 = 2, strict exceedance keeps {3, 4}
        assert res.components == pytest.approx((3.5, 3.5))

    @pytest.mark.parametrize(
        "q, diagnostics",
        [
            (None, {"region": "whole_space", "tail_probability": 1.0}),
            (0.5, {"region": "joint_exceedance", "tail_probability": 0.5, "q": 0.5}),
        ],
    )
    def test_q_selects_the_region(self, q, diagnostics):
        s = scenario_set([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0]])
        assert mtdrm(s, (identity(), identity()), q).diagnostics == diagnostics


def _reference_integral(s, i, transform):
    """The step integral of one marginal, from a cell pass over that column alone."""
    _, sv, widths = marginal_cells(s, i)
    if len(widths) == 0:
        return 0.0
    return float(np.asarray(transform(sv), dtype=float) @ widths)


def _reference_mtdrm(s, distortions, q):
    """mtdrm with the conditioned survival as an (n, m) indicator matrix times the tail weights."""
    if q is None:
        in_tail = np.ones(s.m, dtype=bool)
    else:
        quantiles = np.array([var(s, i, q) for i in range(s.dim)])
        in_tail = np.all(s.losses > quantiles[None, :], axis=1)
    p_tail = float(s.weights[in_tail].sum())
    if p_tail <= 0.0:
        return None
    tail_w = np.where(in_tail, s.weights, 0.0)
    comps = []
    for i, g in enumerate(distortions):
        left, _, widths = marginal_cells(s, i)
        if len(widths) == 0:
            comps.append(0.0)
            continue
        joint = (s.losses[None, :, i] > left[:, None]) @ tail_w
        comps.append(float(np.asarray(g(joint), dtype=float) @ widths) / p_tail)
    return comps


# levels that no sum of at most 200 scenario weights k / W can land on
DISTORTIONS = (identity(), var_step(0.6180339887), cvar_ramp(0.8137), power(2.0), power(0.5))


@st.composite
def vector_case(draw, signed=False):
    """A portfolio with ties and zero losses, d = 1-4 and m = 1-40, optionally with unequal weights.

    With ``signed`` the losses have either sign, and -0.0 ties with 0.0.
    """
    d, m = draw(st.integers(1, 4)), draw(st.integers(1, 40))
    pool = [0.0, 0.5, 1.0, 2.0, 3.25] + ([-0.0, -1.0, -3.25] if signed else [])
    loss = st.one_of(st.sampled_from(pool), st.floats(-100.0 if signed else 0.0, 100.0))
    losses = np.array(draw(st.lists(loss, min_size=m * d, max_size=m * d))).reshape(m, d)
    weights = draw(st.one_of(st.none(), st.lists(st.integers(1, 5), min_size=m, max_size=m)))
    return scenario_set(losses, weights)


class TestOneCellPass:
    @settings(max_examples=300, deadline=None)
    @given(vector_case(), st.data())
    def test_mtdrm_matches_the_indicator_matrix_form(self, s, data):
        gs = tuple(data.draw(st.sampled_from(DISTORTIONS)) for _ in range(s.dim))
        q = data.draw(st.one_of(st.none(), st.sampled_from([0.2, 0.5, 0.7181])))
        want = _reference_mtdrm(s, gs, q)
        if want is None:
            with pytest.raises(DegenerateTailError):
                mtdrm(s, gs, q)
            return
        got = mtdrm(s, gs, q).components
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    @settings(max_examples=200, deadline=None)
    @given(st.booleans().flatmap(lambda signed: vector_case(signed)), st.data())
    def test_vector_measures_equal_a_cell_pass_per_column(self, s, data):
        # the cells of every marginal come from one pass; each component is
        # the same float as a pass over its column alone
        d = s.dim
        gs = tuple(data.draw(st.sampled_from(DISTORTIONS)) for _ in range(d))
        got = h_vector(s, JointRiskSpec(survival_copula(independence(d)), gs)).components
        assert got == tuple(_reference_integral(s, i, gs[i]) for i in range(d))

        kinds = data.draw(st.sampled_from(["var", "cvar"]))
        res = mixture_var_cvar(s, clayton(2.0, d), BAND, kinds, grid_n=10)
        tail_gs = build_distortions(kinds, res.diagnostics["alpha_c"], d, tail_only=True)
        assert res.components == tuple(_reference_integral(s, i, tail_gs[i]) for i in range(d))

        cop = data.draw(st.sampled_from([independence(d), comonotone(d)]))
        res = mtce(s, cop, 0.4)
        chat, p = survival_copula(cop), res.diagnostics["tail_copula_mass"]

        def transform(i):
            def capped(sv):
                axes = [np.array([0.6])] * d
                axes[i] = np.minimum(sv, 0.6)
                return chat.cdf_grid(axes).ravel() / p

            return capped

        assert res.components == tuple(_reference_integral(s, i, transform(i)) for i in range(d))

    @settings(max_examples=300, deadline=None)
    @given(vector_case(signed=True), st.data())
    def test_h_vector_components_are_the_one_column_scalar_measure(self, s, data):
        # on losses of either sign each component is the Choquet integral of
        # its column: the scalar measure of that column alone
        gs = tuple(data.draw(st.sampled_from(DISTORTIONS)) for _ in range(s.dim))
        got = h_vector(s, JointRiskSpec(survival_copula(independence(s.dim)), gs)).components
        for i, g in enumerate(gs):
            column = scenario_set(s.losses[:, [i]], s.weights)
            want = gamma_survival_form(column, JointRiskSpec(independence(1), (g,)))
            assert abs(got[i] - want) <= 1e-14 * np.abs(column.losses).max()

    def test_joint_exceedance_at_100k_scenarios_peaks_under_16_megabytes(self):
        # an indicator matrix of cells by scenarios would hold 10^10 entries
        m = 100_000
        rng = np.random.default_rng(0)
        s = scenario_set(np.column_stack([rng.permutation(m) + 1.0, 0.5 * rng.permutation(m) + 1.0]))
        tracemalloc.start()
        try:
            res = mtdrm(s, (power(2.0), power(2.0)), 0.8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6
        assert 0.0 < res.diagnostics["tail_probability"] < 0.2


_PAIR = scenario_set([[1.0, 2.0], [3.0, 4.0]])


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(
            lambda: h_vector(_PAIR, JointRiskSpec(independence(3), (identity(),) * 3)),
            DimensionError, "portfolio dimension 2 != spec dimension 3", id="h_vector-dim",
        ),
        pytest.param(
            lambda: mixture_var_cvar(_PAIR, independence(3), BAND),
            DimensionError, "copula dimension 3 != portfolio dimension 2", id="mixture-dim",
        ),
        *(
            pytest.param(
                lambda q=q: mtce(_PAIR, independence(2), q),
                DomainError, f"q must lie in (0, 1), got {q}", id=f"mtce-q={q}",
            )
            for q in (0.0, 1.0, -0.5, float("nan"))
        ),
        *(
            pytest.param(
                lambda q=q: mtdrm(_PAIR, (identity(), identity()), q),
                DomainError, f"q must lie in (0, 1), got {q}", id=f"mtdrm-q={q}",
            )
            for q in (0.0, 1.0, 1.5, float("nan"))
        ),
        # a column below 0 starts with the level-1 cell, which mtdrm's
        # conditioned survival does not read yet
        *(
            pytest.param(
                lambda q=q: mtdrm(scenario_set([[-1.0, 2.0], [3.0, 4.0]]), (identity(), identity()), q),
                DataError, "mtdrm requires nonnegative losses", id=f"mtdrm-negative-q={q}",
            )
            for q in (None, 0.5)
        ),
    ],
)
def test_validation_raises_its_typed_error(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


class TestVectorTheorems:
    def spec_for(self, cop, dim):
        return JointRiskSpec(survival_copula(cop), tuple(cvar_ramp(0.9) for _ in range(dim)))

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(7)
        spec = self.spec_for(clayton(2.0), 2)
        for _ in range(20):
            s = random_portfolio(rng, 2)
            c = float(rng.choice([0.5, 2.0, 3.0]))
            scaled = s.with_losses(c * s.losses)
            got = np.array(h_vector(scaled, spec).components)
            want = c * np.array(h_vector(s, spec).components)
            np.testing.assert_allclose(got, want, rtol=1e-9)

    def test_translation_invariance(self):
        # dyadic shifts, exact on the sixteenths; -2.5 and -10 push columns below 0
        rng = np.random.default_rng(8)
        spec = self.spec_for(gumbel(2.0), 2)
        measures = (
            lambda s: h_vector(s, spec),
            lambda s: mixture_var_cvar(s, gumbel(2.0), BAND, "var", grid_n=20),
            lambda s: mixture_var_cvar(s, gumbel(2.0), BAND, "cvar", grid_n=20),
            lambda s: mtce(s, gumbel(2.0), 0.5),
        )
        for _ in range(20):
            s = random_portfolio(rng, 2)
            shift = rng.choice([0.25, 1.0, 2.5, -2.5, -10.0], size=2)
            moved = s.with_losses(s.losses + shift[None, :])
            scale = max(np.abs(s.losses).max(), np.abs(moved.losses).max())
            for measure in measures:
                got = np.array(measure(moved).components)
                want = np.array(measure(s).components) + shift
                np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * scale)

    def test_componentwise_monotonicity(self):
        rng = np.random.default_rng(9)
        spec = self.spec_for(frank(5.0), 2)
        for _ in range(20):
            s = random_portfolio(rng, 2)
            from jointrisk.scalar_risk import _BUMPS, _rank_preserving_increase

            cols = []
            for col in s.losses.T:
                values = np.unique(col)
                newv = _rank_preserving_increase(values, rng.choice(_BUMPS, size=len(values)))
                cols.append(newv[np.searchsorted(values, col)])
            bigger = s.with_losses(np.column_stack(cols))
            low = np.array(h_vector(s, spec).components)
            high = np.array(h_vector(bigger, spec).components)
            assert np.all(high >= low - 1e-9)

    def test_split_additivity(self):
        rng = np.random.default_rng(10)
        spec = self.spec_for(independence(2), 2)
        for _ in range(20):
            s = random_portfolio(rng, 2)
            clamps = np.median(s.losses, axis=0)
            y, z = clamp_split(s, clamps)
            total = np.array(h_vector(y, spec).components) + np.array(h_vector(z, spec).components)
            np.testing.assert_allclose(
                np.array(h_vector(s, spec).components), total, rtol=1e-9, atol=1e-12
            )

    def test_dimension_checks(self):
        s = scenario_set([[1.0, 2.0]])
        with pytest.raises(DimensionError):
            mtce(s, independence(3), 0.5)
        with pytest.raises(DimensionError):
            mtdrm(s, (identity(),))


# ---------------------------------------------------------------------------
# executable properties of the vector-valued measures (ROADMAP item 12)

# measure name -> components of a portfolio, for the properties below
_VECTOR_MEASURES = {
    "h_vector": lambda s: h_vector(
        s, JointRiskSpec(survival_copula(clayton(2.0, s.dim)), (cvar_ramp(0.8137), var_step(0.6180339887), power(2.0))[: s.dim])
    ).components,
    "mixture_var_cvar": lambda s: mixture_var_cvar(s, gumbel(1.5, s.dim), BAND, ["var", "cvar", "var"][: s.dim], grid_n=10).components,
    "mtce": lambda s: mtce(s, clayton(2.0, s.dim), 0.6).components,
    "mtdrm": lambda s: mtdrm(s, (power(2.0), cvar_ramp(0.8137), identity())[: s.dim], 0.5).components,
}


def _components_or_error(measure, s):
    try:
        return _VECTOR_MEASURES[measure](s)
    except DegenerateTailError:
        return DegenerateTailError


def _joint_exceedance(s, q):
    """The scenarios strictly above every marginal's q-quantile; every scenario when q is None."""
    if q is None:
        return np.ones(s.m, dtype=bool)
    quantiles = np.array([var(s, i, q) for i in range(s.dim)])
    return np.all(s.losses > quantiles, axis=1)


@st.composite
def dyadic_portfolio(draw):
    """A ``random_portfolio`` (tie-free sixteenths, d = 1-3, m = 2-8), some with unequal integer weights."""
    s = random_portfolio(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), draw(st.integers(1, 3)))
    weights = draw(st.one_of(st.none(), st.lists(st.integers(1, 4), min_size=s.m, max_size=s.m)))
    return s if weights is None else scenario_set(s.losses, weights)


@st.composite
def tied_portfolio(draw):
    """A nonnegative portfolio (d = 1-3, m = 1-8) with losses from a small pool, so columns tie; some weights differ."""
    d, m = draw(st.integers(1, 3)), draw(st.integers(1, 8))
    pool = draw(st.sampled_from(([0.0, 0.5, 1.25, 2.0], [0.1, 0.3, 0.7, 1.3, 2.9], [1.0, 1.5, 4.0])))
    losses = np.array(draw(st.lists(st.sampled_from(pool), min_size=m * d, max_size=m * d))).reshape(m, d)
    weights = draw(st.one_of(st.none(), st.lists(st.integers(1, 4), min_size=m, max_size=m)))
    return scenario_set(losses, weights)


class TestVectorProperties:
    @settings(max_examples=200, deadline=None)
    @given(
        s=tied_portfolio(),
        kind=st.sampled_from(["var", "cvar", "power"]),
        level=st.sampled_from([0.25, 0.3, 0.5, 0.6180339887, 0.75, 0.8137, 0.9]),
    )
    def test_whole_space_mtdrm_is_the_componentwise_distortion_measure(self, s, kind, level):
        # var_step and cvar_ramp give each marginal's VaR and CVaR; a power
        # distortion gives h_vector's integral of g(S_i), whatever the copula
        if kind == "power":
            g = power(4.0 * level)
            want = h_vector(s, JointRiskSpec(independence(s.dim), (g,) * s.dim)).components
        else:
            g = (var_step if kind == "var" else cvar_ramp)(level)
            want = tuple((var if kind == "var" else cvar)(s, i, level) for i in range(s.dim))
        assert mtdrm(s, (g,) * s.dim).components == pytest.approx(want, rel=1e-12, abs=1e-15)

    @settings(max_examples=150, deadline=None)
    @given(s=dyadic_portfolio(), measure=st.sampled_from(sorted(_VECTOR_MEASURES)), data=st.data())
    def test_scaling_a_column_scales_its_component_only(self, s, measure, data):
        # the tail regions of mtce and mtdrm are defined by ranks, so they do not move
        i = data.draw(st.integers(0, s.dim - 1))
        c = data.draw(st.sampled_from([0.25, 0.5, 0.75, 1.5, 2.0, 3.0]))
        losses = s.losses.copy()
        losses[:, i] *= c
        before = _components_or_error(measure, s)
        after = _components_or_error(measure, scenario_set(losses, s.weights))
        if before is DegenerateTailError:
            assert after is DegenerateTailError
            return
        for j, (a, b) in enumerate(zip(before, after)):
            assert b == (pytest.approx(c * a, rel=1e-12) if j == i else a)

    @settings(max_examples=150, deadline=None)
    @given(s=dyadic_portfolio(), measure=st.sampled_from(sorted(_VECTOR_MEASURES)), data=st.data())
    def test_a_scenario_permutation_changes_no_component(self, s, measure, data):
        perm = np.array(data.draw(st.permutations(range(s.m))))
        permuted = scenario_set(s.losses[perm], s.weights[perm])
        assert _components_or_error(measure, permuted) == _components_or_error(measure, s)

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 6: mtdrm distorts the joint tail weight, not the conditioned survival",
    )
    @settings(max_examples=100, deadline=None)
    @given(
        s=dyadic_portfolio(),
        g=st.sampled_from([var_step(0.5), var_step(0.85), cvar_ramp(0.5), cvar_ramp(0.8137)]),
        q=st.sampled_from([None, 0.3, 0.5]),
    )
    # 18.0 (var) and 16.0 (cvar) today, above the largest loss 10
    @example(s=decile_pair(), g=var_step(0.85), q=0.5)
    @example(s=decile_pair(), g=cvar_ramp(0.5), q=0.5)
    def test_mtdrm_lies_within_its_marginal_range_over_the_tail(self, s, g, q):
        in_tail = _joint_exceedance(s, q)
        if not in_tail.any():
            return
        comps = mtdrm(s, (g,) * s.dim, q).components
        tail = s.losses[in_tail]
        for i, x in enumerate(comps):
            scale = 1e-12 * tail[:, i].max()
            assert tail[:, i].min() - scale <= x <= tail[:, i].max() + scale

    @settings(max_examples=150, deadline=None)
    @given(
        s=dyadic_portfolio(),
        copula=st.sampled_from([clayton, gumbel, frank, independence, comonotone]),
        q=st.sampled_from([0.3, 0.5, 0.6, 0.8137]),
    )
    def test_mtce_lies_between_the_marginal_quantile_and_maximum(self, s, copula, q):
        c = copula(s.dim) if copula in (independence, comonotone) else copula(2.0, s.dim)
        try:
            comps = mtce(s, c, q).components
        except DegenerateTailError:
            return
        for (values, tail), x in zip(s.steps.columns(), comps):
            scale = 1e-12 * values[-1]
            assert _var_at(values, tail, q) - scale <= x <= values[-1] + scale

    @settings(max_examples=150, deadline=None)
    @given(s=dyadic_portfolio(), measure=st.sampled_from(["h_vector", "mtce"]), data=st.data())
    def test_a_rank_preserving_increase_lowers_no_component(self, s, measure, data):
        # each column gets its own increase; the declared copula and the
        # distortions do not move, so every component is nondecreasing
        bumps = np.array(data.draw(st.lists(st.sampled_from(list(_BUMPS)), min_size=s.m * s.dim, max_size=s.m * s.dim)))
        losses = s.losses.copy()
        for i, row in enumerate(bumps.reshape(s.dim, s.m)):
            order = np.argsort(losses[:, i])
            losses[order, i] = _rank_preserving_increase(losses[order, i], row)
        assert np.all(losses >= s.losses)
        before = _components_or_error(measure, s)
        after = _components_or_error(measure, scenario_set(losses, s.weights))
        if before is DegenerateTailError:
            assert after is DegenerateTailError
            return
        for a, b in zip(before, after):
            assert b >= a - 1e-12 * abs(a)

    @settings(max_examples=150, deadline=None)
    @given(s=dyadic_portfolio(), measure=st.sampled_from(sorted(_VECTOR_MEASURES)), data=st.data())
    def test_a_weight_preserving_relabeling_changes_no_component(self, s, measure, data):
        # axiom A6's relabeling: permute the scenarios, then split the first
        # one into two halves, one first and one last
        perm = np.array(data.draw(st.permutations(range(s.m))))
        losses, w = s.losses[perm], s.weights[perm]
        relabeled = scenario_set(np.vstack([losses, losses[:1]]), np.concatenate([[w[0] / 2], w[1:], [w[0] / 2]]))
        before = _components_or_error(measure, s)
        after = _components_or_error(measure, relabeled)
        if before is DegenerateTailError:
            assert after is DegenerateTailError
            return
        assert after == pytest.approx(before, rel=1e-12, abs=1e-15)

    @settings(max_examples=150, deadline=None)
    @given(s=dyadic_portfolio(), q=st.sampled_from([None, 0.3, 0.5, 0.8137]))
    @example(s=decile_pair(), q=0.5)
    def test_mtdrm_identity_is_the_conditional_tail_mean(self, s, q):
        in_tail = _joint_exceedance(s, q)
        if not in_tail.any():
            with pytest.raises(DegenerateTailError):
                mtdrm(s, (identity(),) * s.dim, q)
            return
        w = s.weights[in_tail]
        want = w @ s.losses[in_tail] / w.sum()
        assert mtdrm(s, (identity(),) * s.dim, q).components == pytest.approx(tuple(want), rel=1e-12)

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 6: mtdrm distorts the joint tail weight, not the conditioned survival",
    )
    @settings(max_examples=100, deadline=None)
    @given(
        s=dyadic_portfolio(),
        alpha=st.sampled_from([0.3, 0.6180339887, 0.8137]),
        q=st.sampled_from([0.3, 0.5]),
    )
    # 18.0 (var) and 19.33 (cvar) today; the tail {6, ..., 10} has 0.85-quantile
    # 10 and tail mean above it 10
    @example(s=decile_pair(), alpha=0.85, q=0.5)
    def test_mtdrm_var_step_and_cvar_ramp_reduce_to_the_conditioned_measures(self, s, alpha, q):
        in_tail = _joint_exceedance(s, q)
        if not in_tail.any():
            return
        tail = scenario_set(s.losses[in_tail], s.weights[in_tail])
        for g, reference in ((var_step(alpha), var), (cvar_ramp(alpha), cvar)):
            comps = mtdrm(s, (g,) * s.dim, q).components
            assert comps == pytest.approx(tuple(reference(tail, i, alpha) for i in range(s.dim)), rel=1e-12)
