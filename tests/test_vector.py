import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointrisk import (
    ConfidenceBand,
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
    pi_comonotone_split,
    power,
    random_portfolio,
    scenario_set,
    survival_copula,
    var,
    var_step,
)
from jointrisk.distortion import build_distortions
from jointrisk.portfolio import marginal_cells

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
        s = decile_pair()
        spec = JointRiskSpec(survival_copula(gumbel(2.0)), (var_step(0.85), var_step(0.85)))
        res = h_vector(s, spec)
        assert res.components == (9.0, 9.0)
        assert res.components[0] == var(s, 0, 0.85)

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
        s = scenario_set(np.column_stack([m, m]))
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
def vector_case(draw):
    """A portfolio with ties and zero losses, d = 1-4 and m = 1-40, optionally with unequal weights."""
    d, m = draw(st.integers(1, 4)), draw(st.integers(1, 40))
    loss = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.25]), st.floats(0.0, 100.0))
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
    @given(vector_case(), st.data())
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
        rng = np.random.default_rng(8)
        spec = self.spec_for(gumbel(2.0), 2)
        for _ in range(20):
            s = random_portfolio(rng, 2)
            shift = rng.choice([0.25, 1.0, 2.5], size=2)
            moved = s.with_losses(s.losses + shift[None, :])
            got = np.array(h_vector(moved, spec).components)
            want = np.array(h_vector(s, spec).components) + shift
            np.testing.assert_allclose(got, want, rtol=1e-9)

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
            y, z = pi_comonotone_split(s, clamps=clamps)
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
