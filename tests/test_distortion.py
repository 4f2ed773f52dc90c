import numpy as np
import pytest

from jointrisk import (
    ConfidenceBand,
    DomainError,
    ParameterError,
    alpha_c,
    blend_diagnostics,
    clayton,
    comonotone,
    countermonotone_2d,
    cvar_ramp,
    distortion_eval,
    frank,
    gumbel,
    identity,
    independence,
    power,
    var_step,
)
from jointrisk.distortion import build_distortions

ALL_KINDS = [identity(), var_step(0.95), cvar_ramp(0.95), power(2.0), power(0.5)]


class TestEval:
    def test_step_below_threshold(self):
        assert distortion_eval(var_step(0.95), 0.04) == 0.0

    def test_step_above_threshold(self):
        assert distortion_eval(var_step(0.95), 0.06) == 1.0

    def test_ramp_midpoint(self):
        assert distortion_eval(cvar_ramp(0.95), 0.025) == pytest.approx(0.5)

    def test_identity(self):
        assert distortion_eval(identity(), 0.7) == 0.7

    def test_domain_error(self):
        with pytest.raises(DomainError):
            distortion_eval(identity(), 1.5)

    @pytest.mark.parametrize("g", ALL_KINDS)
    def test_nan_is_a_domain_error(self, g):
        for u in (float("nan"), [0.5, float("nan")]):
            with pytest.raises(DomainError):
                g(u)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            var_step(0.0)
        with pytest.raises(ParameterError):
            cvar_ramp(1.0)
        with pytest.raises(ParameterError):
            power(-1.0)
        for k in (float("nan"), float("inf")):
            with pytest.raises(ParameterError, match="power distortion needs a finite k > 0"):
                power(k)

    @pytest.mark.parametrize("g", ALL_KINDS)
    def test_endpoints_and_monotone(self, g):
        assert g(0.0) == 0.0
        assert g(1.0) == 1.0
        u = np.linspace(0, 1, 101)
        assert np.all(np.diff(g(u)) >= -1e-15)


class TestAlphaC:
    BAND = ConfidenceBand(0.90, 0.99)

    def test_band_validation(self):
        with pytest.raises(ParameterError):
            ConfidenceBand(0.99, 0.90)
        with pytest.raises(ParameterError):
            ConfidenceBand(0.0, 0.5)

    def test_comonotone_takes_high_level(self):
        assert alpha_c(comonotone(2), self.BAND) == 0.99

    def test_countermonotone_takes_low_level(self):
        assert alpha_c(countermonotone_2d(), self.BAND) == pytest.approx(0.90)

    def test_independence_is_midpoint(self):
        # theta = 0.25/0.5 computed on the default grid (oracle: coarse grid search)
        got = alpha_c(independence(2), self.BAND, 200)
        assert got == pytest.approx(0.945, abs=1e-12)

    def test_dimension_one_uses_high_level(self):
        assert alpha_c(independence(1), self.BAND) == 0.99

    @pytest.mark.parametrize(
        "cop",
        [independence(2), comonotone(2), countermonotone_2d(), clayton(2.0), gumbel(2.0), frank(5.0)],
    )
    def test_degenerate_band_collapses(self, cop):
        assert alpha_c(cop, ConfidenceBand(0.8, 0.8), 40) == pytest.approx(0.8)

    def test_monotone_in_distance_from_upper_bound(self):
        cops = [comonotone(2), gumbel(4.0), clayton(2.0), frank(1.0), independence(2), countermonotone_2d()]
        diags = [blend_diagnostics(c, self.BAND, 100) for c in cops]
        order = np.argsort([d["d_uc"] for d in diags])
        levels = np.array([diags[i]["alpha_c"] for i in order])
        assert np.all(np.diff(levels) <= 1e-12)

    def test_theta_between_zero_and_one(self):
        for cop in (clayton(0.5), gumbel(1.5), frank(-3.0)):
            d = blend_diagnostics(cop, self.BAND, 80)
            assert 0.0 <= d["theta_c"] <= 1.0
            assert self.BAND.alpha1 <= d["alpha_c"] <= self.BAND.alpha2


class TestBuildDistortions:
    def test_one_kind_for_every_component(self):
        assert build_distortions("cvar", 0.9, 3) == (cvar_ramp(0.9),) * 3
        assert build_distortions(["var"], 0.9, 2) == (var_step(0.9),) * 2

    def test_one_kind_per_component(self):
        got = build_distortions(["var", "identity", "power:2"], 0.95, 3)
        assert got == (var_step(0.95), identity(), power(2.0))

    @pytest.mark.parametrize(
        "kinds, level, tail_only",
        [
            (["var", "cvar", "var"], 0.9, False),  # neither 1 nor d kinds
            ("var", None, False),  # no level
            ("power:x", 0.9, False),
            ("power:-1", 0.9, False),
            ("bogus", 0.9, False),
            ("identity", 0.9, True),
            (["var", "power:2"], 0.9, True),
        ],
    )
    def test_bad_kinds_are_parameter_errors(self, kinds, level, tail_only):
        with pytest.raises(ParameterError):
            build_distortions(kinds, level, 2, tail_only)


@pytest.mark.parametrize(
    "g, label",
    [
        (identity(), "identity"),
        (var_step(0.95), "var(0.95)"),
        (cvar_ramp(0.9), "cvar(0.9)"),
        (power(2.0), "power(2)"),
        (power(0.5), "power(0.5)"),
    ],
)
def test_label_names_the_kind_and_its_parameter(g, label):
    assert g.label() == label
