import dataclasses
import functools
import itertools
import os
import subprocess
import sys
import tracemalloc
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import jointrisk
from jointrisk import (
    DataError,
    DimensionError,
    DomainError,
    FitError,
    JointRiskSpec,
    ParameterError,
    clayton,
    comonotone,
    countermonotone_2d,
    cvar_ramp,
    empirical_copula,
    fit_archimedean,
    frank,
    frechet_distances,
    gamma_survival_form,
    gof_distance,
    gumbel,
    identity,
    independence,
    kendall_tau,
    power,
    scenario_set,
    survival_copula,
    var_step,
)
from jointrisk import copula, portfolio
from jointrisk.copula import Copula, SurvivalCopula, _frank_tau, default_grid_n
from jointrisk.portfolio import marginal_cells
from reference import box_increment, frechet_lower, frechet_upper, two_row_chunk


def unit_grid(dim: int, grid_n: int) -> np.ndarray:
    """The closed uniform grid {k/grid_n : k = 0..grid_n}^dim, shape ((n+1)^d, d)."""
    axis = np.linspace(0.0, 1.0, grid_n + 1)
    mesh = np.meshgrid(*([axis] * dim), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def family_zoo(dim=2):
    zoo = [independence(dim), comonotone(dim), clayton(2.0, dim), gumbel(2.0, dim), frank(5.0, dim)]
    if dim == 2:
        zoo.append(countermonotone_2d())
    return zoo


def _tied_empirical(dim):
    # rounded losses give rank ties; unequal weights give uneven rank steps
    rng = np.random.default_rng(40 + dim)
    losses = np.round(rng.uniform(0, 4, size=(25, dim)), 0)
    return empirical_copula(scenario_set(losses, rng.integers(1, 4, size=25).astype(float)))


class TestEval:
    def test_independence_product(self):
        assert independence(2).cdf([0.5, 0.5]) == 0.25

    @pytest.mark.parametrize("cop", family_zoo(2) + family_zoo(3))
    def test_uniform_margins(self, cop):
        for i in range(cop.dim):
            u = np.ones(cop.dim)
            u[i] = 0.7
            assert cop.cdf(u) == pytest.approx(0.7, abs=1e-12)

    def test_clayton_high_precision_value(self):
        # oracle: 50-digit evaluation of (0.5^-2 + 0.5^-2 - 1)^(-1/2)
        with mpmath.workdps(50):
            expected = float((mpmath.mpf("0.5") ** -2 * 2 - 1) ** mpmath.mpf("-0.5"))
        assert clayton(2.0).cdf([0.5, 0.5]) == pytest.approx(expected, abs=1e-14)
        assert expected == pytest.approx(7 ** -0.5, abs=1e-15)

    @pytest.mark.parametrize("cop", family_zoo(2))
    def test_grounded(self, cop):
        assert cop.cdf([0.0, 0.6]) == 0.0
        assert cop.cdf([0.6, 0.0]) == 0.0

    def test_domain_and_dimension_errors(self):
        with pytest.raises(DomainError):
            independence(2).cdf([1.2, 0.5])
        with pytest.raises(DimensionError):
            independence(2).cdf([0.5, 0.5, 0.5])

    def test_parameter_domains(self):
        with pytest.raises(ParameterError):
            clayton(0.0)
        with pytest.raises(ParameterError):
            clayton(-1.0)
        with pytest.raises(ParameterError):
            gumbel(0.5)
        with pytest.raises(ParameterError):
            frank(0.0)
        with pytest.raises(ParameterError):
            frank(-2.0, dim=3)
        with pytest.raises(DimensionError):
            countermonotone_2d().__class__("countermonotone", 3)

    @pytest.mark.parametrize(
        "theta", [-800.0, -400.0, -355.0, float(np.nextafter(copula._FRANK_THETA_FLOOR, -np.inf))]
    )
    def test_frank_below_its_overflow_floor_is_a_parameter_error(self, theta):
        # expm1(-theta)^2 overflows there; frank(-400).cdf([0.9, 0.9]) gave 1.0 for 0.8
        with pytest.raises(ParameterError, match=r"theta >= -354\.891356"):
            frank(theta)

    @pytest.mark.parametrize("theta", [copula._FRANK_THETA_FLOOR, -354.0, -100.0])
    def test_frank_down_to_its_floor_matches_high_precision(self, theta):
        points = np.array([[0.9, 0.9], [0.5, 0.5], [1.0, 0.2], [1.0, 1.0], [0.3, 0.8], [0.05, 0.97]])
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = frank(theta).cdf(points)
            hat = survival_copula(frank(theta)).cdf(points)
        with mpmath.workdps(50):
            t = mpmath.mpf(theta)

            def c(u, v):
                return -mpmath.log1p(mpmath.expm1(-t * u) * mpmath.expm1(-t * v) / mpmath.expm1(-t)) / t

            pts = [(mpmath.mpf(u), mpmath.mpf(v)) for u, v in points]
            want = [float(c(u, v)) for u, v in pts]
            want_hat = [float(u + v - 1 + c(1 - u, 1 - v)) for u, v in pts]
        np.testing.assert_allclose(got, want, rtol=1e-14)
        np.testing.assert_allclose(hat, want_hat, rtol=1e-14, atol=1e-15)

    def test_frank_near_zero_is_independence(self):
        c = frank(1e-12)
        assert c.cdf([0.3, 0.8]) == 0.3 * 0.8

    # num / den rounds to -1 from theta ~ 38 on: log1p gives -inf (with a
    # RuntimeWarning) and the clip turns it into 1
    @pytest.mark.xfail(strict=True, raises=(AssertionError, RuntimeWarning), reason="Frank loses its value at large theta")
    @pytest.mark.parametrize("theta, u", [(100.0, [0.5, 0.5]), (300.0, [1.0, 0.2])])
    def test_frank_large_theta_high_precision_value(self, theta, u):
        with mpmath.workdps(50):
            t = mpmath.mpf(theta)
            ratio = mpmath.expm1(-t * u[0]) * mpmath.expm1(-t * u[1]) / mpmath.expm1(-t)
            expected = float(-mpmath.log1p(ratio) / t)
        assert frank(theta).cdf(u) == pytest.approx(expected, rel=1e-12)


class TestSurvival:
    def test_independence_self_dual(self):
        c = independence(2)
        assert survival_copula(c) is c
        assert SurvivalCopula(c).cdf([0.3, 0.4]) == pytest.approx(0.12, abs=1e-15)

    def test_comonotone_by_hand(self):
        # 1 - 0.7 - 0.6 + min(0.7, 0.6) = 0.3 = min(0.3, 0.4)
        v = survival_copula(comonotone(2)).cdf([0.3, 0.4])
        assert v == pytest.approx(0.3, abs=1e-14)

    @pytest.mark.parametrize("cop", family_zoo(2) + family_zoo(3))
    def test_grounded_and_margins(self, cop):
        hat = survival_copula(cop)
        d = cop.dim
        assert hat.cdf(np.zeros(d)) == pytest.approx(0.0, abs=1e-12)
        for i in range(d):
            for ui in (0.0, 0.25, 0.5, 0.75, 1.0):
                u = np.ones(d)
                u[i] = ui
                assert hat.cdf(u) == pytest.approx(ui, abs=1e-12)

    @pytest.mark.parametrize("cop", family_zoo(2) + family_zoo(3))
    def test_radial_involution(self, cop):
        twice = survival_copula(survival_copula(cop))
        grid = unit_grid(cop.dim, 5)
        np.testing.assert_allclose(twice.cdf(grid), cop.cdf(grid), atol=1e-12)

    @pytest.mark.parametrize("cop", family_zoo(2) + family_zoo(3))
    def test_survival_is_a_copula(self, cop):
        hat = survival_copula(cop)
        rng = np.random.default_rng(3)
        for _ in range(25):
            a = rng.uniform(0, 1, cop.dim)
            b = a + rng.uniform(0, 1, cop.dim) * (1 - a)
            assert box_increment(hat, a, b) >= -1e-12


    def test_in_place_inclusion_exclusion_equals_the_signed_sum(self):
        # reference: one zero-filled running sum over the whole base grid, each
        # term added or subtracted in mask order, with no blocks
        def signed_sum(c, axes):
            if not isinstance(c, SurvivalCopula):
                return c._grid(axes)
            base = signed_sum(c.base, [np.concatenate((1.0 - a, np.ones((len(a), 1))), axis=1) for a in axes])
            pinned, flipped = slice(-1, None), slice(0, -1)
            total = np.zeros((len(base),) + tuple(a.shape[1] for a in axes))
            for mask in itertools.product((pinned, flipped), repeat=c.dim):
                signed = np.subtract if mask.count(flipped) % 2 else np.add
                signed(total, base[(slice(None), *mask)], out=total)
            return np.clip(total, 0.0, 1.0, out=total)

        rng = np.random.default_rng(29)
        families = [independence, comonotone, functools.partial(clayton, 2.0), functools.partial(gumbel, 1.5),
                    functools.partial(frank, 5.0), _tied_empirical, lambda d: countermonotone_2d()]
        pool = np.array([0.0, 0.25, 0.5, 1.0])
        # blocks of whole grids, of axis-0 slices and of one cell each; chunks of a few rows
        for block, pairs in [(copula._SUM_BLOCK, copula._CHUNK), (40, 64), (7, 20), (1, 1)]:
            with mock.patch.object(copula, "_SUM_BLOCK", block), mock.patch.object(copula, "_CHUNK", pairs):
                for case in range(280):
                    d = 2 if case % 35 >= 30 else case % 4 + 1  # the countermonotone copula is d = 2 only
                    cop = families[case // 5 % len(families)](d)
                    for _ in range(case % 3):
                        cop = SurvivalCopula(cop)
                    rows = rng.integers(1, 6)
                    axes = [
                        np.where(rng.random((rows, n)) < 0.3, rng.choice(pool, (rows, n)), rng.random((rows, n)))
                        for n in rng.integers(0 if case % 9 == 0 else 1, 7, size=d)
                    ]
                    got, want = cop.cdf_grids(axes), signed_sum(cop, axes)
                    assert got.flags.c_contiguous
                    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
                # (d, rows, levels per axis): d = 5; one level per axis in batches of up to 300 rows, as
                # the axiom suite sends; one level on axis 0 only
                shapes = [(5, rng.integers(1, 4), rng.integers(0 if k % 5 == 0 else 1, 4, size=5)) for k in range(14)]
                shapes += [(d, rng.integers(1, 300), [1] * d) for d in (1, 2, 3, 4) * 7]
                shapes += [(d, rng.integers(1, 6), [1, *rng.integers(0 if d % 2 else 1, 5, size=d - 1)]) for d in (1, 2, 3, 4) * 7]
                for case, (d, rows, sizes) in enumerate(shapes):
                    fams = families if d == 2 else families[:-1]
                    cop = fams[case % len(fams)](d)
                    for _ in range(case % 3):
                        cop = SurvivalCopula(cop)
                    axes = [
                        np.where(rng.random((rows, n)) < 0.3, rng.choice(pool, (rows, n)), rng.random((rows, n)))
                        for n in sizes
                    ]
                    got, want = cop.cdf_grids(axes), signed_sum(cop, axes)
                    assert got.flags.c_contiguous
                    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
        # at the default sizes: d = 2 grids of several blocks, and a batch of several chunks
        for cop, shape in [(frank(-3.0), (1, 300, 200)), (clayton(2.0, 3), (3, 30, 20, 40)), (gumbel(1.5), (700, 9, 11))]:
            for wraps in (1, 2):
                c = _survival_wraps(cop, wraps)
                axes = [rng.random((shape[0], n)) for n in shape[1:]]
                got, want = c.cdf_grids(axes), signed_sum(c, axes)
                assert got.flags.c_contiguous and np.array_equal(got, want)

    def test_one_level_on_axis_0_peaks_at_most_one_slab_above_the_zero_filled_sum(self):
        # the pinned half's running sum holds one axis-0 slab per batch row, at
        # n_0 = 1 as large as the output.  Summing each block from 0 instead
        # peaked at 419 768 bytes on this grid (tracemalloc); the sum from the
        # pinned half reads 535 160, the 120 x 120 x 8 = 115 200 byte slab and
        # one array header more.  The bound allows 1 KB for headers.
        cop = survival_copula(clayton(2.0, 3))
        rng = np.random.default_rng(5)
        axes = [[0.7], np.sort(rng.random(120)), np.sort(rng.random(120))]
        cop.cdf_grid(axes)
        tracemalloc.start()
        try:
            cop.cdf_grid(axes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 419_768 + 120 * 120 * 8 + 1024


class TestBoxIncrement:
    def test_total_mass(self):
        assert box_increment(independence(2), [0, 0], [1, 1]) == pytest.approx(1.0)

    @pytest.mark.parametrize("cop", family_zoo(2))
    def test_degenerate_box(self, cop):
        assert box_increment(cop, [0.4, 0.6], [0.4, 0.6]) == pytest.approx(0.0, abs=1e-15)

    def test_product_box_mass(self):
        got = box_increment(independence(2), [0.2, 0.2], [0.6, 0.7])
        assert got == pytest.approx(0.4 * 0.5, abs=1e-15)

    @pytest.mark.parametrize("cop", family_zoo(2) + family_zoo(3))
    def test_d_monotone_on_random_boxes(self, cop):
        rng = np.random.default_rng(11)
        for _ in range(40):
            a = rng.uniform(0, 1, cop.dim)
            b = a + rng.uniform(0, 1, cop.dim) * (1 - a)
            assert box_increment(cop, a, b) >= -1e-12


class TestFrechet:
    @pytest.mark.parametrize("cop", family_zoo(2) + family_zoo(3))
    def test_bounds_sandwich_everywhere(self, cop):
        grid = unit_grid(cop.dim, 9)
        vals = np.asarray(cop.cdf(grid))
        assert np.all(vals >= frechet_lower(grid) - 1e-12)
        assert np.all(vals <= frechet_upper(grid) + 1e-12)

    def test_distances_comonotone(self):
        d_ul, d_uc = frechet_distances(comonotone(2), 50)
        assert d_uc == 0.0
        assert d_ul == pytest.approx(0.5)

    def test_distances_countermonotone(self):
        d_ul, d_uc = frechet_distances(countermonotone_2d(), 100)
        assert d_uc == pytest.approx(0.5)  # attained at (1/2, 1/2)
        assert d_ul == pytest.approx(0.5)

    def test_distances_independence_via_coarse_grid_oracle(self):
        # brute-force oracle on an independent 21-point grid
        axis = np.linspace(0, 1, 21)
        best = max(min(u, v) - u * v for u in axis for v in axis)
        d_ul, d_uc = frechet_distances(independence(2), 20)
        assert d_uc == pytest.approx(best)
        assert d_uc == pytest.approx(0.25)

    @pytest.mark.parametrize("cop", family_zoo(2))
    def test_distance_ordering(self, cop):
        d_ul, d_uc = frechet_distances(cop, 60)
        assert 0.0 <= d_uc <= d_ul
        grid = unit_grid(2, 60)
        assert d_ul == pytest.approx(np.max(frechet_upper(grid) - frechet_lower(grid)))

    def test_dimension_one_rejected(self):
        with pytest.raises(DimensionError):
            frechet_distances(independence(1))

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("grid_n", [2, 3, 7, 20, 33])
    def test_d_ul_equals_the_full_grid_maximum(self, d, grid_n):
        # d_ul is taken on the diagonal; the full grid folds the coordinates
        # in the same order, so the maxima agree as floats
        axes = np.meshgrid(*([np.linspace(0.0, 1.0, grid_n + 1)] * d), indexing="ij")
        lower = np.maximum(functools.reduce(np.add, axes) - (d - 1), 0.0)
        full = float(np.max(functools.reduce(np.minimum, axes) - lower))
        assert frechet_distances(independence(d), grid_n)[0] == full

    @pytest.mark.parametrize("cop", [clayton(2.0), frank(-3.0), _tied_empirical(2), survival_copula(clayton(2.0))])
    def test_d_uc_takes_no_full_grid_of_any_copula(self, monkeypatch, cop):
        calls = []
        for cls in (Copula, SurvivalCopula):
            def counted(self, axes, _grid=cls.cdf_grid):
                calls.append(len(axes))
                return _grid(self, axes)

            monkeypatch.setattr(cls, "cdf_grid", counted)
        frechet_distances(cop, 10)
        # every copula, a survival copula too, is read off the diagonal with
        # one pointwise batch
        assert calls == []

    def test_d_uc_of_a_parametric_copula_peaks_under_one_megabyte(self):
        # the full default grid of d = 6 would hold 21^6 cells (690 MB in floats)
        cop = clayton(2.0, 6)
        tracemalloc.start()
        try:
            d_ul, d_uc = frechet_distances(cop)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        assert 0.0 < d_uc < d_ul

    def test_d_uc_of_a_survival_copula_peaks_under_one_megabyte(self):
        # the full default grid of d = 5 would hold 21^5 cells and their
        # inclusion-exclusion terms (about 156 MB)
        cop = survival_copula(clayton(2.0, 5))
        tracemalloc.start()
        try:
            d_ul, d_uc = frechet_distances(cop)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        assert 0.0 < d_uc < d_ul

    def test_d_uc_of_an_empirical_copula_peaks_under_one_megabyte(self):
        # 200 scenarios in d = 6; the full default grid would hold 21^6 cells
        rng = np.random.default_rng(6)
        cop = empirical_copula(scenario_set(rng.gamma(2.0, 1.5, size=(200, 6))))
        tracemalloc.start()
        try:
            d_ul, d_uc = frechet_distances(cop)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        assert 0.0 < d_uc < d_ul


def _full_grid_d_uc(cop, grid_n):
    """max(M - C) over every point of the closed (grid_n + 1)^d grid."""
    axes = [np.linspace(0.0, 1.0, grid_n + 1)] * cop.dim
    upper = functools.reduce(np.minimum, np.meshgrid(*axes, indexing="ij"))
    return float(max(np.max(upper - cop.cdf_grid(axes)), 0.0))


@st.composite
def frechet_case(draw):
    """A parametric copula of dimension 2-5 (|theta| up to 300) and a grid resolution."""
    d = draw(st.integers(2, 5))
    families = ["independence", "comonotone", "clayton", "gumbel", "frank"] + (["countermonotone"] if d == 2 else [])
    family = draw(st.sampled_from(families))
    if family == "clayton":
        cop = clayton(draw(st.floats(1e-3, 300.0)), d)
    elif family == "gumbel":
        cop = gumbel(draw(st.floats(1.0, 300.0)), d)
    elif family == "frank":
        # negative theta is a copula only at d = 2; near 0 is independence.
        # From theta ~ 38 on Frank's values are wrong and warn (see
        # test_frank_large_theta_high_precision_value), so positive theta
        # stops at 36 until that is fixed
        theta = draw(st.one_of(st.floats(1e-12, 36.0), st.floats(-300.0, -1e-12) if d == 2 else st.nothing()))
        cop = frank(theta, d)
    else:
        cop = {"independence": independence, "comonotone": comonotone, "countermonotone": lambda _: countermonotone_2d()}[family](d)
    # the default resolution at d = 5 is a 4M-cell reference grid: the
    # explicit example below covers it once
    odd = st.integers(2, 40 if d <= 3 else 9).map(lambda k: 2 * k + 1)
    grid_n = draw(st.one_of(st.sampled_from((2, 3)), odd, st.just(None) if d <= 4 else st.nothing()))
    return cop, grid_n


@settings(max_examples=200, deadline=None)
@given(case=frechet_case())
@example(case=(clayton(7.5, 5), None))
@example(case=(frank(-40.0), None))
@example(case=(frank(36.0, 4), 3))
def test_d_uc_equals_the_full_grid_maximum(case):
    # a parametric d_uc is read off the diagonal; C is nondecreasing in every
    # coordinate, so the full grid's maximum is there too, as a float
    cop, grid_n = case
    expected = _full_grid_d_uc(cop, default_grid_n(cop.dim) if grid_n is None else grid_n)
    assert frechet_distances(cop, grid_n)[1] == expected


@st.composite
def empirical_frechet_case(draw):
    """An empirical copula of dimension 2-5 with tied ranks and unequal weights, and a grid resolution."""
    d = draw(st.integers(2, 5))
    m = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # a few distinct losses per column give ties
    losses = rng.integers(0, draw(st.integers(1, 6)), size=(m, d)).astype(float)
    weights = rng.integers(1, 5, size=m).astype(float) if draw(st.booleans()) else None
    cop = empirical_copula(scenario_set(losses, weights))
    odd = st.integers(2, 40 if d <= 3 else 9).map(lambda k: 2 * k + 1)
    grid_n = draw(st.one_of(st.sampled_from((2, 3)), odd, st.just(None) if d <= 4 else st.nothing()))
    return cop, grid_n


@settings(max_examples=150, deadline=None)
@given(case=empirical_frechet_case())
@example(case=(_tied_empirical(5), None))
@example(case=(_tied_empirical(2), None))
def test_empirical_d_uc_is_the_full_grid_maximum_up_to_rounding(case):
    # the diagonal cdf counts the scenarios of each diagonal cell; it sums
    # their weights in another order than the grid's cumulative sums
    cop, grid_n = case
    expected = _full_grid_d_uc(cop, default_grid_n(cop.dim) if grid_n is None else grid_n)
    assert frechet_distances(cop, grid_n)[1] == pytest.approx(expected, rel=0, abs=1e-15)


@st.composite
def survival_frechet_case(draw):
    """A parametric or empirical copula of dimension 2-5 under one or two survival wraps, and a grid resolution."""
    base, grid_n = draw(st.one_of(frechet_case(), empirical_frechet_case()))
    cop = SurvivalCopula(base)
    if draw(st.booleans()):
        cop = SurvivalCopula(cop)
    return cop, default_grid_n(cop.dim) if grid_n is None else grid_n


@settings(max_examples=150, deadline=None)
@given(case=survival_frechet_case())
@example(case=(SurvivalCopula(SurvivalCopula(_tied_empirical(3))), 11))
def test_survival_d_uc_is_the_full_grid_maximum_up_to_rounding(case):
    # a survival copula's inclusion-exclusion sum is not monotone in floats,
    # so its diagonal may miss the full grid's maximum by rounding
    cop, grid_n = case
    expected = _full_grid_d_uc(cop, grid_n)
    assert frechet_distances(cop, grid_n)[1] == pytest.approx(expected, rel=0, abs=1e-15)


class TestEmpirical:
    def test_two_point_diagonal(self):
        s = scenario_set([[1.0, 1.0], [2.0, 2.0]])
        e = empirical_copula(s)
        assert e.cdf([0.5, 0.5]) == 0.5

    def test_grounded(self):
        s = scenario_set([[1.0, 5.0], [2.0, 3.0], [4.0, 1.0]])
        e = empirical_copula(s)
        assert e.cdf([0.0, 0.9]) == 0.0

    def test_countermonotone_ranks(self):
        s = scenario_set([[1.0, 2.0], [2.0, 1.0]])
        e = empirical_copula(s)
        assert e.cdf([0.5, 0.5]) == 0.0

    def test_needs_two_scenarios(self):
        with pytest.raises(DataError):
            empirical_copula(scenario_set([[1.0, 2.0]]))

    def test_margins_exact_at_rank_grid(self):
        rng = np.random.default_rng(5)
        s = scenario_set(rng.normal(size=(10, 2)))
        e = empirical_copula(s)
        for k in range(11):
            assert e.cdf([k / 10, 1.0]) == pytest.approx(k / 10, abs=1e-15)

    def test_clamp_pair_keeps_empirical_copula(self):
        # per-column maps built from two clamps, strictly increasing on the attained range
        s = scenario_set([[1.0, 5.0], [2.0, 3.0], [4.0, 1.0]])
        x, y = s.losses.T
        clamped = np.column_stack([np.minimum(x, 10.0) - np.minimum(x, 0.0), np.minimum(y, 9.0) - np.minimum(y, -1.0)])
        assert gof_distance(empirical_copula(s.with_losses(clamped)), empirical_copula(s), 10) == 0.0

    def test_comonotone_duc_shrinks_with_sample_size(self):
        rng = np.random.default_rng(42)
        prev = np.inf
        for m in (10, 100, 1000):
            x = np.sort(rng.uniform(0, 10, m))
            s = scenario_set(np.column_stack([x, 2 * x + 1]))
            _, d_uc = frechet_distances(empirical_copula(s), 50)
            assert d_uc < prev
            prev = d_uc
        assert prev < 0.01



def scaled_midranks_by_unique(values, weights):
    """Reference: tie groups from ``np.unique``'s own sort of the sorted column."""
    order = np.argsort(values, kind="stable")
    sv, sw = values[order], weights[order]
    _, start = np.unique(sv, return_index=True)
    group_w = np.add.reduceat(sw, start)
    below = np.concatenate(([0.0], np.cumsum(group_w)[:-1]))
    out = np.empty_like(values)
    out[order] = np.repeat(below + 0.5 * group_w, np.diff(np.concatenate((start, [len(sv)]))))
    return out


@st.composite
def tied_weighted_losses(draw):
    # small pools give ties within and across columns; weights are unnormalized
    m = draw(st.integers(2, 40))
    d = draw(st.integers(1, 4))
    pool = draw(st.sampled_from([1, 2, 3, 7, 1000]))
    losses = np.array(draw(st.lists(st.integers(0, pool - 1), min_size=m * d, max_size=m * d)), float)
    w = np.array(draw(st.lists(st.floats(0.01, 10.0), min_size=m, max_size=m)))
    return losses.reshape(m, d), w


@settings(max_examples=200, deadline=None)
@given(data=tied_weighted_losses())
def test_empirical_ranks_and_rank_index_match_the_sort_based_reference(data):
    losses, w = data
    s = scenario_set(losses, w)
    e = empirical_copula(s)
    for i in range(s.dim):
        assert np.array_equal(e.ranks[:, i], scaled_midranks_by_unique(s.losses[:, i], s.weights))
    # the copula reads its rank index off the losses' order; tied ranks are tied losses
    order = np.argsort(e.ranks.T, axis=1, kind="stable")
    ascending, pos = e._rank_index
    assert np.array_equal(ascending, np.take_along_axis(e.ranks.T, order, axis=1))
    assert pos.dtype == order.dtype
    assert np.array_equal(pos, np.argsort(order, axis=1))


# -0.0 ties with 0.0; the small pools give ties in every column
_FIT_POOL = np.array([-0.0, 0.0, 1.0, 2.5, 3.0, 4.0, 7.0, 11.0])


@st.composite
def fit_case(draw):
    """Losses (m = 2-40, d = 2-4) drawn from a small pool, and unequal weights."""
    m = draw(st.integers(2, 40))
    d = draw(st.integers(2, 4))
    pool = draw(st.integers(1, len(_FIT_POOL)))
    picks = draw(st.lists(st.integers(0, pool - 1), min_size=m * d, max_size=m * d))
    w = np.array(draw(st.lists(st.floats(0.01, 10.0), min_size=m, max_size=m)))
    return _FIT_POOL[picks].reshape(m, d), w


def inverted_theta(family, tau, dim):
    """Reference: each family's inversion of ``tau``, as fit_archimedean takes it; None where it raises."""
    if family == "clayton":
        return 2.0 * tau / (1.0 - tau) if 0.0 < tau < 1.0 - 1e-9 else None
    if family == "gumbel":
        return 1.0 / (1.0 - tau) if 0.0 <= tau < 1.0 - 1e-9 else None
    if abs(tau) < 1e-12 or (dim >= 3 and tau < 0.0) or abs(tau) >= _frank_tau(300.0):
        return None
    lo, hi = 1e-6, 300.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if _frank_tau(mid) < abs(tau) else (lo, mid)
    return float(np.copysign(0.5 * (lo + hi), tau))


class TestFit:
    def test_comonotone_sample_rejects_clayton(self):
        s = scenario_set([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]])
        assert kendall_tau(s.losses[:, 0], s.losses[:, 1], s.weights) == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(FitError):
            fit_archimedean(s, "clayton")

    def test_half_tau_gives_clayton_theta_two(self):
        # permutation of 1..8 with exactly 7 inversions: tau = 1 - 4*7/56 = 1/2
        x = np.arange(1.0, 9.0)
        y = np.array([2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 1.0])
        s = scenario_set(np.column_stack([x, y]))
        assert kendall_tau(x, y, s.weights) == pytest.approx(0.5, abs=1e-15)
        fitted = fit_archimedean(s, "clayton")
        assert fitted.theta == pytest.approx(2.0, abs=1e-12)

    def test_zero_tau_gumbel_is_independence(self):
        # 4-point design with equal concordant and discordant pairs
        x = np.array([1.0, 2.0, 3.0, 4.0])
        y = np.array([2.0, 1.0, 4.0, 3.0])
        s = scenario_set(np.column_stack([x, y]))
        tau = kendall_tau(x, y, s.weights)
        assert tau == pytest.approx(1 / 3)
        y2 = np.array([3.0, 4.0, 1.0, 2.0])
        s2 = scenario_set(np.column_stack([x, y2]))
        assert kendall_tau(x, y2, s2.weights) == pytest.approx(-1 / 3)
        y3 = np.array([2.0, 4.0, 1.0, 3.0])
        s3 = scenario_set(np.column_stack([x, y3]))
        assert kendall_tau(x, y3, s3.weights) == pytest.approx(0.0, abs=1e-15)
        fitted = fit_archimedean(s3, "gumbel")
        assert fitted.theta == 1.0

    def test_frank_round_trip(self):
        # build a sample whose tau matches frank(theta=5), then invert
        target_tau = _frank_tau(5.0)
        # tau of a permutation sample is rational; search a close one
        rng = np.random.default_rng(0)
        x = np.arange(1.0, 41.0)
        best, best_gap = None, np.inf
        for _ in range(300):
            y = rng.permutation(x)
            s = scenario_set(np.column_stack([x, y]))
            tau = kendall_tau(x, y, s.weights)
            gap = abs(tau - target_tau)
            if gap < best_gap:
                best, best_gap = s, gap
        fitted = fit_archimedean(best, "frank")
        # theta error controlled by the tau gap (dtau/dtheta ~ 0.05 near 5)
        assert fitted.theta == pytest.approx(5.0, abs=max(40 * best_gap, 0.05))

    def test_average_pairwise_tau_for_d3(self):
        x = np.arange(1.0, 9.0)
        s = scenario_set(np.column_stack([x, x, x[::-1]]))
        with pytest.raises(FitError):
            fit_archimedean(s, "clayton")  # average tau = -1/3 < 0

    @pytest.mark.parametrize(
        "columns, family, message",
        [
            ([[1, 2, 3, 4], [4, 3, 2, 1]], "gumbel", "Gumbel requires tau >= 0"),
            ([[1, 2, 3, 4], [2, 4, 1, 3]], "frank", "Frank is undefined at tau = 0"),
            ([[1, 2, 3, 4], [1, 2, 3, 4], [4, 3, 2, 1]], "frank", "only a copula for dimension 2"),
            ([[1, 2, 3, 4], [10, 20, 30, 40]], "frank", "outside the invertible Frank range"),
        ],
    )
    def test_sample_tau_outside_the_family_is_a_fit_error(self, columns, family, message):
        # taus -1, 0, -1/3 (the average over three pairs) and 1
        with pytest.raises(FitError, match=message):
            fit_archimedean(scenario_set(np.array(columns, float).T), family)


    @pytest.mark.parametrize("d", [3, 4])
    def test_one_kendall_tau_per_column_pair(self, d):
        rng = np.random.default_rng(d)
        base = rng.normal(size=30)
        s = scenario_set(np.column_stack([base + rng.normal(size=30) for _ in range(d)]) + 10.0)
        with (
            mock.patch.object(portfolio, "_dense_ranks", wraps=portfolio._dense_ranks) as ranked,
            mock.patch.object(copula, "_tau_of_ranks", wraps=copula._tau_of_ranks) as spy,
        ):
            theta = fit_archimedean(s, "gumbel").theta
        # each column is ranked once (cached on the set), and shared by all of its pairs
        assert ranked.call_count == d
        for i, call in enumerate(ranked.call_args_list):
            assert np.array_equal(call.args[0], s.losses[:, i])
        columns = [copula._dense_ranks(s.losses[:, i], s.order[i]) for i in range(d)]
        pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
        assert spy.call_count == len(pairs)
        taus = []
        for (i, j), call in zip(pairs, spy.call_args_list):
            x_ranks, y_ranks, w = call.args
            for got, want in ((x_ranks, columns[i]), (y_ranks, columns[j])):
                assert all(np.array_equal(g, e) for g, e in zip(got, want))
            assert np.array_equal(w, s.weights)
            taus.append(kendall_tau(s.losses[:, i], s.losses[:, j], s.weights))
        assert theta == 1.0 / (1.0 - float(np.mean(taus)))

    @settings(max_examples=200, deadline=None)
    @given(data=fit_case(), family=st.sampled_from(copula.ARCHIMEDEAN_FAMILIES))
    def test_theta_inverts_the_mean_kendall_tau_bit_for_bit(self, data, family):
        # the fit shares each column's dense ranks among its pairs; its tau
        # must still be kendall_tau's, pair by pair, to the last bit
        s = scenario_set(*data)
        pairs = itertools.combinations(range(s.dim), 2)
        tau = float(np.mean([kendall_tau(s.losses[:, i], s.losses[:, j], s.weights) for i, j in pairs]))
        theta = inverted_theta(family, tau, s.dim)
        if theta is None:
            with pytest.raises(FitError):
                fit_archimedean(s, family)
        else:
            assert fit_archimedean(s, family).theta == theta


    @pytest.mark.parametrize("theta", [0.1, 0.5, 2.0, 5.0, 20.0, 60.0, 150.0, 300.0, -5.0])
    def test_frank_tau_matches_debye_integral(self, theta):
        # oracle: 40-digit quadrature of D1(theta) = 1/theta int_0^theta t/(e^t - 1) dt
        with mpmath.workdps(40):
            th = mpmath.mpf(abs(theta))
            d1 = mpmath.quad(lambda t: t / mpmath.expm1(t), [0, min(th, 10), th]) / th
            expected = float(np.sign(theta) * (1 - 4 / th * (1 - d1)))
        assert _frank_tau(theta) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("shift", [1, 4, 13])
    def test_frank_fit_inverts_sample_tau(self, shift):
        x = np.arange(1.0, 41.0)
        for y in (np.roll(x, shift), -np.roll(x, shift)):
            s = scenario_set(np.column_stack([x, y]))
            tau = kendall_tau(x, y, s.weights)
            assert _frank_tau(fit_archimedean(s, "frank").theta) == pytest.approx(tau, abs=1e-12)

    def test_frank_fit_loads_no_scipy(self):
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from jointrisk import fit_archimedean, scenario_set\n"
            "x = np.arange(1.0, 41.0)\n"
            "fit_archimedean(scenario_set(np.column_stack([x, np.roll(x, 4)])), 'frank')\n"
            "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules))\n"
        )
        src = os.path.dirname(os.path.dirname(jointrisk.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"


def kendall_tau_pairwise(x, y, w):
    """O(m^2) reference: every ordered pair weighs w_i w_j, ties count zero."""
    dx = np.sign(x[:, None] - x[None, :])
    dy = np.sign(y[:, None] - y[None, :])
    ww = w[:, None] * w[None, :]
    return float(np.sum(dx * dy * ww)) / float(ww.sum() - np.sum(w**2))


@st.composite
def tied_weighted_columns(draw):
    # a pool of one value gives a constant column; small pools give ties in
    # x, in y and in both
    m = draw(st.integers(2, 60))
    columns = []
    for _ in range(2):
        pool = draw(st.sampled_from([1, 2, 3, 5, 8, 1000]))
        columns.append(np.array(draw(st.lists(st.integers(0, pool - 1), min_size=m, max_size=m)), float))
    w = np.array(draw(st.lists(st.floats(0.01, 10.0), min_size=m, max_size=m)))
    return columns[0], columns[1], w / w.sum()


@settings(max_examples=300, deadline=None)
@given(data=tied_weighted_columns())
def test_kendall_tau_matches_pairwise_reference(data):
    x, y, w = data
    assert abs(kendall_tau(x, y, w) - kendall_tau_pairwise(x, y, w)) <= 1e-13


class TestKendallTau:
    def test_one_scenario_is_a_data_error(self):
        with pytest.raises(DataError):
            kendall_tau(np.array([1.0]), np.array([2.0]), np.array([1.0]))

    @pytest.mark.parametrize(
        "x, y, w",
        [
            # the count read only the first 3 weights, the denominator all 4: tau was 0.5, not 1
            ([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [0.25, 0.25, 0.25, 0.25]),
            ([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [0.5, 0.5]),
            ([1.0, 2.0, 3.0], [1.0, 2.0], [1 / 3, 1 / 3, 1 / 3]),
            ([[1.0, 2.0], [3.0, 4.0]], [[1.0, 2.0], [3.0, 4.0]], [[0.25, 0.25], [0.25, 0.25]]),
        ],
        ids=["long-weights", "short-weights", "short-y", "two-dimensional"],
    )
    def test_shapes_that_do_not_match_are_a_data_error(self, x, y, w):
        with pytest.raises(DataError, match="1-D arrays of one length"):
            kendall_tau(np.array(x), np.array(y), np.array(w))

    @pytest.mark.parametrize("column", [0, 1, 2])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_or_weights_are_a_data_error(self, column, bad):
        # a NaN in x returned 1/3
        data = [np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0]), np.full(3, 1 / 3)]
        data[column][1] = bad
        with pytest.raises(DataError, match="finite"):
            kendall_tau(*data)

    def test_negative_weight_is_a_data_error(self):
        with pytest.raises(DataError, match="nonnegative"):
            kendall_tau(np.array([1.0, 2.0, 3.0]), np.array([1.0, 3.0, 2.0]), np.array([0.6, 0.6, -0.2]))

    @pytest.mark.xfail(
        strict=True,
        reason="the weights of tied (x, y) pairs are summed in the scenarios' order, "
        "so relabeling the scenarios moves the last bit of tau on weighted data",
    )
    def test_relabeling_weighted_tied_scenarios_keeps_tau_bit_for_bit(self):
        rng = np.random.default_rng(12)
        x, y = rng.integers(0, 3, size=(2, 12)).astype(float)
        w = rng.uniform(0.5, 2.0, 12)
        tau = kendall_tau(x, y, w)
        changed = 0
        for _ in range(100):
            p = rng.permutation(12)
            changed += kendall_tau(x[p], y[p], w[p]) != tau
        assert changed == 0

    @pytest.mark.xfail(
        strict=True,
        reason="the pair weight (sum w)^2 - sum w^2 cancels when one weight dominates, "
        "so tau is off by more than 1e-13 there",
    )
    @pytest.mark.parametrize(
        "x, y, w, exact",
        [
            ([0.0, 0.0], [0.0, 1.0], [10.0, 0.01], 0.0),
            ([0.0, 0.0], [0.0, 1.0], [1.0, 1e-6], 0.0),
            ([0.0, 1.0, 2.0], [0.0, 1.0, 2.0], [0.9999, 5e-5, 5e-5], 1.0),
        ],
        ids=["tied-x-10-to-0.01", "tied-x-1-to-1e-6", "concordant-dominant"],
    )
    def test_a_dominant_weight_keeps_tau_within_1e_13(self, x, y, w, exact):
        # the tolerance of test_kendall_tau_matches_pairwise_reference, whose
        # drawn weights (0.01 to 10) can reach the first case
        assert abs(kendall_tau(np.array(x), np.array(y), np.array(w)) - exact) <= 1e-13

    def test_heavy_ties_at_m_3000_match_the_pairwise_reference(self):
        rng = np.random.default_rng(3000)
        m = 3000
        x = rng.integers(0, 20, m).astype(float)
        y = np.minimum(x + rng.integers(0, 6, m), 19.0) * 0.5
        w = rng.uniform(0.1, 5.0, m)
        w /= w.sum()
        assert len(np.unique(x)) <= 20 and len(np.unique(y)) <= 20
        # the signed pair sum, 250 rows at a time (the full m x m matrices need 216 MB)
        signed = 0.0
        for lo in range(0, m, 250):
            rows = slice(lo, lo + 250)
            sign = np.sign(x[rows, None] - x[None, :]) * np.sign(y[rows, None] - y[None, :])
            signed += float(w[rows] @ sign @ w)
        expected = signed / float(w.sum() ** 2 - np.sum(w**2))
        assert abs(kendall_tau(x, y, w) - expected) <= 1e-13

    def test_large_tied_weighted_sample_in_linear_memory(self):
        # the m x m pairwise formula needs about 9.6 GB here
        rng = np.random.default_rng(7)
        m = 20_000
        x = np.round(rng.normal(size=m), 2)
        y = np.round(x + rng.normal(size=m), 2)
        s = scenario_set(np.column_stack([x - x.min(), y - y.min()]), rng.uniform(0.5, 2.0, m))
        tracemalloc.start()
        try:
            tau = kendall_tau(s.losses[:, 0], s.losses[:, 1], s.weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16e6
        # correlation 1/sqrt(2): tau = 2/pi * arcsin(1/sqrt(2)) = 1/2 before rounding
        assert tau == pytest.approx(0.5, abs=0.03)
        assert fit_archimedean(s, "clayton").theta == pytest.approx(2 * tau / (1 - tau), rel=1e-12)


class TestGof:
    def test_identity_distance_zero(self):
        s = scenario_set([[1.0, 2.0], [2.0, 1.0], [3.0, 3.0]])
        e = empirical_copula(s)
        assert gof_distance(e, e, 20) == 0.0

    def test_large_independent_sample_close_to_independence(self):
        rng = np.random.default_rng(123)
        s = scenario_set(rng.uniform(size=(400, 2)))
        e = empirical_copula(s)
        assert gof_distance(e, independence(2), 50) < 0.01

    def test_comonotone_vs_countermonotone_is_far(self):
        x = np.arange(1.0, 11.0)
        s = scenario_set(np.column_stack([x, x]))
        e = empirical_copula(s)
        assert gof_distance(e, countermonotone_2d(), 50) >= 0.01

    def test_dimension_mismatch(self):
        s = scenario_set([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(DimensionError):
            gof_distance(empirical_copula(s), independence(3))


def _tied_weighted_empirical(rng, m, d, weighted):
    losses = rng.integers(0, max(2, m // 2), size=(m, d)).astype(float)  # about two scenarios per value: ties
    return empirical_copula(scenario_set(losses, rng.integers(1, 5, size=m).astype(float) if weighted else None))


@st.composite
def gof_case(draw):
    """An empirical copula (d = 1-4, ties, maybe weighted), a copula of every family under 0-2
    survival wraps, a grid_n, and the scenarios of both.  On its interior grid a gof evaluation
    takes the scenario products below m = 16 d ((n + 1) / n)^d, the histogram above: m is drawn
    on both sides."""
    d = draw(st.integers(1, 4))
    grid_n = draw(st.integers(*{1: (2, 40), 2: (2, 12), 3: (2, 6), 4: (3, 4)}[d]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.one_of(st.integers(2, 12), st.integers(330, 400)))
    e = _tied_weighted_empirical(rng, m, d, draw(st.booleans()))
    other = _tied_weighted_empirical(rng, draw(st.integers(2, 40)), d, draw(st.booleans()))
    c = draw(st.sampled_from(family_zoo(d) + [clayton(0.4, d), other] + ([frank(-3.0)] if d == 2 else [])))
    return e, _survival_wraps(c, draw(st.sampled_from((0, 1, 2)))), grid_n, m + len(other.rank_weights)


@settings(max_examples=150, deadline=None)
@given(case=gof_case())
def test_gof_distance_is_the_closed_grid_mean_of_pointwise_values(case):
    e, c, grid_n, m = case
    pts = unit_grid(e.dim, grid_n)
    want = float(np.mean((e.cdf(pts) - c.cdf(pts)) ** 2))
    # a grid cell and its pointwise value add the same weights in other orders, and a survival
    # wrap sums 2^d such values: each difference is off by at most delta, which moves the mean
    # of squares by at most 2 sqrt(want) delta + delta^2.  That term carries d = 1, where every
    # parametric copula is u itself and the statistic can be as small as the rounding
    delta = 4.0**e.dim * (m + 2) * np.finfo(float).eps
    assert abs(gof_distance(e, c, grid_n) - want) <= 1e-13 * want + 2 * np.sqrt(want) * delta + delta**2
    assert gof_distance(e, e, grid_n) == 0.0


@st.composite
def unit_points(draw, dim):
    return np.array([draw(st.floats(0, 1, allow_nan=False)) for _ in range(dim)])


@settings(max_examples=60, deadline=None)
@given(u=unit_points(dim=3))
def test_bounds_property_sampled(u):
    for cop in family_zoo(3):
        v = cop.cdf(u)
        assert frechet_lower(u) - 1e-12 <= v <= frechet_upper(u) + 1e-12


@settings(max_examples=60, deadline=None)
@given(u=unit_points(dim=2), v=unit_points(dim=2))
def test_increment_property_sampled(u, v):
    a, b = np.minimum(u, v), np.maximum(u, v)
    for cop in family_zoo(2):
        assert box_increment(cop, a, b) >= -1e-12


# ---------------------------------------------------------------------------
# cdf_grid: the tensor-grid kernel against pointwise cdf


GRID_DIMS = (2, 3, 4)
PARAMETRIC_ZOO = {
    d: family_zoo(d) + [clayton(0.4, d), gumbel(1.0, d), frank(1e-12, d)] + ([frank(-3.0)] if d == 2 else [])
    for d in GRID_DIMS
}
EMPIRICAL_ZOO = {d: _tied_empirical(d) for d in GRID_DIMS}


def _grid_points(axes):
    return np.array(list(itertools.product(*axes)), dtype=float).reshape(-1, len(axes))


def _reference_cdf(cop, u):
    """Pointwise family formulas, written apart from the grid kernel.

    Rows are reduced with ``np.sum`` and ``np.prod``, the grounded cells and
    C(1, ..., 1) = 1 are set by row masks, and a survival copula is the
    2^d-term inclusion-exclusion of reference values of its base.  An
    empirical copula is the rank count sum_k w_k 1[r_k <= u].
    """
    u = np.asarray(u, dtype=float).reshape(-1, cop.dim).clip(0.0, 1.0)
    if isinstance(cop, SurvivalCopula):
        total = np.zeros(len(u))
        for mask in itertools.product((False, True), repeat=cop.dim):
            sel = np.array(mask)
            sign = -1.0 if sel.sum() % 2 else 1.0
            total += sign * _reference_cdf(cop.base, np.where(sel[None, :], 1.0 - u, 1.0))
        return np.clip(total, 0.0, 1.0)
    fam, th = cop.family, cop.theta
    if fam == "empirical":
        return np.all(cop.ranks[None, :, :] <= u[:, None, :], axis=2) @ cop.rank_weights
    if fam == "independence" or (fam == "frank" and abs(th) < 1e-10):
        return np.prod(u, axis=1)
    if fam == "comonotone":
        return np.min(u, axis=1)
    if fam == "countermonotone":
        return np.maximum(u.sum(axis=1) - 1.0, 0.0)
    out = np.zeros(len(u))
    pos = np.all(u > 0.0, axis=1)
    with np.errstate(over="ignore"):
        if fam == "clayton":
            out[pos] = (np.sum(u[pos] ** (-th), axis=1) - (cop.dim - 1)) ** (-1.0 / th)
        elif fam == "gumbel":
            out[pos] = np.exp(-(np.sum((-np.log(u[pos])) ** th, axis=1) ** (1.0 / th)))
        else:
            num = np.prod(np.expm1(-th * u), axis=1)
            out = -np.log1p(num / np.expm1(-th) ** (cop.dim - 1)) / th
    out = np.clip(out, 0.0, 1.0)
    out[np.all(u == 1.0, axis=1)] = 1.0
    return out


@st.composite
def level_axes(draw, dim, pool=None):
    """d level vectors in [0, 1], each holding 0 and 1 and, with ``pool``, some of its values."""
    axes = []
    for j in range(dim):
        levels = draw(st.lists(st.floats(0, 1, allow_nan=False), max_size=4)) + [0.0, 1.0]
        if pool is not None:
            levels += draw(st.lists(st.sampled_from(sorted(set(pool[:, j]))), min_size=1, max_size=3))
        axes.append(np.array(draw(st.permutations(levels))))
    return axes


def _survival_wraps(cop, wraps):
    """``cop``, its survival copula, or the survival copula of that (nested, not folded)."""
    if wraps == 1:
        return survival_copula(cop)
    if wraps == 2:
        return SurvivalCopula(SurvivalCopula(cop))
    return cop


@st.composite
def parametric_grid_case(draw):
    d = draw(st.sampled_from(GRID_DIMS))
    cop = _survival_wraps(draw(st.sampled_from(PARAMETRIC_ZOO[d])), draw(st.sampled_from((0, 1, 2))))
    return cop, draw(level_axes(d))


@st.composite
def empirical_grid_case(draw):
    d = draw(st.sampled_from(GRID_DIMS))
    e = EMPIRICAL_ZOO[d]
    wraps = draw(st.sampled_from((0, 1, 2)))
    # one survival wrap evaluates its base at 1 - u: draw those ties too
    pool = 1.0 - e.ranks if wraps == 1 else e.ranks
    return _survival_wraps(e, wraps), draw(level_axes(d, pool))


# Frank's raw formula misses C(1, 1, 1) = 1 by an ulp at theta = 5; the
# fix must leave the cells mixing 1s and 0s alone
_FRANK_CORNERS = (frank(5.0, 3), [np.array([1.0, 0.0])] * 3)


@settings(max_examples=150, deadline=None)
@given(case=parametric_grid_case())
@example(case=_FRANK_CORNERS)
def test_cdf_grid_parametric_is_pointwise_bit_for_bit(case):
    cop, axes = case
    shape = tuple(len(a) for a in axes)
    assert np.array_equal(cop.cdf_grid(axes), _reference_cdf(cop, _grid_points(axes)).reshape(shape))


@st.composite
def parametric_points_case(draw):
    """A parametric copula (d = 1-5, 0-2 survival wraps) and points rich in 0s and 1s."""
    d = draw(st.integers(1, 5))
    zoo = PARAMETRIC_ZOO.get(d) or family_zoo(d) + [clayton(0.4, d), gumbel(1.0, d), frank(1e-12, d)]
    cop = _survival_wraps(draw(st.sampled_from(zoo)), draw(st.sampled_from((0, 1, 2))))
    level = st.one_of(st.floats(0, 1, allow_nan=False), st.sampled_from([0.0, 1.0]))
    n = draw(st.integers(1, 6))
    return cop, np.array(draw(st.lists(level, min_size=n * d, max_size=n * d))).reshape(n, d)


@settings(max_examples=200, deadline=None)
@given(case=parametric_points_case())
@example(case=(_FRANK_CORNERS[0], _grid_points(_FRANK_CORNERS[1])))
def test_cdf_parametric_matches_the_reference_formulas(case):
    cop, pts = case
    assert np.array_equal(cop.cdf(pts), _reference_cdf(cop, pts))
    assert cop.cdf(pts[0]) == _reference_cdf(cop, pts[0])[0]


@settings(max_examples=100, deadline=None)
@given(case=empirical_grid_case())
def test_cdf_grid_empirical_matches_pointwise(case):
    # the rank count adds the same weights as the histogram, in another order
    cop, axes = case
    want = _reference_cdf(cop, _grid_points(axes)).reshape(tuple(len(a) for a in axes))
    np.testing.assert_allclose(cop.cdf_grid(axes), want, rtol=0, atol=1e-14)


def _row_histogram(ranks, w, axes):
    """One row's empirical grid as a histogram of its own: the row-by-row reference.

    A scenario counts at level ``u`` of axis j when ``ranks[:, j] <= u``, so
    its bin is the first sorted level at or above its rank (side="left");
    bin ``n_j`` means it never counts.
    """
    shape = tuple(len(a) for a in axes)
    if 0 in shape:
        return np.zeros(shape)
    order = [np.argsort(a, kind="stable") for a in axes]
    bins = [np.searchsorted(a[o], ranks[:, j], side="left") for j, (a, o) in enumerate(zip(axes, order))]
    keep = np.all(np.column_stack(bins) < np.array(shape), axis=1)
    flat = np.ravel_multi_index([b[keep] for b in bins], shape)
    hist = np.bincount(flat, weights=w[keep], minlength=int(np.prod(shape))).reshape(shape)
    for j in range(len(shape)):
        np.cumsum(hist, axis=j, out=hist)
    inverse = [np.argsort(o) for o in order]
    return hist[np.ix_(*inverse)]


class _RowByRow:
    """An empirical copula evaluated one batch row at a time by :func:`_row_histogram`."""

    def __init__(self, e):
        self.e, self.dim = e, e.dim

    def _grid(self, axes):
        out = np.empty((len(axes[0]),) + tuple(a.shape[1] for a in axes))
        for p in range(len(out)):
            out[p] = _row_histogram(self.e.ranks, self.e.rank_weights, [a[p] for a in axes])
        return out


@st.composite
def empirical_batch_case(draw):
    """An empirical copula (d = 1-5, tied ranks, maybe weighted), 0-2 survival wraps and
    d level arrays (P, n_j), P and n_j in 0-6, rich in 0s, 1s and (flipped) ranks."""
    d = draw(st.integers(1, 5))
    m = draw(st.integers(2, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    losses = rng.integers(0, draw(st.integers(1, 6)), size=(m, d)).astype(float)
    weights = rng.integers(1, 5, size=m).astype(float) if draw(st.booleans()) else None
    e = empirical_copula(scenario_set(losses, weights))
    pool = sorted({0.0, 1.0} | set(e.ranks.ravel()) | set(1.0 - e.ranks.ravel()))
    level = st.one_of(st.floats(0, 1, allow_nan=False), st.sampled_from(pool))
    batch = draw(st.integers(0, 6))
    axes = []
    for _ in range(d):
        n = draw(st.integers(0, 6))
        axes.append(np.array(draw(st.lists(level, min_size=batch * n, max_size=batch * n))).reshape(batch, n))
    return e, draw(st.sampled_from((0, 1, 2))), axes


@settings(max_examples=300, deadline=None)
@given(case=empirical_batch_case())
def test_batched_empirical_grid_is_the_row_histogram_bit_for_bit(case):
    e, wraps, axes = case
    # levels as drawn, then each row ascending, which is neither sorted nor scattered back
    for levels in (axes, [np.sort(a, axis=1) for a in axes]):
        want = _survival_wraps(_RowByRow(e), wraps)._grid([a.clip(0.0, 1.0) for a in levels])
        # a selection constant of 0 takes the histogram for every shape
        with mock.patch.object(copula, "_PRODUCTS_PER_SUM", 0):
            # a chunk of 1 element makes every row a chunk; two rows a chunk puts edges inside the batch
            two_rows = two_row_chunk(lambda: _survival_wraps(e, wraps).cdf_grids(levels))
            for budget in (copula._CHUNK, 1, two_rows):
                with mock.patch.object(copula, "_CHUNK", budget):
                    assert np.array_equal(_survival_wraps(e, wraps).cdf_grids(levels), want)


@settings(max_examples=300, deadline=None)
@given(case=empirical_batch_case())
def test_batched_scenario_products_are_their_rows_bit_for_bit_and_the_row_histogram_up_to_rounding(case):
    e, wraps, axes = case
    m, d, eps = len(e.rank_weights), e.dim, np.finfo(float).eps
    cop = _survival_wraps(e, wraps)
    want = _survival_wraps(_RowByRow(e), wraps)._grid([a.clip(0.0, 1.0) for a in axes])
    # each cell adds a subset of the same m weights as the histogram, in another order; a
    # survival wrap's inclusion-exclusion sums 2^d such cells, each rounded anew
    tol = m * eps * want + (0.0 if wraps == 0 else 4.0**d * (m + 2) * eps)
    # an infinite selection constant takes the products for every shape
    with mock.patch.object(copula, "_PRODUCTS_PER_SUM", np.inf):
        two_rows = two_row_chunk(lambda: cop.cdf_grids(axes))
    for budget in (copula._CHUNK, 1, two_rows):
        with mock.patch.object(copula, "_CHUNK", budget), mock.patch.object(copula, "_PRODUCTS_PER_SUM", np.inf):
            got = cop.cdf_grids(axes)
            rows = [cop.cdf_grids([a[p : p + 1] for a in axes]) for p in range(len(got))]
        assert np.array_equal(got, np.concatenate(rows) if rows else got[:0])
        assert (np.abs(got - want) <= tol).all()


@pytest.mark.parametrize(
    "ranks, weights, error",
    [
        (np.full((2, 2), 0.5), [0.5, 0.5], DimensionError),
        (np.full((2, 4), 0.5), [0.5, 0.5], DimensionError),
        (np.full(3, 0.5), [1.0], DimensionError),
        (np.full((2, 3, 1), 0.5), [0.5, 0.5], DimensionError),
        (np.full((2, 3), 0.5), [0.25, 0.25, 0.5], DataError),
        (np.full((2, 3), 0.5), [1.0], DataError),
        (np.full((2, 3), 0.5), [[0.5, 0.5]], DataError),
        (np.full((2, 3), 0.5), [0.5, np.nan], DataError),
        (np.full((2, 3), 0.5), [0.5, np.inf], DataError),
        (np.full((2, 3), 0.5), [1.5, -0.5], DataError),
        (np.array([[0.0, 0.5, 0.5], [1.0, 1.0, 1.0]]), [0.5, 0.5], DataError),
        (np.array([[-0.5, 0.5, 0.5], [1.0, 1.0, 1.0]]), [0.5, 0.5], DataError),
        (np.array([[0.5, 0.5, 1.5], [1.0, 1.0, 1.0]]), [0.5, 0.5], DataError),
        (np.array([[0.5, np.nan, 0.5], [1.0, 1.0, 1.0]]), [0.5, 0.5], DataError),
        (np.array([[0.5, 0.5, 0.5], [1.0, np.inf, 1.0]]), [0.5, 0.5], DataError),
    ],
    ids=["two-columns", "four-columns", "one-dimensional", "three-dimensional", "three-weights",
         "one-weight", "weights-2d", "nan-weight", "infinite-weight", "negative-weight",
         "zero-rank", "negative-rank", "rank-above-1", "nan-rank", "infinite-rank"],
)
def test_malformed_rank_data_is_rejected_when_built(ranks, weights, error):
    # two columns for dimension 3 used to build, and fail at the first cdf with an IndexError;
    # a rank of 0 gave C(0, ...) > 0, and a NaN or 1.5 rank C(1, ..., 1) < 1
    with pytest.raises(error):
        Copula("empirical", 3, ranks=ranks, rank_weights=np.array(weights))


def test_rank_order_is_always_sorted_from_the_ranks():
    e = _tied_empirical(3)
    other = empirical_copula(scenario_set(np.arange(18.0).reshape(6, 3) % 5))
    axes = [np.array([0.0, 0.3, 1.0, 0.5]), np.array([0.7, 0.2]), np.array(sorted(set(e.ranks[:, 2])))]
    bare = Copula("empirical", 3, ranks=e.ranks, rank_weights=e.rank_weights)
    assert np.array_equal(bare.cdf_grid(axes), e.cdf_grid(axes))
    # replacing the ranks sorts the new ones; the order cannot be handed in
    swapped = dataclasses.replace(e, ranks=other.ranks, rank_weights=other.rank_weights)
    assert np.array_equal(swapped.cdf_grid(axes), other.cdf_grid(axes))
    with pytest.raises(TypeError):
        Copula("empirical", 3, ranks=e.ranks, rank_weights=e.rank_weights, _rank_index=other._rank_index)


@st.composite
def batched_grid_case(draw):
    """A copula and d level arrays (P, n_j) whose rows mix 0, 1, free levels and rank ties."""
    d = draw(st.sampled_from(GRID_DIMS))
    wraps = draw(st.sampled_from((0, 1, 2)))
    empirical = draw(st.booleans())
    cop = EMPIRICAL_ZOO[d] if empirical else draw(st.sampled_from(PARAMETRIC_ZOO[d]))
    pool = [0.0, 1.0] + (sorted(set(cop.ranks.ravel()) | set(1.0 - cop.ranks.ravel())) if empirical else [])
    level = st.one_of(st.floats(0, 1, allow_nan=False), st.sampled_from(pool))
    batch = draw(st.integers(1, 4))
    axes = []
    for _ in range(d):
        n = draw(st.integers(1, 4))
        axes.append(np.array(draw(st.lists(level, min_size=batch * n, max_size=batch * n))).reshape(batch, n))
    return _survival_wraps(cop, wraps), axes


@settings(max_examples=150, deadline=None)
@given(case=batched_grid_case())
def test_cdf_grids_rows_are_cdf_grids(case):
    cop, axes = case
    grids = cop.cdf_grids(axes)
    assert grids.shape == (len(axes[0]),) + tuple(a.shape[1] for a in axes)
    # C-contiguous, as a caller's reshape into rows must give BLAS contiguous rows
    assert grids.flags.c_contiguous
    for p, grid in enumerate(grids):
        row = cop.cdf_grid([a[p] for a in axes])
        assert row.flags.c_contiguous and np.array_equal(grid, row)


@st.composite
def mask_view_case(draw):
    """A random (P, n_0 + 1, ...) grid and one weight array (P, n_j) per axis; axes of length 1 are common."""
    d = draw(st.integers(1, 4))
    rows = draw(st.integers(1, 5))
    shape = [draw(st.one_of(st.just(1), st.integers(1, 40 if d <= 2 else 6))) for _ in range(d)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = rng.random((rows,) + tuple(n + 1 for n in shape))
    return grid, [rng.standard_normal((rows, n)) for n in shape]


@settings(max_examples=300, deadline=None)
@given(case=mask_view_case())
def test_contract_of_every_mask_view_equals_its_contiguous_copy_bit_for_bit(case):
    # a d = 2 view goes to BLAS as it lies; any other is copied first, such
    # as one with its last axis reversed, which numpy's own loop would round otherwise
    grid, weights = case
    for mask in itertools.product((slice(1, None), slice(0, -1)), repeat=len(weights)):
        for view in (grid[(slice(None), *mask)], grid[(slice(None), *mask)][..., ::-1]):
            got, want = copula._contract(view, weights), copula._contract(np.ascontiguousarray(view), weights)
            assert got.tobytes() == want.tobytes()


class TestCdfGrid:
    def test_shape_follows_axes_including_empty(self):
        c = clayton(2.0, 3)
        assert c.cdf_grid([[0.5], [0.1, 0.2], [0.3, 0.4, 0.9]]).shape == (1, 2, 3)
        assert EMPIRICAL_ZOO[2].cdf_grid([[], [0.5]]).shape == (0, 1)

    def test_rejects_bad_axes(self):
        with pytest.raises(DimensionError):
            independence(2).cdf_grid([[0.5]])
        with pytest.raises(DimensionError):
            independence(2).cdf_grid([[[0.5]], [0.5]])
        with pytest.raises(DomainError):
            survival_copula(gumbel(2.0)).cdf_grid([[0.5], [1.5]])

    @pytest.mark.parametrize("cop", [clayton(2.0), EMPIRICAL_ZOO[2], survival_copula(gumbel(2.0))])
    def test_cdf_grids_validates_every_entry(self, cop):
        assert cop.cdf_grids([np.zeros((3, 2)), np.ones((3, 0))]).shape == (3, 2, 0)
        assert cop.cdf_grids([np.zeros((0, 2)), np.ones((0, 1))]).shape == (0, 2, 1)
        with pytest.raises(DimensionError):
            cop.cdf_grids([[0.5], [0.5]])
        with pytest.raises(DimensionError):
            cop.cdf_grids([np.zeros((2, 1)), np.zeros((3, 1))])
        with pytest.raises(DimensionError):
            cop.cdf_grids([np.zeros((2, 1))])
        # padding is checked like any other level
        with pytest.raises(DomainError):
            cop.cdf_grids([[[0.5, 0.2], [0.5, 1.5]], [[0.5], [0.5]]])
        with pytest.raises(DomainError):
            cop.cdf_grids([[[0.5, 0.2], [0.5, float("nan")]], [[0.5], [0.5]]])

    @pytest.mark.parametrize("cop", [independence(2), clayton(2.0), EMPIRICAL_ZOO[2], SurvivalCopula(gumbel(1.5))])
    def test_nan_is_a_domain_error(self, cop):
        # the pointwise path used to return a value and the grid path NaN
        nan = float("nan")
        for c in (cop, SurvivalCopula(cop)):
            with pytest.raises(DomainError):
                c.cdf([nan, 0.5])
            with pytest.raises(DomainError):
                c.cdf([[0.2, 0.3], [0.5, nan]])
            with pytest.raises(DomainError):
                c.cdf_grid([[nan], [0.5]])
            with pytest.raises(DomainError):
                c.cdf_grid([[0.1, 0.9], [0.5, nan]])

    @pytest.mark.parametrize("wraps", [0, 1, 2])
    @pytest.mark.parametrize(
        "cop", family_zoo(2) + [EMPIRICAL_ZOO[2], clayton(2.0, 6)], ids=lambda c: f"{c.family}-{c.dim}"
    )
    def test_pointwise_cdf_owns_its_values(self, cop, wraps):
        # a survival evaluation of one chunk returned a view of its whole base
        # grid: 1 000 points at d = 6 kept 512 KB alive for 8 KB of values
        c = _survival_wraps(cop, wraps)
        rng = np.random.default_rng(5)
        # uniform levels, a tenth of them replaced by 0s and 1s
        pts = rng.uniform(size=(1000, c.dim))
        corners = rng.uniform(size=pts.shape) < 0.1
        pts[corners] = rng.integers(0, 2, size=corners.sum())
        got = c.cdf(pts)
        assert got.flags.owndata
        assert got.tobytes() == c.cdf_grids([pts[:, [j]] for j in range(c.dim)]).reshape(len(pts)).tobytes()

    @pytest.mark.parametrize(
        "cop",
        [clayton(2.0, 3), frank(5.0, 2), independence(4), comonotone(1), EMPIRICAL_ZOO[2], EMPIRICAL_ZOO[3]]
        + [_survival_wraps(c, w) for w in (1, 2) for c in (frank(5.0, 2), comonotone(1), EMPIRICAL_ZOO[3])],
    )
    def test_pointwise_cdf_is_one_grid_evaluation(self, monkeypatch, cop):
        calls = []
        base_grid = Copula._grid

        def spy(self, axes):
            calls.append(tuple(a.shape for a in axes))
            return base_grid(self, axes)

        monkeypatch.setattr(Copula, "_grid", spy)
        assert cop.cdf(np.full((7, cop.dim), 0.5)).shape == (7,)
        assert isinstance(cop.cdf([0.5] * cop.dim), float)
        # n points are one batch of n one-cell grids; each survival wrap
        # appends the level 1 to every axis of its base's one evaluation
        wraps = 0
        while isinstance(cop, SurvivalCopula):
            cop, wraps = cop.base, wraps + 1
        assert calls == [((7, 1 + wraps),) * cop.dim, ((1, 1 + wraps),) * cop.dim]

    def test_empirical_evaluation_of_a_large_sample_peaks_below_the_row_by_row_code(self):
        # m = 100 000: the rank-count cdf of 200 points peaked at 18.0 MB and
        # the row-by-row histogram of 32 grids of 8 x 8 at 4.0 MB
        rng = np.random.default_rng(11)
        cop = empirical_copula(scenario_set(rng.gamma(2.0, 1.5, size=(100_000, 2))))
        calls = [
            (lambda: cop.cdf(rng.uniform(size=(200, 2))), 18.0e6),
            (lambda: cop.cdf_grids([rng.uniform(size=(32, 8)) for _ in range(2)]), 4.0e6),
        ]
        # 20 000 points of a survival-wrapped empirical copula at d = 6, m = 10:
        # the 2^6 pointwise base rank counts peaked at 7.1 MB
        surv = survival_copula(empirical_copula(scenario_set(rng.gamma(2.0, 1.5, size=(10, 6)))))
        calls.append((lambda: surv.cdf(rng.uniform(size=(20_000, 6))), 7.0e6))
        for call, bound in calls:
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound

    @pytest.mark.parametrize(
        "cop", [clayton(2.0, 1), gumbel(1.5, 1), frank(3.0, 1), frank(1e-12, 1), clayton(2.0), gumbel(1.5), frank(-3.0)]
    )
    @pytest.mark.parametrize("rows", [1, 3])
    def test_parametric_grids_leave_their_levels_unwritten(self, cop, rows):
        # the grid steps run in place on their own buffer; at d = 1 the
        # broadcast is a view of its one input, which must stay untouched
        axes = [np.linspace(0.0, 1.0, 4 + j)[None].repeat(rows, axis=0) for j in range(cop.dim)]
        for a in axes:
            a.setflags(write=False)
        grid = cop._grid(axes)
        assert grid.shape == (rows,) + tuple(4 + j for j in range(cop.dim))
        assert np.all(grid[(slice(None), *(-1,) * cop.dim)] == 1.0)

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("wraps", [1, 2])
    def test_survival_grid_makes_one_base_evaluation(self, monkeypatch, d, wraps):
        calls = []
        base_grid = Copula._grid

        def spy(self, axes):
            calls.append(tuple(a.shape[-1] for a in axes))
            return base_grid(self, axes)

        monkeypatch.setattr(Copula, "_grid", spy)
        cop = _survival_wraps(clayton(2.0, d), wraps)
        axes = [np.linspace(0.1, 0.9, 2 + j) for j in range(d)]
        assert cop.cdf_grid(axes).shape == tuple(len(a) for a in axes)
        # the flipped axes with 1 appended, once more per survival wrap
        assert calls == [tuple(len(a) + wraps for a in axes)]
        # a batch of three grids is still one base evaluation
        calls.clear()
        assert cop.cdf_grids([np.stack([a, a / 2, a / 3]) for a in axes]).shape == (3,) + tuple(len(a) for a in axes)
        assert calls == [tuple(len(a) + wraps for a in axes)]

    @pytest.mark.parametrize("cop", [clayton(2.0), gumbel(1.5), frank(-3.0), comonotone(2), countermonotone_2d()])
    @pytest.mark.parametrize("gs", [(identity(), identity()), (var_step(0.9), cvar_ramp(0.9)), (power(2.0), power(0.5))])
    def test_d2_survival_form_is_the_pointwise_sum_bit_for_bit(self, cop, gs):
        # the d=2 survival form contracts the grid exactly as a pointwise batch
        # reshaped to (n1, n2) would: rows by the second axis' widths, then the
        # first's.  Stored formulation gaps of d=2 parametric runs depend on it.
        # Neighbouring cells at one distorted level are one run: its widths are
        # summed in cell order first, and the run takes one copula value
        rng = np.random.default_rng(9)
        s = scenario_set(np.round(rng.gamma(2.0, 1.5, size=(150, 2)), 1))
        spec = JointRiskSpec(survival_copula(cop), gs)

        def pointwise_sum(levels, widths):
            pts = np.empty((len(levels[0]) * len(levels[1]), 2))
            pts[:, 0] = np.repeat(levels[0], len(levels[1]))
            pts[:, 1] = np.tile(levels[1], len(levels[0]))
            vals = np.asarray(spec.cstar.cdf(pts)).reshape(len(levels[0]), len(levels[1]))
            return float(widths[0] @ (vals @ widths[1]))

        levels, widths, run_levels, run_widths = [], [], [], []
        for i in range(2):
            _, sv, w = marginal_cells(s, i)
            g = np.asarray(gs[i](sv), dtype=float)
            starts = np.flatnonzero(np.concatenate(([True], g[1:] != g[:-1])))
            levels.append(g)
            widths.append(w)
            run_levels.append(g[starts])
            run_widths.append(np.array([np.cumsum(r)[-1] for r in np.split(w, starts[1:])]))
        got = gamma_survival_form(s, spec)
        if cop.family in ("comonotone", "countermonotone"):
            # a mixture of products is summed per component, with no grid:
            # within 1e-13 of the terms' magnitudes at C = 1
            assert abs(got - pointwise_sum(run_levels, run_widths)) <= 1e-13 * np.prod([w.sum() for w in widths])
        else:
            assert got == pointwise_sum(run_levels, run_widths)
        # the per-cell sum differs by the order of its additions only
        per_cell = pointwise_sum(levels, widths)
        assert abs(got - per_cell) <= 1e-13 * abs(per_cell)


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(lambda: Copula("independence", 0), DimensionError, "dimension must be >= 1, got 0", id="dim"),
        # a float or bool dimension built a copula of that dimension, and a
        # string dimension or theta raised a raw TypeError
        pytest.param(lambda: clayton(2.0, 2.5), DimensionError, "dimension must be an integer, got 2.5", id="dim-float"),
        pytest.param(lambda: independence(True), DimensionError, "dimension must be an integer, got True", id="dim-bool"),
        pytest.param(lambda: comonotone("2"), DimensionError, "dimension must be an integer, got '2'", id="dim-str"),
        pytest.param(lambda: clayton("2"), ParameterError, "theta must be a real number, got '2'", id="theta-str"),
        pytest.param(lambda: gumbel(True), ParameterError, "theta must be a real number, got True", id="theta-bool"),
        pytest.param(lambda: Copula("empirical", 2), DataError, "empirical copula requires rank data", id="empirical-ranks"),
        # a theta on a parameter-free family built, and was ignored
        *(
            pytest.param(
                lambda family=family, dim=dim: Copula(family, dim, theta=5.0),
                ParameterError, f"the {family} copula takes no theta, got 5.0", id=f"{family}-theta",
            )
            for family, dim in (("independence", 2), ("comonotone", 3), ("countermonotone", 2))
        ),
        pytest.param(lambda: Copula("bogus", 2).cdf([0.5, 0.5]), ParameterError, "unknown copula family 'bogus'", id="family"),
        pytest.param(lambda: frechet_distances(independence(2), grid_n=1), DomainError, "grid_n must be >= 2, got 1", id="grid_n"),
        pytest.param(
            lambda: fit_archimedean(scenario_set([[1.0, 2.0], [2.0, 1.0]]), "gaussian"),
            FitError, "cannot fit family 'gaussian'; choose one of ('clayton', 'gumbel', 'frank')", id="fit-family",
        ),
        pytest.param(
            lambda: fit_archimedean(scenario_set([1.0, 2.0, 3.0]), "clayton"),
            DimensionError, "fitting requires dimension >= 2", id="fit-dim",
        ),
        pytest.param(
            lambda: fit_archimedean(scenario_set([[1.0, 2.0]]), "clayton"),
            DataError, "fitting requires at least 2 scenarios", id="fit-m",
        ),
        # it used to return 0.0 at grid_n 0 and 1, and NaN below
        *(
            pytest.param(
                lambda n=n: gof_distance(independence(2), clayton(2.0), grid_n=n),
                DomainError, f"grid_n must be >= 2, got {n}", id=f"gof-grid_n={n}",
            )
            for n in (1, -1)
        ),
        # an infinite theta passed every range test, and a NaN passed Frank's
        *(
            pytest.param(
                lambda make=make, theta=theta: make(theta),
                ParameterError, f"{make.__name__.capitalize()} requires a finite theta, got {theta}",
                id=f"{make.__name__}-{theta}",
            )
            for make in (clayton, gumbel, frank)
            for theta in (float("nan"), float("inf"), float("-inf"))
        ),
    ],
)
def test_validation_raises_its_typed_error(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


def test_python_and_numpy_numbers_are_valid_dimensions_and_thetas():
    for dim in (3, np.int64(3), np.intp(3)):
        assert clayton(2.0, dim).dim == 3
    for theta in (2, 2.0, np.int64(2), np.float32(2.0), np.float64(2.0)):
        assert clayton(theta).cdf([0.5, 0.5]) == clayton(2.0).cdf([0.5, 0.5])
    # a parameter-free family takes an explicit theta=None
    for family in ("independence", "comonotone", "countermonotone"):
        assert Copula(family, 2, theta=None).cdf([0.5, 0.5]) == Copula(family, 2).cdf([0.5, 0.5])


_BAND = jointrisk.ConfidenceBand(0.9, 0.99)
# every caller of the unit grid, each returning what grid_n decides
_GRID_N_CALLS = {
    "frechet_distances": lambda n: frechet_distances(clayton(2.0), n),
    "gof_distance": lambda n: gof_distance(independence(2), clayton(2.0), n),
    "blend_diagnostics": lambda n: jointrisk.blend_diagnostics(clayton(2.0), _BAND, n),
    "varcvar_spec_factory": lambda n: jointrisk.varcvar_spec_factory(_BAND, "var", n)(clayton(2.0)).distortions[0].alpha,
    "mixture_var_cvar": lambda n: jointrisk.mixture_var_cvar(
        scenario_set([[1.0, 2.0], [2.0, 1.0]]), clayton(2.0), _BAND, "var", n
    ).components,
}


@pytest.mark.parametrize("grid_n", [2.5, 10.0, np.float64(10.0), "5", True])
@pytest.mark.parametrize("call", _GRID_N_CALLS.values(), ids=_GRID_N_CALLS)
def test_grid_n_must_be_an_integer(call, grid_n):
    # a float reached np.linspace, a string the comparison with 2, and True read as 1
    with pytest.raises(DomainError) as info:
        call(grid_n)
    assert str(info.value) == f"grid_n must be an integer, got {grid_n!r}"


@pytest.mark.parametrize("call", _GRID_N_CALLS.values(), ids=_GRID_N_CALLS)
def test_numpy_integer_grid_n_is_accepted(call):
    assert call(np.int64(10)) == call(10)


# the callers that take a copula of dimension 1, where no grid is built
_BLEND_CALLS = {
    "blend_diagnostics": lambda c, n: jointrisk.blend_diagnostics(c, _BAND, n),
    "alpha_c": lambda c, n: jointrisk.alpha_c(c, _BAND, n),
    "varcvar_spec_factory": lambda c, n: jointrisk.varcvar_spec_factory(_BAND, "var", n)(c).distortions[0].alpha,
    "mixture_var_cvar": lambda c, n: jointrisk.mixture_var_cvar(
        scenario_set(np.array([[1.0, 2.0], [2.0, 1.0]])[:, : c.dim]), c, _BAND, "var", n
    ).components,
}


@pytest.mark.parametrize(
    "grid_n, message",
    [
        (2.5, "grid_n must be an integer, got 2.5"),
        ("5", "grid_n must be an integer, got '5'"),
        (True, "grid_n must be an integer, got True"),
        (1, "grid_n must be >= 2, got 1"),
        (np.int64(0), "grid_n must be >= 2, got 0"),
    ],
)
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("call", _BLEND_CALLS.values(), ids=_BLEND_CALLS)
def test_grid_n_is_checked_in_every_dimension(call, dim, grid_n, message):
    # at d = 1 these returned normally, while every d >= 2 call raised
    with pytest.raises(DomainError) as info:
        call(clayton(2.0, dim), grid_n)
    assert str(info.value) == message


@pytest.mark.parametrize("call", _BLEND_CALLS.values(), ids=_BLEND_CALLS)
def test_grid_n_at_dimension_one_changes_nothing(call):
    cop = clayton(2.0, 1)
    # repr, since blend_diagnostics reports NaN distances at d = 1
    assert repr(call(cop, np.int64(2))) == repr(call(cop, 60)) == repr(call(cop, None))


@st.composite
def diagonal_case(draw):
    """A copula of any of the seven families (d = 2-5) under 0-2 survival wraps, and a grid resolution."""
    base, _ = draw(st.one_of(frechet_case(), empirical_frechet_case()))
    return _survival_wraps(base, draw(st.sampled_from((0, 1, 2)))), draw(st.integers(2, 60))


def _pointwise_blend(cop, grid_n: int) -> dict[str, float]:
    """blend_diagnostics with the unit grid's diagonal evaluated by the pointwise cdf."""
    axis = np.linspace(0.0, 1.0, grid_n + 1)
    d_ul = float(np.max(axis - np.maximum(functools.reduce(np.add, [axis] * cop.dim) - (cop.dim - 1), 0.0)))
    d_uc = float(max(np.max(axis - cop.cdf(np.repeat(axis[:, None], cop.dim, axis=1))), 0.0))
    theta = min(max(d_uc / d_ul, 0.0), 1.0)
    level = theta * _BAND.alpha1 + (1.0 - theta) * _BAND.alpha2
    return {"d_ul": d_ul, "d_uc": d_uc, "theta_c": theta, "alpha_c": level}


@settings(max_examples=300, deadline=None)
@given(case=diagonal_case())
@example(case=(countermonotone_2d(), 60))
@example(case=(SurvivalCopula(SurvivalCopula(frank(-3.0))), 2))
@example(case=(survival_copula(_tied_empirical(5)), 60))
def test_frechet_diagonal_equals_the_pointwise_cdf_bit_for_bit(case):
    # a parametric diagonal is the batch of one-cell grids cdf evaluates; an
    # empirical one sums each point's scenario weights in another order
    cop, grid_n = case
    expected = _pointwise_blend(cop, grid_n)
    got = jointrisk.blend_diagnostics(cop, _BAND, grid_n)
    assert [v.hex() for v in frechet_distances(cop, grid_n)] == [got["d_ul"].hex(), got["d_uc"].hex()]
    base = cop
    while isinstance(base, SurvivalCopula):
        base = base.base
    if base.family == copula.EMPIRICAL:
        assert got == pytest.approx(expected, rel=0, abs=1e-14)
    else:
        assert {k: v.hex() for k, v in got.items()} == {k: v.hex() for k, v in expected.items()}
