import numpy as np
import pytest

from jointrisk import (
    DataError,
    DimensionError,
    DomainError,
    comonotone_transform,
    cvar,
    empirical_copula,
    gof_distance,
    joint_survival,
    marginal_survival,
    pi_comonotone_split,
    scenario_set,
    var,
)
from jointrisk.portfolio import marginal_cells, marginal_steps, steps


def two_point():
    return scenario_set([[1.0], [3.0]])


def deciles():
    return scenario_set(np.arange(1.0, 11.0)[:, None])


class TestConstruction:
    def test_weight_normalization(self):
        s = scenario_set([[1.0], [2.0]], weights=[1.0, 3.0])
        assert s.weights.sum() == pytest.approx(1.0)
        assert s.weights[1] == pytest.approx(0.75)

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(DataError):
            scenario_set([[1.0], [2.0]], weights=[0.5, 0.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(DataError):
            scenario_set([[np.inf]])

    def test_nonnegative_flag(self):
        assert scenario_set([[0.0, 2.0]]).nonnegative
        assert not scenario_set([[-0.1, 2.0]]).nonnegative

    def test_nonnegative_flag_follows_replacement_losses(self):
        s = scenario_set([[0.0, 2.0], [1.0, 3.0]])
        assert s.nonnegative
        assert not s.with_losses(s.losses - 1.0).nonnegative
        assert s.with_losses(s.losses).nonnegative
        assert s.nonnegative

    def test_replacement_losses_are_a_read_only_copy(self):
        # a later write into the caller's array must not reach the set or its caches
        s = scenario_set([[0.0, 0.0], [0.0, 0.0]])
        a = np.array([[1.0, 3.0], [2.0, 4.0]])
        t = s.with_losses(a)
        values, tail = marginal_steps(t, 0)
        assert values.tolist() == [1.0, 2.0] and t.nonnegative
        a[0, 0] = -5.0
        assert t.losses.tolist() == [[1.0, 3.0], [2.0, 4.0]]
        assert not t.losses.flags.writeable
        assert marginal_steps(t, 0)[0].tolist() == [1.0, 2.0]
        assert marginal_steps(t, 0)[1].tolist() == tail.tolist()
        assert t.nonnegative


class TestMarginalSurvival:
    def test_between_atoms(self):
        assert marginal_survival(two_point(), 0, 2.0) == 0.5

    def test_below_minimum(self):
        assert marginal_survival(two_point(), 0, 0.5) == 1.0

    def test_at_maximum_is_zero(self):
        assert marginal_survival(two_point(), 0, 3.0) == 0.0

    def test_integral_recovers_mean(self):
        # independent exact step-sum oracle: sum of S at left edges times widths
        rng = np.random.default_rng(8)
        s = scenario_set(rng.integers(0, 30, size=(12, 1)).astype(float), rng.uniform(0.5, 2, 12))
        values, tail = marginal_steps(s, 0)
        edges = np.concatenate(([0.0], values[values > 0]))
        sv = np.array([marginal_survival(s, 0, e) for e in edges[:-1]])
        integral = float(sv @ np.diff(edges))
        assert integral == pytest.approx(float(s.weights @ s.losses[:, 0]), rel=1e-12)

    def test_steps_match_the_unique_reference(self):
        # ties, unequal weights, a constant column and a signed column with -0.0
        rng = np.random.default_rng(12)
        m = 60
        losses = np.column_stack([
            np.round(rng.gamma(2.0, 1.5, size=m), 0),
            np.full(m, 3.0),
            rng.choice([-1.0, -0.0, 0.0, 2.5], size=m),
        ])
        s = scenario_set(losses, rng.integers(1, 5, size=m).astype(float))
        for i in range(s.dim):
            order = np.argsort(s.losses[:, i], kind="stable")
            ref_values, start = np.unique(s.losses[order, i], return_index=True)
            group_w = np.add.reduceat(s.weights[order], start)
            ref_tail = np.maximum(1.0 - (np.concatenate(([0.0], np.cumsum(group_w)[:-1])) + group_w), 0.0)
            ref_tail[-1] = 0.0
            values, tail = marginal_steps(s, i)
            assert np.array_equal(values, ref_values)
            assert np.array_equal(tail, ref_tail)

    def test_cell_table_columns_match_the_unique_reference(self):
        # columns of different lengths: ties, unequal weights, a constant
        # column, signed columns with -0.0, one with no positive loss (no
        # cell) and a single scenario
        rng = np.random.default_rng(13)
        columns = [
            np.round(rng.gamma(2.0, 1.5, size=60), 0),
            np.full(7, 3.0),
            rng.choice([-1.0, -0.0, 0.0, 2.5, 4.0], size=40),
            np.array([-2.0, -0.0, 0.0, -2.0]),
            np.array([5.5]),
            rng.choice([-3.0, -1.0, 0.5, 0.75], size=25),
        ]
        weights = [rng.integers(1, 5, size=len(c)).astype(float) for c in columns]
        weights = [w / w.sum() for w in weights]
        table = steps(np.concatenate(columns), [len(c) for c in columns], np.concatenate(weights))
        survival, widths, counts = table.cell_table()
        assert survival.shape == widths.shape == (len(columns), max(counts))
        assert len(table.columns()) == len(table.cells()) == len(columns)
        for k, (col, w) in enumerate(zip(columns, weights)):
            order = np.argsort(col, kind="stable")
            values, start = np.unique(col[order], return_index=True)
            group_w = np.add.reduceat(w[order], start)
            tail = np.maximum(1.0 - (np.concatenate(([0.0], np.cumsum(group_w)[:-1])) + group_w), 0.0)
            tail[-1] = 0.0
            for got, expected in zip(table.columns()[k], (values, tail)):
                assert np.array_equal(got, expected)
            edges = np.concatenate(([0.0], values[values > 0.0]))
            idx = np.searchsorted(values, edges[:-1], side="right") - 1
            ref = (edges[:-1], np.where(idx >= 0, tail[np.maximum(idx, 0)], 1.0), np.diff(edges))
            for got, expected in zip(table.cells()[k], ref):
                assert np.array_equal(got, expected)
            n = counts[k]
            assert n == len(edges) - 1
            for padded, expected in zip((survival, widths), ref[1:]):
                assert np.array_equal(padded[k, :n], expected)
                assert not np.any(padded[k, n:])
            s = scenario_set(col[:, None], w)
            for got, expected in zip(marginal_cells(s, 0), ref):
                assert np.array_equal(got, expected)

    def test_cached_steps_are_read_only(self):
        s = scenario_set([[1.0, 2.0], [3.0, 2.0], [1.0, 5.0]], weights=[1.0, 2.0, 3.0])
        values, tail = marginal_steps(s, 0)
        with pytest.raises(ValueError):
            marginal_steps(s, 0)[1][0] = 0.5
        with pytest.raises(ValueError):
            values[0] = 0.5
        again = marginal_steps(s, 0)
        assert np.array_equal(again[0], values) and np.array_equal(again[1], tail)
        assert np.array_equal(again[0], [1.0, 3.0]) and again[1][-1] == 0.0

    def test_index_error(self):
        with pytest.raises(DimensionError):
            marginal_survival(two_point(), 3, 1.0)


class TestJointSurvival:
    def test_comonotone_pairs(self):
        s = scenario_set([[1.0, 1.0], [3.0, 3.0]])
        assert joint_survival(s, [2.0, 2.0]) == 0.5

    def test_below_all_minima(self):
        s = scenario_set([[1.0, 1.0], [3.0, 3.0]])
        assert joint_survival(s, [0.0, 0.5]) == 1.0

    def test_product_set_factorizes(self):
        xs, ys = [1.0, 4.0], [2.0, 5.0]
        rows = [(x, y) for x in xs for y in ys]
        s = scenario_set(rows)
        for t in ([0.5, 3.0], [2.0, 2.0], [1.0, 4.9]):
            expect = marginal_survival(s, 0, t[0]) * marginal_survival(s, 1, t[1])
            assert joint_survival(s, t) == pytest.approx(expect, abs=1e-15)

    def test_bounded_by_marginals(self):
        rng = np.random.default_rng(2)
        s = scenario_set(rng.normal(size=(15, 3)))
        for _ in range(20):
            t = rng.normal(size=3)
            js = joint_survival(s, t)
            for i in range(3):
                assert js <= marginal_survival(s, i, t[i]) + 1e-15


class TestVarCvar:
    def test_var_decile_example(self):
        assert var(deciles(), 0, 0.85) == 9.0

    def test_var_below_first_weight(self):
        assert var(deciles(), 0, 0.05) == 1.0

    def test_var_two_point_at_half(self):
        assert var(two_point(), 0, 0.5) == 1.0

    def test_cvar_decile_example(self):
        assert cvar(deciles(), 0, 0.8) == pytest.approx(9.5, abs=1e-12)

    def test_cvar_point_mass(self):
        s = scenario_set([[7.0]])
        for a in (0.1, 0.5, 0.99):
            assert cvar(s, 0, a) == pytest.approx(7.0)

    def test_cvar_two_point_at_half(self):
        assert cvar(two_point(), 0, 0.5) == pytest.approx(3.0)

    def test_cvar_degenerate_tail_returns_max(self):
        assert cvar(deciles(), 0, 0.95) == pytest.approx(10.0)

    def test_cvar_dominates_var_and_both_monotone(self):
        rng = np.random.default_rng(4)
        s = scenario_set(rng.uniform(0, 50, size=(9, 1)), rng.uniform(0.2, 1, 9))
        alphas = np.linspace(0.05, 0.95, 19)
        vs = [var(s, 0, a) for a in alphas]
        cs = [cvar(s, 0, a) for a in alphas]
        assert all(c >= v - 1e-12 for v, c in zip(vs, cs))
        assert all(b >= a - 1e-12 for a, b in zip(vs, vs[1:]))
        assert all(b >= a - 1e-12 for a, b in zip(cs, cs[1:]))


class TestComonotoneTransform:
    def test_identity_map(self):
        s = scenario_set([[1.0, 2.0], [3.0, 1.0]])
        t = comonotone_transform(s, [lambda x: x, lambda x: x])
        np.testing.assert_array_equal(t.losses, s.losses)

    def test_doubling_preserves_ranks(self):
        s = scenario_set([[1.0], [3.0]])
        t = comonotone_transform(s, [lambda x: 2 * x])
        np.testing.assert_array_equal(t.losses[:, 0], [2.0, 6.0])

    def test_clamp_pair_keeps_empirical_copula(self):
        # strictly increasing on the attained range, built from two clamps
        s = scenario_set([[1.0, 5.0], [2.0, 3.0], [4.0, 1.0]])
        maps = [
            lambda x: np.minimum(x, 10.0) - np.minimum(x, 0.0),
            lambda x: np.minimum(x, 9.0) - np.minimum(x, -1.0),
        ]
        t = comonotone_transform(s, maps)
        assert gof_distance(empirical_copula(t), empirical_copula(s), 10) == 0.0

    def test_rejects_nonmonotone(self):
        s = scenario_set([[1.0], [3.0]])
        with pytest.raises(DataError):
            comonotone_transform(s, [lambda x: -x])

    def test_rejects_merging_when_preserving(self):
        s = scenario_set([[1.0], [2.0], [3.0]])
        with pytest.raises(DataError):
            comonotone_transform(s, [lambda x: np.minimum(x, 1.5)])
        t = comonotone_transform(s, [lambda x: np.minimum(x, 1.5)], preserve_copula=False)
        np.testing.assert_array_equal(t.losses[:, 0], [1.0, 1.5, 1.5])


class TestPiComonotoneSplit:
    def test_default_split_halves(self):
        s = scenario_set([[1.0, 4.0], [3.0, 2.0]])
        y, z = pi_comonotone_split(s)
        np.testing.assert_array_equal(y.losses, s.losses / 2)
        np.testing.assert_array_equal(y.losses + z.losses, s.losses)

    def test_clamp_split_reassembles_exactly(self):
        rng = np.random.default_rng(9)
        s = scenario_set(rng.uniform(0, 20, size=(11, 3)))
        clamps = np.median(s.losses, axis=0)
        y, z = pi_comonotone_split(s, clamps=clamps)
        np.testing.assert_array_equal(y.losses + z.losses, s.losses)
        assert np.all(y.losses <= clamps[None, :] + 1e-15)
        assert np.all(z.losses >= 0.0)

    def test_default_split_shares_empirical_copula(self):
        rng = np.random.default_rng(10)
        s = scenario_set(rng.uniform(1, 9, size=(8, 2)))
        y, z = pi_comonotone_split(s)
        e = empirical_copula(s)
        assert gof_distance(empirical_copula(y), e, 8) == 0.0
        assert gof_distance(empirical_copula(z), e, 8) == 0.0

    def test_parts_are_comonotone_per_marginal(self):
        rng = np.random.default_rng(12)
        s = scenario_set(rng.uniform(0, 10, size=(7, 2)))
        y, z = pi_comonotone_split(s, clamps=[4.0, 6.0])
        for i in range(2):
            dy = y.losses[:, i][:, None] - y.losses[:, i][None, :]
            dz = z.losses[:, i][:, None] - z.losses[:, i][None, :]
            assert np.all(dy * dz >= -1e-15)


_PAIR = scenario_set([[1.0, 2.0], [3.0, 4.0]])


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(
            lambda: _PAIR.with_losses(np.ones((2, 3))),
            DimensionError, "replacement losses have shape (2, 3), expected (2, 2)", id="with_losses",
        ),
        pytest.param(
            lambda: scenario_set(np.ones((2, 2, 2))),
            DataError, "losses must be a non-empty (m, d) matrix, got shape (2, 2, 2)", id="losses-3d",
        ),
        pytest.param(
            lambda: scenario_set(np.ones((0, 2))),
            DataError, "losses must be a non-empty (m, d) matrix, got shape (0, 2)", id="losses-empty",
        ),
        pytest.param(
            lambda: scenario_set([[1.0, 2.0]], weights=[1.0, 1.0]),
            DataError, "weights must have shape (1,), got (2,)", id="weights",
        ),
        pytest.param(lambda: scenario_set([[1.0, 2.0]], names=["a"]), DataError, "expected 2 names, got 1", id="names"),
        pytest.param(
            lambda: joint_survival(_PAIR, [1.0]),
            DimensionError, "threshold must have shape (2,), got (1,)", id="threshold",
        ),
        *(
            pytest.param(
                lambda f=f, alpha=alpha: f(_PAIR, 0, alpha),
                DomainError, f"confidence level must lie in (0, 1), got {alpha}", id=f"{f.__name__}-{alpha}",
            )
            for f in (var, cvar)
            for alpha in (0.0, 1.0, float("nan"))
        ),
        pytest.param(lambda: comonotone_transform(_PAIR, [np.sqrt]), DimensionError, "expected 2 maps, got 1", id="maps"),
        pytest.param(
            lambda: comonotone_transform(_PAIR, [np.sqrt, lambda v: v[:1]]),
            DataError, "map 1 must be a pointwise transform of the breakpoints", id="map-pointwise",
        ),
        pytest.param(
            lambda: pi_comonotone_split(_PAIR, clamps=[1.0]),
            DimensionError, "expected 2 clamp levels, got shape (1,)", id="clamps",
        ),
    ],
)
def test_validation_raises_its_typed_error(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


def test_one_dimensional_losses_are_a_single_asset():
    s = scenario_set([3.0, 1.0, 2.0])
    assert s.losses.shape == (3, 1)
    assert s.names == ("x1",)
    assert var(s, 0, 0.5) == 2.0
