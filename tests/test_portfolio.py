import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jointrisk import (
    DataError,
    DimensionError,
    DomainError,
    JointRiskSpec,
    cvar,
    empirical_copula,
    gamma_forms,
    gamma_signed_2d,
    gamma_survival_form,
    gof_distance,
    identity,
    independence,
    scenario_set,
    var,
)
from jointrisk.portfolio import column_order, marginal_cells, marginal_steps, steps
from reference import clamp_split, marginal_survival


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "evaluate",
        [
            lambda s: gamma_signed_2d(s, JointRiskSpec(independence(2), (identity(),) * 2)),
            lambda s: gamma_forms(s, JointRiskSpec(independence(2), (identity(),) * 2)),
            lambda s: gamma_survival_form(s, JointRiskSpec(independence(2), (identity(),) * 2)),
            lambda s: var(s, 0, 0.5),
        ],
        ids=["gamma_signed_2d", "gamma_forms", "gamma_survival_form", "var"],
    )
    def test_replacement_losses_must_be_finite(self, evaluate, bad):
        # as scenario_set rejects them: a NaN gave a finite survival form
        # and a NaN ls form, an inf an infinite survival form
        s = scenario_set([[1.0, 2.0], [3.0, 4.0]])
        losses = s.losses.copy()
        losses[1, 0] = bad
        with pytest.raises(DataError, match="finite"):
            evaluate(s.with_losses(losses))
        assert evaluate(s.with_losses(s.losses)) == evaluate(s)


class TestMarginalSurvival:
    def test_between_atoms(self):
        assert marginal_survival(two_point(), 0, 2.0) == 0.5

    def test_below_minimum(self):
        assert marginal_survival(two_point(), 0, 0.5) == 1.0

    def test_at_maximum_is_zero(self):
        assert marginal_survival(two_point(), 0, 3.0) == 0.0

    def test_infinite_thresholds_and_numpy_indices_are_valid(self):
        s = two_point()
        assert marginal_survival(s, np.int64(0), -np.inf) == 1.0
        assert marginal_survival(s, np.intp(0), [np.inf, 2.0]).tolist() == [0.0, 0.5]
        assert var(s, np.int32(0), 0.5) == var(s, 0, 0.5)

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

    def test_flat_cells_match_the_unique_reference(self):
        # columns of different lengths: ties, unequal weights, a constant
        # column, signed columns with -0.0, one with no positive loss, a
        # single scenario and one of zeros only (no cell)
        rng = np.random.default_rng(13)
        columns = [
            np.round(rng.gamma(2.0, 1.5, size=60), 0),
            np.full(7, 3.0),
            rng.choice([-1.0, -0.0, 0.0, 2.5, 4.0], size=40),
            np.array([-2.0, -0.0, 0.0, -2.0]),
            np.array([5.5]),
            rng.choice([-3.0, -1.0, 0.5, 0.75], size=25),
            np.array([-0.0, 0.0, 0.0]),
        ]
        weights = [rng.integers(1, 5, size=len(c)).astype(float) for c in columns]
        weights = [w / w.sum() for w in weights]
        table = steps(np.concatenate(columns), [len(c) for c in columns], np.concatenate(weights))
        # the flat cells are every column's cells, concatenated column by column
        *flat, counts = table._flat_cells()
        assert len(table.columns()) == len(table.cells()) == len(counts) == len(columns)
        assert counts.tolist() == [len(w) for *_, w in table.cells()]
        for got, per_column in zip(flat, zip(*table.cells())):
            assert np.array_equal(got, np.concatenate(per_column))
        for k, (col, w) in enumerate(zip(columns, weights)):
            order = np.argsort(col, kind="stable")
            values, start = np.unique(col[order], return_index=True)
            group_w = np.add.reduceat(w[order], start)
            tail = np.maximum(1.0 - (np.concatenate(([0.0], np.cumsum(group_w)[:-1])) + group_w), 0.0)
            tail[-1] = 0.0
            for got, expected in zip(table.columns()[k], (values, tail)):
                assert np.array_equal(got, expected)
            # the cells of either sign: a column whose lowest value is
            # negative has one per value, the lowest from 0 at survival 1 and
            # of width that value, the others on the step up from the value
            # below; any other column one per positive value, from 0 or the
            # value below
            if values[0] < 0.0:
                ref = (
                    np.concatenate(([0.0], values[:-1])),
                    np.concatenate(([1.0], tail[:-1])),
                    np.concatenate(([values[0]], np.diff(values))),
                )
            else:
                edges = np.concatenate(([0.0], values[values > 0.0]))
                idx = np.searchsorted(values, edges[:-1], side="right") - 1
                ref = (edges[:-1], np.where(idx >= 0, tail[np.maximum(idx, 0)], 1.0), np.diff(edges))
            for got, expected in zip(table.cells()[k], ref):
                assert np.array_equal(got, expected)
            assert counts[k] == len(ref[2])
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


@settings(max_examples=200, deadline=None)
@given(
    lengths=st.lists(st.integers(1, 60), min_size=1, max_size=50),
    pool=st.integers(1, 8),
    as_list=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(lengths=[3, 1, 4], pool=1, as_list=True, seed=0)
@example(lengths=[60] * 50, pool=8, as_list=False, seed=1)
def test_batched_steps_equal_the_lexsort_and_each_column_alone_bit_for_bit(lengths, pool, as_list, seed):
    # ties from a few rounded values, -0.0 beside 0.0, negative losses and
    # unequal weights, each column's weights summing to 1
    rng = np.random.default_rng(seed)
    lens = np.array(lengths)
    firsts = np.cumsum(lens) - lens
    values = rng.choice(np.concatenate(([-0.0, 0.0], rng.normal(0.0, 4.0, size=pool).round(1))), size=lens.sum())
    weights = rng.uniform(0.1, 3.0, size=lens.sum())
    weights /= np.repeat(np.add.reduceat(weights, firsts), lens)
    batched = steps(values, lengths if as_list else lens, weights)
    lexsorted = steps(values, lens, weights, np.lexsort((values, np.repeat(np.arange(len(lens)), lens))))
    # bytes, so that a -0.0 is told from a 0.0
    for field in ("values", "tail", "counts"):
        assert getattr(batched, field).tobytes() == getattr(lexsorted, field).tobytes()
    for k, (col, w) in enumerate(zip(np.split(values, firsts[1:]), np.split(weights, firsts[1:]))):
        alone = steps(col, [len(col)], w, column_order(col))
        assert batched.counts[k] == alone.counts[0]
        for got, expected in zip(batched.columns()[k], alone.columns()[0]):
            assert got.tobytes() == expected.tobytes()


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


class TestPiComonotoneSplit:
    """Comonotone splits: the clamp split behind the additivity references, and halving."""

    def test_clamp_split_reassembles_exactly(self):
        rng = np.random.default_rng(9)
        s = scenario_set(rng.uniform(0, 20, size=(11, 3)))
        clamps = np.median(s.losses, axis=0)
        y, z = clamp_split(s, clamps)
        np.testing.assert_array_equal(y.losses + z.losses, s.losses)
        assert np.all(y.losses <= clamps[None, :] + 1e-15)
        assert np.all(z.losses >= 0.0)

    def test_default_split_shares_empirical_copula(self):
        # the halving split: both halves keep the empirical copula
        rng = np.random.default_rng(10)
        s = scenario_set(rng.uniform(1, 9, size=(8, 2)))
        half = s.losses * 0.5
        y, z = s.with_losses(half), s.with_losses(s.losses - half)
        e = empirical_copula(s)
        assert gof_distance(empirical_copula(y), e, 8) == 0.0
        assert gof_distance(empirical_copula(z), e, 8) == 0.0

    def test_parts_are_comonotone_per_marginal(self):
        rng = np.random.default_rng(12)
        s = scenario_set(rng.uniform(0, 10, size=(7, 2)))
        y, z = clamp_split(s, [4.0, 6.0])
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
        # a bool read a column, a float or string index raised a raw TypeError
        *(
            pytest.param(
                lambda f=f, i=i: f(_PAIR, i),
                DimensionError, f"marginal index must be an integer in [0, 2), got {i!r}", id=f"{name}-index-{i!r}",
            )
            for name, f in (
                ("marginal_steps", marginal_steps),
                ("marginal_cells", marginal_cells),
                ("marginal_survival", lambda s, i: marginal_survival(s, i, 1.0)),
                ("var", lambda s, i: var(s, i, 0.9)),
                ("cvar", lambda s, i: cvar(s, i, 0.9)),
            )
            for i in (True, False, 1.0, 0.5, "0", -1, 2)
        ),
        *(
            pytest.param(
                lambda f=f, alpha=alpha: f(_PAIR, 0, alpha),
                DomainError, f"confidence level must lie in (0, 1), got {alpha}", id=f"{f.__name__}-{alpha}",
            )
            for f in (var, cvar)
            for alpha in (0.0, 1.0, float("nan"))
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
