"""``contract`` of the couplings that factor, against the grid they replace.

The empirical, independence, comonotone and countermonotone copulas, bare or
under survival wraps, are mixtures of product copulas, so ``contract`` sums
them per mixture component and makes no grid.  Their values must match the
grid path (``copula._grid_sums``, or the whole pipeline with ``_mixture``
switched off) within 1e-13 of the terms' magnitudes at C = 1, the product of
each axis' summed |weights|: a survival grid's inclusion-exclusion leaves
residues of a few eps in every cell, so the grid is the less accurate of the
two (``test_oracle.py`` judges the factored values against exact sums).
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jointrisk import (
    DimensionError,
    JointRiskSpec,
    clayton,
    comonotone,
    countermonotone_2d,
    cvar_ramp,
    empirical_copula,
    frechet_distances,
    gamma_forms,
    gamma_signed_2d,
    gamma_survival_forms,
    identity,
    independence,
    power,
    scenario_set,
    var_step,
)
from jointrisk import copula
from jointrisk.copula import SurvivalCopula
from jointrisk.portfolio import marginal_steps
from reference import rise_and_fall, two_row_chunk

KINDS = (identity(), var_step(0.5), var_step(0.9), cvar_ramp(0.6), cvar_ramp(0.95), power(2.0), power(0.5))
# levels that tie, sit on mid-ranks of the couplings below, or at 0 and 1
LEVELS = (0.0, 0.125, 0.25, 1 / 3, 0.375, 0.5, 0.625, 0.7, 0.875, 1.0)


def _wrapped(cop, wraps):
    # SurvivalCopula itself: survival_copula leaves independence bare
    for _ in range(wraps):
        cop = SurvivalCopula(cop)
    return cop


@st.composite
def factored_copula(draw, d):
    """A mixture-of-products coupling of dimension d under 0-2 survival wraps.

    The empirical copula comes from tied, sometimes weighted data, so its
    mid-ranks tie and some equal the levels of ``LEVELS``.
    """
    families = ["independence", "comonotone", "empirical"] + (["countermonotone"] if d == 2 else [])
    choice = draw(st.sampled_from(families))
    if choice == "empirical":
        m = draw(st.integers(2, 12))
        rows = draw(st.lists(st.lists(st.integers(0, 3), min_size=d, max_size=d), min_size=m, max_size=m))
        weights = None if draw(st.booleans()) else draw(st.lists(st.integers(1, 4), min_size=m, max_size=m))
        cop = empirical_copula(scenario_set(np.array(rows, float), weights))
    else:
        cop = {"independence": independence, "comonotone": comonotone}.get(choice, lambda d: countermonotone_2d())(d)
    return _wrapped(cop, draw(st.integers(0, 2)))


@st.composite
def contract_case(draw):
    """A factored coupling of dimension 1-5 and a batch of 1-4 rows of levels and weights.

    An axis' levels are drawn from ``LEVELS`` (so they tie), in their drawn
    order or sorted descending as the survival form's are; weights are of
    either sign, and some are 0.
    """
    d = draw(st.integers(1, 5))
    cop = draw(factored_copula(d))
    rows = draw(st.integers(1, 4))
    top = {1: 12, 2: 8, 3: 5, 4: 4, 5: 3}[d]
    levels, weights = [], []
    for _ in range(d):
        n = draw(st.integers(1, top))
        lv = np.array(draw(st.lists(st.sampled_from(LEVELS), min_size=rows * n, max_size=rows * n))).reshape(rows, n)
        if draw(st.booleans()):
            lv = -np.sort(-lv, axis=1)
        w = draw(st.lists(st.sampled_from((-1.5, -0.25, 0.0, 0.1, 0.5, 1.0, 3.0)), min_size=rows * n, max_size=rows * n))
        levels.append(lv)
        weights.append(np.array(w).reshape(rows, n))
    return cop, levels, weights


def _scale(weights):
    """Per row, the product of each axis' summed |weights|: the terms' magnitudes at C = 1."""
    return np.prod([np.abs(w).sum(axis=1) for w in weights], axis=0)


@settings(max_examples=300, deadline=None)
@given(case=contract_case())
# a level on an empirical mid-rank under one and two wraps
@example(case=(
    SurvivalCopula(empirical_copula(scenario_set([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0], [2.0, 2.0]]))),
    [np.array([[0.625, 0.375, 0.125]]), np.array([[0.5, 0.25]])],
    [np.array([[1.0, -0.25, 3.0]]), np.array([[0.5, 0.1]])],
))
def test_factored_contract_matches_the_grid(case):
    cop, levels, weights = case
    got = cop.contract(levels, weights)
    want = copula._grid_sums(cop, levels, weights)
    assert np.all(np.abs(got - want) <= 1e-13 * _scale(weights))


@settings(max_examples=200, deadline=None)
@given(case=contract_case(), pad=st.integers(0, 3))
def test_contract_rows_equal_rows_alone_bit_for_bit(case, pad):
    # a row alone, and a row padded with zero weights at its last level, as a batch pads it
    cop, levels, weights = case
    got = cop.contract(levels, weights)
    for p in range(len(got)):
        alone = cop.contract([v[p : p + 1] for v in levels], [w[p : p + 1] for w in weights])
        padded = cop.contract(
            [np.concatenate((v[p : p + 1], np.repeat(v[p : p + 1, -1:], pad, axis=1)), axis=1) for v in levels],
            [np.concatenate((w[p : p + 1], np.zeros((1, pad))), axis=1) for w in weights],
        )
        assert got[p] == alone[0] == padded[0]


@st.composite
def chunk_case(draw):
    """A factored coupling of dimension 1-3 and a batch of 0-6 rows: per axis 0-5 levels and weights, and the
    n + 1 atom levels of ``atom_sums``, non-increasing as the ls form's are or in their drawn order."""
    d = draw(st.integers(1, 3))
    cop = draw(factored_copula(d))
    rows = draw(st.integers(0, 6))

    def table(pool, n):
        return np.array(draw(st.lists(st.sampled_from(pool), min_size=rows * n, max_size=rows * n))).reshape(rows, n)

    levels, weights, edges = [], [], []
    for _ in range(d):
        n = draw(st.integers(0, 5))
        levels.append(table(LEVELS, n))
        weights.append(table((-1.5, -0.25, 0.0, 0.1, 0.5, 1.0, 3.0), n))
        e = table(LEVELS, n + 1)
        edges.append(-np.sort(-e, axis=1) if draw(st.booleans()) else e)
    return cop, levels, weights, edges


@settings(max_examples=300, deadline=None)
@given(case=chunk_case())
def test_factored_sums_are_the_same_bits_in_any_chunks(case):
    # every row a chunk, two rows a chunk (an edge inside a batch of three or more), and the default
    cop, levels, weights, edges = case
    rows = len(levels[0])
    for f in (lambda: cop.contract(levels, weights), lambda: copula.atom_sums(cop, edges, weights)):
        want = f()
        assert want.shape == (rows,)
        if not all(w.shape[1] for w in weights):  # an axis with no entries
            assert want.tolist() == [0.0] * rows
        for chunk in (1, two_row_chunk(f)):
            with mock.patch.object(copula, "_CHUNK", chunk):
                assert f().tobytes() == want.tobytes()


@pytest.mark.parametrize("wraps", [0, 1, 2])
@pytest.mark.parametrize(
    "cop",
    [independence(2), comonotone(2), countermonotone_2d(), clayton(2.0), copula.gumbel(1.5), copula.frank(-3.0),
     empirical_copula(scenario_set([[1.0, 2.0], [2.0, 1.0], [3.0, 3.0]]))],
    ids=lambda c: c.family,
)
def test_empty_batches_and_axes_sum_to_nothing(cop, wraps):
    # no rows gives no values; an axis with no entries gives 0.0 in every row
    cop = _wrapped(cop, wraps)
    factors = copula._mixture(cop) is not None
    none = [np.empty((0, 2)), np.empty((0, 3))]
    assert cop.contract(none, none).shape == (0,)
    if factors:
        assert copula.atom_sums(cop, [np.empty((0, 3)), np.empty((0, 4))], none).shape == (0,)
    levels = [np.full((2, 3), 0.5), np.empty((2, 0))]
    weights = [np.ones((2, 3)), np.empty((2, 0))]
    assert cop.contract(levels, weights).tolist() == [0.0, 0.0]
    if factors:
        edges = [np.full((2, 4), 0.5), np.ones((2, 1))]
        assert copula.atom_sums(cop, edges, weights).tolist() == [0.0, 0.0]
    else:
        assert copula.atom_sums(cop, [np.ones((2, 1))] * 2, [np.empty((2, 0))] * 2) is None


@pytest.mark.parametrize("wraps", [0, 1])
@pytest.mark.parametrize("cop", [clayton(2.0), copula.gumbel(1.5), copula.frank(-3.0)], ids=lambda c: c.family)
def test_grid_sums_evaluate_each_row_at_its_own_extent(cop, wraps):
    # rows of extents (5, 1), (1, 5) and (1, 1) in one batch: no row's grid is
    # padded to the 5 x 5 that the batch spans, and every row is the same float
    # as the row contracted alone, and as its cells of the padded grid
    cop = _wrapped(cop, wraps)
    n = 5
    fill = np.full(n - 1, 0.5)
    levels = [
        np.array([[0.9, 0.7, 0.5, 1 / 3, 0.1], [0.6, *fill], [0.4, *fill]]),
        np.array([[0.8, *fill], [0.95, 0.75, 0.55, 0.35, 0.15], [0.2, *fill]]),
    ]
    lone = np.zeros(n - 1)
    weights = [
        np.array([[1.0, -0.5, 2.0, 0.25, 3.0], [1.0, *lone], [1.5, *lone]]),
        np.array([[0.5, *lone], [1.0, 2.0, -1.0, 0.5, 0.1], [2.0, *lone]]),
    ]
    with mock.patch.object(type(cop), "cdf_grids", autospec=True, side_effect=type(cop).cdf_grids) as spy:
        got = cop.contract(levels, weights)
    asked = sorted(tuple(a.shape for a in call.args[1]) for call in spy.call_args_list)
    assert asked == [((1, 1), (1, 1)), ((1, 1), (1, n)), ((1, n), (1, 1))]
    padded = cop.cdf_grids(levels)
    for p, (k0, k1) in enumerate([(n, 1), (1, n), (1, 1)]):
        alone = cop.contract([v[p : p + 1] for v in levels], [w[p : p + 1] for w in weights])
        cells = np.ascontiguousarray(padded[p : p + 1, :k0, :k1])
        assert got[p] == alone[0] == copula._contract(cells, [weights[0][p : p + 1, :k0], weights[1][p : p + 1, :k1]])[0]


@st.composite
def measure_case(draw, signed=False):
    """A portfolio of dimension 1-5, a factored coupling and built-in distortions.

    Losses come from small pools, so columns tie; a column may start at 0 or
    be all zero, and some weights differ.  With ``signed`` the pools hold
    losses of either sign.
    """
    d = draw(st.integers(1, 5))
    pools = ([0.0, 1.0, 2.5], [0.5, 1.0, 1.5, 2.0, 3.0, 4.25], [0.1, 0.3, 0.7, 1.3, 2.9])
    if signed:
        pools = ([-2.0, -0.5, 0.0, 1.0, 2.5], [-1.5, -0.25, 0.75, 3.0])
    pool = draw(st.sampled_from(pools))
    m = draw(st.integers(1, {1: 12, 2: 10, 3: 6, 4: 4, 5: 3}[d]))
    losses = np.array(draw(st.lists(st.sampled_from(pool), min_size=m * d, max_size=m * d))).reshape(m, d)
    col, shape = draw(st.integers(0, d - 1)), draw(st.integers(0, 3))
    if shape == 0:
        losses[:, col] = 0.0  # no cell
    elif shape == 1:
        losses[draw(st.integers(0, m - 1)), col] = 0.0  # cells start one step in
    weights = None if draw(st.booleans()) else np.array(draw(st.lists(st.integers(1, 4), min_size=m, max_size=m)), float)
    spec = JointRiskSpec(draw(factored_copula(d)), tuple(draw(st.sampled_from(KINDS)) for _ in range(d)))
    return scenario_set(losses, weights), spec


def _on_grids(f, *args):
    """``f(*args)`` with every coupling evaluated on grids, as before the factored sums."""
    with mock.patch.object(copula, "_mixture", lambda c: None):
        return f(*args)


def _loss_scale(s):
    """Bounds every form's sum of |terms| at C = 1: each axis' weights sum to at most twice its summed |values|."""
    return np.prod([2.0 * np.abs(marginal_steps(s, i)[0]).sum() for i in range(s.dim)])


@settings(max_examples=300, deadline=None)
@given(case=measure_case())
def test_factored_forms_match_the_grid(case):
    s, spec = case
    scale = _loss_scale(s)
    for got, want in zip(gamma_forms(s, spec), _on_grids(gamma_forms, s, spec)):
        assert abs(got - want) <= 1e-13 * scale
    batched, on_grids = gamma_survival_forms([s, s], spec), _on_grids(gamma_survival_forms, [s, s], spec)
    assert all(abs(a - b) <= 1e-13 * scale for a, b in zip(batched, on_grids))


def test_a_non_monotone_distortion_sums_the_ls_form_by_parts_in_small_memory():
    # per axis sum_i F_i (c_i - c_{i-1}) in one histogram: testing every entry at
    # every bin held (rows, m, n + 1) tables, 68 MB on this portfolio
    rng = np.random.default_rng(7)
    s = scenario_set(rng.integers(1, 10**6, size=(2000, 2)) / 100.0)
    spec = JointRiskSpec(empirical_copula(s), (rise_and_fall, rise_and_fall))
    tracemalloc.start()
    try:
        survival, ls = gamma_forms(s, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    assert abs(ls - survival) <= 1e-13 * _loss_scale(s)


@settings(max_examples=300, deadline=None)
@given(case=measure_case(signed=True))
def test_factored_signed_form_matches_the_grid(case):
    # signed weights: negative cells carry minus their width at entry 0
    s, spec = case
    assert abs(gamma_signed_2d(s, spec) - _on_grids(gamma_signed_2d, s, spec)) <= 1e-13 * _loss_scale(s)


@settings(max_examples=100, deadline=None)
@given(cop=st.integers(2, 5).flatmap(factored_copula), grid_n=st.sampled_from((2, 7, 20)))
def test_factored_d_uc_matches_the_pointwise_diagonal(cop, grid_n):
    # an empirical diagonal is one sort of each scenario's largest (or smallest) rank
    d_ul, d_uc = frechet_distances(cop, grid_n)
    want = _on_grids(frechet_distances, cop, grid_n)
    assert d_ul == want[0]
    assert abs(d_uc - want[1]) <= 1e-13


@pytest.mark.parametrize("cop", [clayton(2.0), independence(2), SurvivalCopula(comonotone(2))])
@pytest.mark.parametrize(
    "levels, weights",
    [
        ([np.full((1, 2), 0.5)], [np.ones((1, 2))]),  # one axis of two
        ([np.full(2, 0.5)] * 2, [np.ones(2)] * 2),  # vectors, not (P, n) arrays
        ([np.full((1, 2), 0.5)] * 2, [np.ones((1, 3))] * 2),  # weights of another shape
        ([np.full((1, 2), 0.5), np.full((2, 2), 0.5)], [np.ones((1, 2)), np.ones((2, 2))]),  # batch sizes differ
    ],
)
def test_contract_rejects_mismatched_arrays(cop, levels, weights):
    with pytest.raises(DimensionError, match="contract needs 2 level and weight arrays"):
        cop.contract(levels, weights)
