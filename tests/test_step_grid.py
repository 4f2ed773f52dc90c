"""The step grid evaluates the coupling once per run of equal distorted levels.

``gamma_forms`` and ``gamma_signed_2d`` must give the same floats as one
coupling grid over every entry of every axis' step levels, on losses of
either sign, with the survival form's runs and cell widths picked out of
it; the survival form must equal the atom-measure form; and on merged
levels the coupling must be asked for one level per run only.  A coupling
that ``contract`` factors makes no grid: its values are the grid's within
1e-13 of the terms' magnitudes, the grid's own rounding.
"""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jointrisk import (
    JointRiskSpec,
    clayton,
    comonotone,
    countermonotone_2d,
    cvar_ramp,
    empirical_copula,
    frank,
    gamma_forms,
    gamma_signed_2d,
    gumbel,
    identity,
    independence,
    power,
    scenario_set,
    survival_copula,
    var_step,
)
from jointrisk.copula import Copula, SurvivalCopula, _mixture
from jointrisk.portfolio import marginal_cells, marginal_steps
from jointrisk.scalar_risk import _contract
from reference import level_runs, rise_and_fall


def _full_step_grid(s, spec):
    """``(grid, levels, values, cut, widths)`` with the coupling evaluated at every entry of every axis."""
    levels, values, cut, widths = [], [], [], []
    for i, g in enumerate(spec.distortions):
        v, tail = marginal_steps(s, i)
        w = marginal_cells(s, i)[2]
        levels.append(np.asarray(g(np.concatenate(([1.0], tail))), dtype=float))
        values.append(v)
        cut.append(slice(len(v) - len(w), len(v)))
        widths.append(w)
    return spec.cstar.cdf_grid(levels), levels, values, cut, widths


def _survival_over_cut(grid, levels, cut, widths):
    """The survival form off a full step grid: each run's first cut entry times the run's summed widths.

    An axis with no cell, or whose runs' widths all cancel to 0, makes the value 0.
    """
    if not all(w.size for w in widths):
        return 0.0
    picks, run_widths = zip(*(level_runs(lv[c], w) for lv, c, w in zip(levels, cut, widths)))
    if not all(w.any() for w in run_widths):
        return 0.0
    cells = grid[np.ix_(*(c.start + p for c, p in zip(cut, picks)))]
    return float(_contract(cells[None], [w[None] for w in run_widths])[0])


def _forms_reference(s, spec):
    grid, levels, values, cut, widths = _full_step_grid(s, spec)
    at, below = slice(1, None), slice(0, -1)
    total = 0.0
    for mask in itertools.product((False, True), repeat=s.dim):
        sign = -1.0 if sum(mask) % 2 else 1.0
        term = grid[tuple(at if m else below for m in mask)]
        total += sign * float(_contract(term[None], [v[None] for v in values])[0])
    return _survival_over_cut(grid, levels, cut, widths), total


def _signed_weights(values):
    """Each axis' span of level entries holding its survival-form cells, and the cells' widths.

    A column whose lowest value is negative has a cell at every entry but
    its last (level g(0)): at entry 0 (level g(1) = 1) of width that lowest
    value, at entry j of width v_j - v_(j-1).  Any other column has one
    cell per positive value, the step up to it from the value below it or
    from 0.
    """
    spans, weights = [], []
    for v in values:
        if v[0] < 0.0:
            spans.append(slice(0, len(v)))
            weights.append(np.concatenate(([v[0]], np.diff(v))))
        else:
            edges = np.concatenate(([0.0], v[v > 0.0]))
            spans.append(slice(len(v) + 1 - len(edges), len(v)))
            weights.append(np.diff(edges))
    return spans, weights


def _signed_reference(s, spec):
    """The survival form's cells of either sign contracted with the full step grid, run by run."""
    grid, levels, values, _, _ = _full_step_grid(s, spec)
    return _survival_over_cut(grid, levels, *_signed_weights(values))


def _same_float(a, b):
    return np.array_equal(a, b, equal_nan=True) and np.signbit(a) == np.signbit(b)


def _matches(cop, got, want, weights):
    """Bit for bit on a grid; for a factored coupling within 1e-13 of the product of the summed |weights|."""
    if _mixture(cop) is None:
        return _same_float(got, want)
    return abs(got - want) <= 1e-13 * np.prod([np.abs(w).sum() for w in weights])


_TIED_WEIGHTED = empirical_copula(scenario_set([[0.0, 1.0, 1.0], [1.0, 1.0, 2.0], [1.0, 2.0, 0.0], [2.0, 0.0, 1.0]], [1.0, 3.0, 2.0, 1.0]))
KINDS = (identity(), var_step(0.5), var_step(0.9), cvar_ramp(0.6), cvar_ramp(0.95), power(2.0), power(0.5), rise_and_fall)


@st.composite
def step_case(draw, signed=False):
    """A portfolio of dimension 1-4 and a spec over any coupling.

    Losses come from small pools, so columns tie (some of either sign when
    ``signed``, some at zero), and one pool's widths are
    not dyadic, so a run's summed widths depend on the order of their
    additions; a column may be all zero.
    Some weights differ.  The coupling is any family, including the
    empirical copula of tied and weighted data (Frank with theta < 0 and
    countermonotone at d = 2 only), bare or survival-wrapped once or twice;
    each axis takes its own distortion.
    """
    d = draw(st.integers(1, 4))
    pools = ([0.0, 1.0, 2.5], [0.5, 1.0, 1.5, 2.0, 3.0, 4.25], [0.1, 0.3, 0.7, 1.3, 2.9, 3.7])
    if signed:
        pools = ([-2.0, -0.5, 0.0, 1.0, 2.5], [-1.5, -0.25, 0.75, 3.0], *pools[1:])
    pool = draw(st.sampled_from(pools))
    m = draw(st.integers(1, {1: 12, 2: 10, 3: 6, 4: 4}[d]))
    losses = np.array(draw(st.lists(st.sampled_from(pool), min_size=m * d, max_size=m * d))).reshape(m, d)
    if draw(st.integers(0, 4)) == 0:
        losses[:, draw(st.integers(0, d - 1))] = 0.0
    weights = None if draw(st.booleans()) else np.array(draw(st.lists(st.integers(1, 4), min_size=m, max_size=m)), float)
    families = ["independence", "comonotone", "clayton", "gumbel", "frank", "empirical"]
    choice = draw(st.sampled_from(families + ["countermonotone"] if d == 2 else families))
    if choice == "empirical":
        rng = np.random.default_rng(draw(st.integers(0, 3)))
        base = np.round(rng.uniform(0, 3, size=(12, d)))
        base_weights = rng.integers(1, 4, size=12).astype(float) if draw(st.booleans()) else None
        cop = empirical_copula(scenario_set(base, base_weights))
    elif choice == "countermonotone":
        cop = countermonotone_2d()
    elif choice in ("independence", "comonotone"):
        cop = {"independence": independence, "comonotone": comonotone}[choice](d)
    else:
        thetas = {"clayton": (0.5, 3.0), "gumbel": (1.0, 2.5), "frank": (-3.0, 0.5, 3.0) if d == 2 else (0.5, 3.0)}
        cop = {"clayton": clayton, "gumbel": gumbel, "frank": frank}[choice](draw(st.sampled_from(thetas[choice])), d)
    for _ in range(draw(st.integers(0, 2))):
        cop = survival_copula(cop)
    return scenario_set(losses, weights), JointRiskSpec(cop, tuple(draw(st.sampled_from(KINDS)) for _ in range(d)))


@settings(max_examples=300, deadline=None)
@given(case=st.booleans().flatmap(lambda signed: step_case(signed=signed)))
# axis 0's levels 1, 0.1, 0.4, 0.7, 0.9, 1, 1, 0.9, 0.8, 0.6, 0.3: the two
# 0.9s and the 1s apart from the neighbouring pair are runs of their own
@example(case=(
    scenario_set(np.column_stack([np.arange(1.0, 11.0), np.tile([1.0, 2.0], 5)])),
    JointRiskSpec(survival_copula(clayton(3.0)), (rise_and_fall, cvar_ramp(0.6))),
))
# ramp, step and identity axes over a tied, weighted empirical coupling
@example(case=(
    scenario_set([[0.5, 1.0, 0.5], [1.0, 1.0, 2.0], [2.0, 0.5, 1.0], [3.0, 2.0, 2.0]], [1.0, 2.0, 1.0, 3.0]),
    JointRiskSpec(survival_copula(_TIED_WEIGHTED), (cvar_ramp(0.6), var_step(0.5), identity())),
))
def test_gamma_forms_equal_the_full_grid_bit_for_bit(case):
    # losses of either sign: the survival form takes the cells of either
    # sign, which on nonnegative losses are the cut's widths
    s, spec = case
    got = gamma_forms(s, spec)
    _, _, values, cut, widths = _full_step_grid(s, spec)
    spans, weights = _signed_weights(values)
    # marginal_cells gives the cells of either sign, bit for bit
    assert cut == spans
    assert [w.tobytes() for w in widths] == [w.tobytes() for w in weights]
    assert _matches(spec.cstar, got[0], _signed_reference(s, spec), weights)
    assert _matches(spec.cstar, got[1], _forms_reference(s, spec)[1], values)


@settings(max_examples=300, deadline=None)
@given(case=step_case(signed=True))
def test_gamma_signed_2d_equals_the_full_grid_bit_for_bit(case):
    s, spec = case
    weights = _signed_weights(_full_step_grid(s, spec)[2])[1]
    assert _matches(spec.cstar, gamma_signed_2d(s, spec), _signed_reference(s, spec), weights)


@settings(max_examples=300, deadline=None)
@given(case=step_case(signed=True))
def test_gamma_signed_2d_equals_the_atom_measure_form(case):
    # the ls reference needs no sign restriction: the sum over atoms of the
    # product of their coordinates times the 2^d increment of the full step
    # grid; every integrand lies in [-1, 1], so the area of the smallest box
    # holding 0 and every scenario sets the scale of the cancellation
    s, spec = case
    got, want = gamma_signed_2d(s, spec), _forms_reference(s, spec)[1]
    area = np.prod(s.losses.max(axis=0).clip(min=0.0) - s.losses.min(axis=0).clip(max=0.0))
    assert abs(got - want) <= 1e-11 * area


def _spied_levels(monkeypatch):
    """Record the level counts of every single grid asked of a copula."""
    asked = []
    for cls in (Copula, SurvivalCopula):
        def spy(self, axes, _grid=cls.cdf_grid):
            asked.append(tuple(len(a) for a in axes))
            return _grid(self, axes)

        monkeypatch.setattr(cls, "cdf_grid", spy)
    return asked


@pytest.mark.parametrize("choice", ["clayton", "empirical"])
def test_var_step_grid_asks_for_at_most_two_levels_per_axis(monkeypatch, choice):
    # a var step flattens the step levels to 1s then 0s: two runs per axis
    s = scenario_set(np.random.default_rng(7).uniform(0.0, 10.0, size=(400, 2)))
    cop = clayton(2.0) if choice == "clayton" else empirical_copula(s)
    asked = _spied_levels(monkeypatch)
    gamma_forms(s, JointRiskSpec(survival_copula(cop), (var_step(0.9), var_step(0.9))))
    if choice == "empirical":
        assert asked == []  # summed per scenario, with no grid
    else:
        assert len(asked) == 1 and max(asked[0]) <= 2


def test_identity_grid_asks_for_every_entry(monkeypatch):
    # identity levels are distinct on every step: nothing merges
    s = scenario_set(np.random.default_rng(7).uniform(0.0, 10.0, size=(400, 2)))
    asked = _spied_levels(monkeypatch)
    gamma_forms(s, JointRiskSpec(survival_copula(clayton(2.0)), (identity(), identity())))
    assert asked == [tuple(len(marginal_steps(s, i)[0]) + 1 for i in range(2))] == [(401, 401)]
