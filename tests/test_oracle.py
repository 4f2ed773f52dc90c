"""Exact rational sums of the survival and ls forms, against the factored float path.

Losses are multiples of 1/256 of either sign, below 256 in magnitude, and
the weights are integers summing to a power of two, so every survival
level, mid-rank, distorted level and survival flip the float path reads is
exact (the distortions are ``identity``, ``var`` and ``cvar`` at alpha 1/2
or 3/4, and ``power:2``), while products and sums of them need more than
53 bits.  The float path's
only error is then the rounding of its sums and products, which must stay
within a few eps of the sum of the terms' magnitudes.  The reference sums are made with
``fractions.Fraction``: the survival form over every tuple of step-level
entries with each axis' signed cell weights, the ls form over every atom
with its 2^d-term increment, each coupling from its definition.
"""

import functools
import itertools
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from jointrisk import (
    JointRiskSpec,
    comonotone,
    countermonotone_2d,
    cvar_ramp,
    empirical_copula,
    gamma_forms,
    identity,
    independence,
    power,
    scenario_set,
    var_step,
)
from jointrisk.copula import SurvivalCopula

EPS = np.finfo(float).eps


def _fractions(losses, weights):
    """Each column's sorted distinct values, exact tails P(X > v) and the normalized weights."""
    total = sum(weights)
    w = [Fraction(x, total) for x in weights]
    columns = []
    for col in zip(*losses):
        values = sorted(set(col))
        tails = [sum((wk for wk, x in zip(w, col) if x > v), Fraction(0)) for v in values]
        columns.append((values, tails))
    return columns, w


def _mid_ranks(rows, weights):
    """Exact scaled mid-ranks of each scenario: the weight below plus half the tied weight."""
    total = sum(weights)
    w = [Fraction(x, total) for x in weights]
    ranks = []
    for col in zip(*rows):
        ranks.append([
            sum((wk for wk, y in zip(w, col) if y < x), Fraction(0))
            + sum((wk for wk, y in zip(w, col) if y == x), Fraction(0)) / 2
            for x in col
        ])
    return [tuple(r) for r in zip(*ranks)], w


def _base(choice, d, rows, weights):
    """The copula of ``choice`` from its definition, on tuples of Fractions."""
    if choice == "independence":
        return lambda u: functools.reduce(lambda a, b: a * b, u, Fraction(1))
    if choice == "comonotone":
        return min
    if choice == "countermonotone":
        return lambda u: max(u[0] + u[1] - 1, Fraction(0))
    ranks, w = _mid_ranks(rows, weights)
    return lambda u: sum((wk for wk, r in zip(w, ranks) if all(ri <= ui for ri, ui in zip(r, u))), Fraction(0))


def _survival(c, d):
    """The survival copula: the probability that every U_i > 1 - v_i, by inclusion-exclusion."""
    def surv(v):
        total = Fraction(0)
        for mask in itertools.product((False, True), repeat=d):
            point = tuple(1 - vi if m else Fraction(1) for vi, m in zip(v, mask))
            total += (-1) ** sum(mask) * c(point)
        return total

    return surv


def _distortion(kind, alpha):
    if kind == "identity":
        return identity(), lambda u: u
    if kind == "var":
        return var_step(float(alpha)), lambda u: Fraction(0) if u <= 1 - alpha else Fraction(1)
    if kind == "cvar":
        return cvar_ramp(float(alpha)), lambda u: min(u / (1 - alpha), Fraction(1))
    return power(2.0), lambda u: u * u


@st.composite
def oracle_case(draw):
    """Dyadic losses and power-of-two weight totals, a factored coupling under 0-2 wraps, exact distortions.

    The losses (in 256ths) come from a few values per case, so columns tie;
    in half the cases some may be negative, and 0 is one of them in some
    cases.
    """
    d = draw(st.integers(1, 3))
    m = draw(st.integers(1, {1: 8, 2: 6, 3: 4}[d]))
    low = draw(st.sampled_from((1, -(1 << 16))))
    pool = draw(st.lists(st.integers(low, 1 << 16).filter(bool), min_size=1, max_size=4))
    pool += draw(st.sampled_from(([], [0])))
    losses = draw(st.lists(st.lists(st.sampled_from(pool), min_size=d, max_size=d), min_size=m, max_size=m))
    weights = draw(st.lists(st.integers(1, 1000), min_size=m, max_size=m))
    weights[-1] += (1 << max(sum(weights) - 1, 1).bit_length()) - sum(weights)
    choices = ["independence", "comonotone", "empirical"] + (["countermonotone"] if d == 2 else [])
    choice = draw(st.sampled_from(choices))
    k = draw(st.integers(2, 6))
    rows = draw(st.lists(st.lists(st.integers(0, 3), min_size=d, max_size=d), min_size=k, max_size=k))
    rank_weights = draw(st.lists(st.integers(1, 4), min_size=k, max_size=k))
    rank_weights[-1] += (1 << max(sum(rank_weights) - 1, 1).bit_length()) - sum(rank_weights)
    wraps = draw(st.integers(0, 2))
    kinds = [draw(st.sampled_from(("identity", "var", "cvar", "power"))) for _ in range(d)]
    alpha = draw(st.sampled_from((Fraction(1, 2), Fraction(3, 4))))
    return d, losses, weights, choice, rows, rank_weights, wraps, kinds, alpha


def _product(xs):
    return functools.reduce(lambda a, b: a * b, xs, Fraction(1))


def _exact_forms(d, losses, weights, choice, rows, rank_weights, wraps, gs):
    """((survival form, its sum of |terms|), (ls form, its sum of |terms|)), each summed exactly."""
    columns, _ = _fractions(losses, weights)
    cstar = _base(choice, d, rows, rank_weights)
    # a survival wrap applied twice gives the copula back (radial involution)
    if wraps % 2:
        cstar = _survival(cstar, d)
    cstar = functools.lru_cache(maxsize=None)(cstar)

    # survival form: entry 0 of an axis is level 1, entry j + 1 the tail of
    # value j; a cell of [0, max) weighs its width at the entry of its level,
    # a cell of [min, 0) its width there and minus its width at entry 0
    axes = []
    for values, tails in columns:
        omega = {}
        for j, v in enumerate(values):
            if v > 0:
                left = max(values[j - 1], 0) if j else 0
                omega[j] = omega.get(j, 0) + Fraction(v - left, 256)
            elif v < 0:
                right = min(values[j + 1], 0) if j + 1 < len(values) else 0
                omega[j + 1] = omega.get(j + 1, 0) + Fraction(right - v, 256)
                omega[0] = omega.get(0, 0) - Fraction(right - v, 256)
        axes.append([(w, tails[e - 1] if e else Fraction(1)) for e, w in omega.items()])
    terms = [
        _product(w for w, _ in entry) * cstar(tuple(g(lv) for g, (_, lv) in zip(gs, entry)))
        for entry in itertools.product(*axes)
    ]
    survival = (sum(terms, Fraction(0)), sum(map(abs, terms), Fraction(0)))

    # ls form: an atom per tuple of values, its mass the increment over the levels below and at it
    terms = []
    for atom in itertools.product(*(range(len(values)) for values, _ in columns)):
        coords = [Fraction(columns[i][0][j], 256) for i, j in enumerate(atom)]
        below = [gs[i](columns[i][1][j - 1] if j else Fraction(1)) for i, j in enumerate(atom)]
        at = [gs[i](columns[i][1][j]) for i, j in enumerate(atom)]
        mass = sum(
            (-1) ** sum(mask) * cstar(tuple(a if m else b for a, b, m in zip(at, below, mask)))
            for mask in itertools.product((False, True), repeat=d)
        )
        terms.append(_product(coords) * mass)
    ls = (sum(terms, Fraction(0)), sum(map(abs, terms), Fraction(0)))
    return survival, ls


@settings(max_examples=150, deadline=None)
@given(case=oracle_case())
def test_factored_forms_are_within_a_few_eps_of_the_exact_sums(case):
    d, losses, weights, choice, rows, rank_weights, wraps, kinds, alpha = case
    float_gs, exact_gs = zip(*(_distortion(k, alpha) for k in kinds))
    if choice == "empirical":
        cop = empirical_copula(scenario_set(np.array(rows, float), np.array(rank_weights, float)))
    else:
        cop = {"independence": independence, "comonotone": comonotone}.get(choice, lambda d: countermonotone_2d())(d)
    for _ in range(wraps):
        cop = SurvivalCopula(cop)
    s = scenario_set(np.array(losses, float) / 256.0, np.array(weights, float))
    got = gamma_forms(s, JointRiskSpec(cop, float_gs))
    want = _exact_forms(d, losses, weights, choice, rows, rank_weights, wraps, exact_gs)
    # the terms can have either sign: the bound is on the sum of their magnitudes
    for g, (w, magnitude) in zip(got, want):
        assert abs(Fraction(g) - w) <= 4 * EPS * magnitude
