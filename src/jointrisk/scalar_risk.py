"""Scalar joint risk of a nonnegative portfolio under a copula-and-distortion spec.

The measure assigns ``integral of C*(g_1(S_1(t_1)), ..., g_d(S_d(t_d))) dt`` to
a portfolio: marginal tail probabilities are reweighted by per-component
distortions and coupled through a copula ``C*``.  On discrete scenario data
the integrand is piecewise constant on the tensor grid of marginal
breakpoints, so every formulation below is an exact finite sum, not a
quadrature approximation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .copula import CopulaLike, _broadcast, survival_copula
from .distortion import ConfidenceBand, alpha_c, build_distortions
from .errors import DataError, DimensionError, DomainError, ParameterError, TruncationError
from .portfolio import (
    ScenarioSet,
    _step_groups,
    cell_table,
    pi_comonotone_split,
    scenario_set,
)

DistortionLike = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True, eq=False)
class JointRiskSpec:
    """A concrete measure: the coupling copula ``cstar`` plus one distortion per marginal.

    Distortions act elementwise on arrays of any shape: the batched survival
    form calls each one once on a (P, n) table of levels, zero-padded.
    """

    cstar: CopulaLike
    distortions: tuple[DistortionLike, ...]

    def __post_init__(self):
        object.__setattr__(self, "distortions", tuple(self.distortions))
        if len(self.distortions) != self.cstar.dim:
            raise DimensionError(
                f"spec has {len(self.distortions)} distortions for a "
                f"{self.cstar.dim}-dimensional coupling copula"
            )

    @property
    def dim(self) -> int:
        return self.cstar.dim


def _check_inputs(portfolios: Sequence[ScenarioSet], spec: JointRiskSpec) -> None:
    """Every dimension first, then one nonnegativity scan over all the losses (P >= 1)."""
    for s in portfolios:
        if s.dim != spec.dim:
            raise DimensionError(f"portfolio dimension {s.dim} != spec dimension {spec.dim}")
    # written so that a NaN fails the test
    if not np.concatenate([s.losses for s in portfolios]).min() >= 0.0:
        raise DataError(
            "negative losses are outside the nonnegative evaluator; "
            "use the signed two-dimensional form"
        )


def _contract(vals: np.ndarray, weights: Sequence[np.ndarray]) -> np.ndarray:
    """Per batch row, the sum of a grid of copula values times the product of per-axis weights.

    ``vals`` has shape (G, n_0, ..., n_{d-1}) and ``weights[i]`` (G, n_i);
    returns shape (G,).  numpy calls BLAS once per batch row, with the same
    operand shapes as a grid of its own, so row g equals the contraction of
    grid g alone bit for bit.
    """
    batch, n0 = weights[0].shape
    # a contiguous copy of a sub-grid: a strided one can take numpy's own
    # matmul loop instead of BLAS, which rounds differently
    vals = np.ascontiguousarray(vals).reshape(batch, n0, -1)
    # weights of the trailing axes in the grid's row-major order
    if len(weights) > 1:
        tail_w = _broadcast(np.multiply, weights[1:]).reshape(batch, -1)
    else:
        tail_w = np.ones((batch, 1))
    return (weights[0][:, None, :] @ (vals @ tail_w[..., None])).reshape(batch)


def gamma_survival_form(s: ScenarioSet, spec: JointRiskSpec) -> float:
    """Exact cell sum of the distorted joint tail integrand over the breakpoint grid.

    The integrand is evaluated at each cell's lower-left corner (consistent
    with right-continuous step survival functions), making the value exact.
    Complexity is the product of the marginal breakpoint counts.
    """
    return gamma_survival_forms([s], spec)[0]


def gamma_survival_forms(portfolios: Sequence[ScenarioSet], spec: JointRiskSpec) -> list[float]:
    """:func:`gamma_survival_form` of every portfolio, from one batched grid.

    One cell table covers every column of every portfolio, each distortion
    is called once on its axis' rows (a 2-D array), and the coupling copula
    is evaluated once on the padded batch of grids.  Each value is
    contracted on its own cells only, so it equals the value computed alone
    bit for bit.  Portfolios with no positive loss in some marginal get 0.
    """
    if not portfolios:
        return []
    _check_inputs(portfolios, spec)
    out = [0.0] * len(portfolios)
    # one cell table over every column: rows i * P to (i + 1) * P hold
    # column i of the P portfolios
    n_port = len(portfolios)
    _, survival, widths, counts = cell_table(
        [s.losses[:, i] for i in range(spec.dim) for s in portfolios],
        [s.weights for _ in range(spec.dim) for s in portfolios],
    )
    counts = counts.reshape(spec.dim, n_port)
    # padding levels are 0; rows of portfolios without cells are evaluated
    # with the others and left out of the contraction
    levels = [
        np.asarray(g(survival[i * n_port : (i + 1) * n_port, :n]), dtype=float)
        for i, (g, n) in enumerate(zip(spec.distortions, counts.max(axis=1)))
    ]
    grids = spec.cstar.cdf_grids(levels)
    # portfolios with the same cell counts are contracted as one batch
    groups: dict[tuple[int, ...], list[int]] = {}
    for p, n in enumerate(map(tuple, counts.T.tolist())):
        if all(n):
            groups.setdefault(n, []).append(p)
    for n, rows in groups.items():
        rows = np.array(rows)
        cells = grids[(rows, *(slice(0, k) for k in n))]
        weights = [widths[i * n_port + rows, :k] for i, k in enumerate(n)]
        for p, value in zip(rows.tolist(), _contract(cells, weights).tolist()):
            out[p] = value
    return out


def gamma_ls_form(s: ScenarioSet, spec: JointRiskSpec) -> float:
    """Atom-measure formulation: sum of (prod of coordinates) times atom mass.

    The induced measure on the loss grid is recovered through the alternating
    2^d-term increment of the distorted joint survival function over each
    atom's enclosing cell.  Agrees with :func:`gamma_survival_form` up to
    floating-point accumulation.

    The coupling copula is evaluated once, on ``g([1, tail_0, ..., tail_{n-1}])``
    per axis: the levels at each step are that vector's last n entries and
    the levels just below it its first n, so every term of the increment is
    a sub-grid of the one tensor.
    """
    _check_inputs([s], spec)
    d = s.dim
    # the steps of every marginal from one pass over the columns
    values, tails, _, first = _step_groups([s.losses[:, i] for i in range(d)], [s.weights] * d)
    bounds = [*first.tolist(), len(values)]
    levels, coords = [], []
    for i, g in enumerate(spec.distortions):
        tail = tails[bounds[i] : bounds[i + 1]]
        levels.append(np.asarray(g(np.concatenate(([1.0], tail))), dtype=float))
        coords.append(values[None, bounds[i] : bounds[i + 1]])
    grid = spec.cstar.cdf_grid(levels)
    at, below = slice(1, None), slice(0, -1)
    total = 0.0
    for mask in itertools.product((False, True), repeat=d):
        sign = -1.0 if sum(mask) % 2 else 1.0
        term = grid[tuple(at if m else below for m in mask)]
        total += sign * float(_contract(term[None], coords)[0])
    return total


def _dyadic_round(losses: np.ndarray, n: int) -> np.ndarray:
    """Largest grid multiple j/2^n strictly below each loss, capped at n - 2^-n."""
    scale = 2.0**n
    top = n * 2**n - 1
    counts = np.clip(np.ceil(losses * scale) - 1.0, 0.0, top)
    return counts / scale


def gamma_dyadic(s: ScenarioSet, spec: JointRiskSpec, n: int) -> float:
    """Dyadic staircase approximation at resolution 2^-n and truncation level n.

    Equals the normalized sum of the distorted tail weights over the dyadic
    grid, computed exactly by rounding each loss down onto the grid.  The
    value increases with ``n`` and is sandwiched between the exact measures of
    the clamped portfolios returned by :func:`dyadic_bounds`.
    """
    _check_inputs([s], spec)
    if n < 1:
        raise DomainError(f"dyadic resolution must be a positive integer, got {n}")
    max_loss = float(s.losses.max(initial=0.0))
    if n < max_loss:
        raise TruncationError(
            f"truncation level n={n} is below the maximum loss {max_loss:g}"
        )
    return gamma_survival_form(s.with_losses(_dyadic_round(s.losses, n)), spec)


def dyadic_bounds(s: ScenarioSet, spec: JointRiskSpec, n: int) -> tuple[float, float]:
    """Exact lower/upper envelopes sandwiching :func:`gamma_dyadic` at level ``n``."""
    _check_inputs([s], spec)
    eps = 2.0**-n
    lower = np.minimum(s.losses, float(n)) - np.minimum(s.losses, eps)
    upper = np.minimum(s.losses, n - eps)
    low, high = gamma_survival_forms([s.with_losses(lower), s.with_losses(upper)], spec)
    return low, high


def varcvar_spec_factory(
    band: ConfidenceBand,
    kinds: str | Sequence[str] = "var",
    grid_n: int | None = None,
) -> Callable[[CopulaLike], JointRiskSpec]:
    """Specs coupling the survival copula with tail distortions at the blended level.

    ``kinds`` is ``"var"`` or ``"cvar"`` applied to every component, or one
    kind per component; any other kind raises ParameterError.  The blended
    confidence level is recomputed per copula from its distance to the upper
    Frechet-Hoeffding bound.
    """

    def factory(c: CopulaLike) -> JointRiskSpec:
        gs = build_distortions(kinds, alpha_c(c, band, grid_n), c.dim, tail_only=True)
        return JointRiskSpec(survival_copula(c), gs)

    return factory


# ---------------------------------------------------------------------------
# executable axiom checks


REL_TOL = 1e-9
ABS_FLOOR = 1e-12

AXIOM_DESCRIPTIONS = {
    "A1": "componentwise positive scaling multiplies the measure by the product of the scales",
    "A2": "rank-preserving componentwise loss increases never decrease the measure",
    "A3": "the measure of a sum of comonotone splits equals the sum over all mixed recombinations",
    "A4": "measures of clamped portfolios increase to the measure of the full portfolio",
    "A5": "all alternating measure increments over comonotone-coupled pairs are nonnegative",
    "A6": "scenario permutations and weight-preserving relabelings leave the measure unchanged",
}


@dataclass
class AxiomCheck:
    axiom: str
    description: str
    passed: bool
    worst_violation: float
    witness: dict | None = None

    def as_dict(self) -> dict:
        return {
            "axiom": self.axiom,
            "description": self.description,
            "passed": self.passed,
            "worst_violation": self.worst_violation,
            "witness": self.witness,
        }


@dataclass
class AxiomReport:
    seed: int
    trials: int
    checks: tuple[AxiomCheck, ...] = field(default_factory=tuple)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, axiom: str) -> AxiomCheck:
        for c in self.checks:
            if c.axiom == axiom:
                return c
        raise KeyError(axiom)

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "trials": self.trials,
            "all_passed": self.all_passed,
            "checks": [c.as_dict() for c in self.checks],
        }


def random_portfolio(
    rng: np.random.Generator,
    dim: int,
    max_m: int = 8,
    denom: int = 16,
    max_num: int = 63,
) -> ScenarioSet:
    """Random nonnegative portfolio with tie-free exact-rational losses.

    Each marginal draws distinct numerators without replacement over a common
    power-of-two denominator, so halving and quartering stay exact and ties
    only appear when a transform deliberately introduces them.
    """
    m = int(rng.integers(2, max_m + 1))
    cols = [
        rng.choice(np.arange(1, max_num + 1), size=m, replace=False) / denom
        for _ in range(dim)
    ]
    return scenario_set(np.column_stack(cols))


def _rel_gap(a: float, b: float) -> float:
    scale = max(abs(a), abs(b), ABS_FLOOR)
    return abs(a - b) / scale


def _mixed_portfolios(y: ScenarioSet, z: ScenarioSet):
    """All 2^d recombinations picking each column from y or z (y-pick count first)."""
    d = y.dim
    for mask in itertools.product((False, True), repeat=d):
        cols = [y.losses[:, i] if mask[i] else z.losses[:, i] for i in range(d)]
        yield sum(mask), y.with_losses(np.column_stack(cols))


def _rank_preserving_increase(rng: np.random.Generator, s: ScenarioSet) -> ScenarioSet:
    """A strictly increasing per-column map with h(x) >= x and reshuffled gaps.

    Non-uniform bumps shrink some inter-value gaps while growing others, so
    the increase genuinely reweights integration cells instead of just
    stretching the domain (an affine map could never expose a non-monotone
    distortion).  All arithmetic stays on the exact rational grid.
    """
    cols = []
    for i in range(s.dim):
        values = np.unique(s.losses[:, i])
        bumps = rng.choice(np.array([0.0, 0.25, 0.5, 1.0]), size=len(values))
        newv = values + bumps
        for j in range(1, len(newv)):
            if newv[j] <= newv[j - 1]:
                newv[j] = newv[j - 1] + 0.0625
        idx = np.searchsorted(values, s.losses[:, i])
        cols.append(newv[idx])
    return s.with_losses(np.column_stack(cols))


def _single_cell_squeeze(rng: np.random.Generator, s: ScenarioSet) -> ScenarioSet:
    """Move one interior breakpoint of one column almost onto its right neighbor.

    Shifts integration width from that breakpoint's cell onto the cell to its
    left while every loss still increases; a measure built from a monotone
    distortion cannot decrease under this, a non-monotone one generically
    does.
    """
    i = int(rng.integers(0, s.dim))
    values = np.unique(s.losses[:, i])
    if len(values) < 3:
        return s.with_losses(s.losses + 0.25)
    j = int(rng.integers(1, len(values) - 1))
    newv = values.copy()
    newv[j] = values[j] + (values[j + 1] - values[j]) * 0.9375
    idx = np.searchsorted(values, s.losses[:, i])
    losses = s.losses.copy()
    losses[:, i] = newv[idx]
    return s.with_losses(losses)


def axiom_suite(
    spec_factory: Callable[[CopulaLike], JointRiskSpec],
    copulas: Sequence[CopulaLike],
    trials: int = 100,
    seed: int = 0,
    rel_tol: float = REL_TOL,
) -> AxiomReport:
    """Run all six executable axiom checks against randomly generated portfolios.

    ``spec_factory`` maps a declared dependence copula to the concrete measure
    under test; ``copulas`` are cycled over the trials.  All comparisons are
    relative at ``rel_tol`` (absolute floor 1e-12).  Deterministic given
    ``seed``; the seed is recorded in the report.
    """
    if trials < 1:
        raise ParameterError(f"axiom_suite needs trials >= 1, got {trials}")
    if not copulas:
        raise DataError("axiom_suite needs at least one copula")
    dim = copulas[0].dim
    for c in copulas:
        if c.dim != dim:
            raise DimensionError("all copulas passed to axiom_suite must share one dimension")
    rng = np.random.default_rng(seed)
    specs = {i: spec_factory(c) for i, c in enumerate(copulas)}
    for sp in specs.values():
        if sp.dim != dim:
            raise DimensionError("spec_factory produced a spec of mismatched dimension")

    worst = {a: (0.0, None) for a in AXIOM_DESCRIPTIONS}

    def note(axiom: str, violation: float, witness: dict) -> None:
        if violation > worst[axiom][0]:
            worst[axiom] = (violation, witness)

    scale_pool = np.array([0.25, 0.5, 0.75, 1.25, 1.5, 2.0, 3.0])

    for t in range(trials):
        ci = t % len(copulas)
        spec = specs[ci]
        # every portfolio of the trial is drawn first, in the suite's fixed
        # rng order, then all are evaluated in one batch
        s = random_portfolio(rng, dim)
        c_vec = rng.choice(scale_pool, size=dim)
        bigger = _rank_preserving_increase(rng, s)
        squeezed = _single_cell_squeeze(rng, s)
        clamps = []
        for i in range(dim):
            vals = np.unique(s.losses[:, i])
            clamps.append(float(vals[rng.integers(0, len(vals))] if len(vals) > 1 else vals[0] * 0.5))
        y, z = pi_comonotone_split(s, clamps=clamps)
        col_max = s.losses.max(axis=0)
        perm = rng.permutation(s.m)
        split_losses = np.vstack([s.losses[perm], s.losses[perm][:1]])
        w = s.weights[perm]
        split_w = np.concatenate(([w[0] / 2.0], w[1:], [w[0] / 2.0]))
        relabeled = scenario_set(split_losses, split_w, s.names)

        increments = list(_mixed_portfolios(bigger, s))
        splits = [p for _, p in _mixed_portfolios(y, z)]
        clamped = [s.with_losses(np.minimum(s.losses, frac * col_max[None, :])) for frac in (0.25, 0.5, 0.75, 1.0)]
        batch = [s, s.with_losses(s.losses * c_vec[None, :]), bigger, squeezed]
        batch += [p for _, p in increments] + splits + clamped + [relabeled]
        gammas = iter(gamma_survival_forms(batch, spec))
        base = next(gammas)
        info = {"trial": t, "copula_index": ci, "m": s.m}

        # A1: componentwise positive homogeneity
        lhs, rhs = next(gammas), float(np.prod(c_vec)) * base
        note("A1", _rel_gap(lhs, rhs), {**info, "scales": c_vec.tolist(), "lhs": lhs, "rhs": rhs})

        # A2 / A5 share a rank-preserving dominating portfolio; the targeted
        # single-cell squeeze widens A2's reach to locally non-monotone specs
        gamma_bigger = next(gammas)
        scale = max(abs(base), abs(gamma_bigger), ABS_FLOOR)
        note(
            "A2",
            max(0.0, (base - gamma_bigger) / scale),
            {**info, "gamma_low": base, "gamma_high": gamma_bigger},
        )
        gamma_squeezed = next(gammas)
        note(
            "A2",
            max(0.0, (base - gamma_squeezed) / max(abs(base), abs(gamma_squeezed), ABS_FLOOR)),
            {**info, "gamma_low": base, "gamma_high": gamma_squeezed, "perturbation": "cell_squeeze"},
        )

        increment = 0.0
        for n_base_picks, _ in increments:
            pick_sign = -1.0 if (dim - n_base_picks) % 2 else 1.0
            increment += pick_sign * next(gammas)
        note("A5", max(0.0, -increment / scale), {**info, "increment": increment})

        # A3: comonotone clamp split, compare against all mixed recombinations
        mixed_total = sum(next(gammas) for _ in splits)
        note("A3", _rel_gap(base, mixed_total), {**info, "clamps": clamps, "sum": mixed_total, "gamma": base})

        # A4: clamp sequences increase to the full portfolio
        seq = [next(gammas) for _ in clamped]
        mono_viol = max(
            max(0.0, (seq[j] - seq[j + 1]) / max(abs(seq[j + 1]), ABS_FLOOR))
            for j in range(len(seq) - 1)
        )
        note("A4", max(mono_viol, _rel_gap(seq[-1], base)), {**info, "sequence": seq, "gamma": base})

        # A6: permutation plus weight-preserving scenario split
        note("A6", _rel_gap(base, next(gammas)), info)

    checks = tuple(
        AxiomCheck(
            axiom=a,
            description=AXIOM_DESCRIPTIONS[a],
            passed=worst[a][0] <= rel_tol,
            worst_violation=worst[a][0],
            witness=worst[a][1] if worst[a][0] > rel_tol else None,
        )
        for a in ("A1", "A2", "A3", "A4", "A5", "A6")
    )
    return AxiomReport(seed=seed, trials=trials, checks=checks)
