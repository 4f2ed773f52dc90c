"""Scalar joint risk of a portfolio under a copula-and-distortion spec.

The measure assigns ``integral of C*(g_1(S_1(t_1)), ..., g_d(S_d(t_d))) dt`` to
a portfolio: marginal tail probabilities are reweighted by per-component
distortions and coupled through a copula ``C*``.  On discrete scenario data
the integrand is piecewise constant on the tensor grid of marginal
breakpoints, so every formulation below is an exact finite sum, not a
quadrature approximation.

Losses may have either sign, except in the dyadic forms, which take
nonnegative losses only.  One evaluator makes the survival form of one or
many portfolios: the cells of every column are one flat list (``Steps``),
and the coupling's ``contract`` takes each axis' runs of equal distorted
levels with the runs' summed widths.  ``gamma_forms`` gives both forms of
one portfolio from one distortion call per axis and one merge of its level
entries into runs.  The empirical, independence, comonotone and
countermonotone couplings, under any survival wraps, factor into one sum
per axis and mixture component, so neither form makes a grid for them, and
their ls form is the atom-measure sum itself (``copula.atom_sums``).
Clayton, Gumbel and Frank couplings stay on the grid of their run levels.
"""

from __future__ import annotations

import copy
import itertools
import sys
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .copula import CopulaLike, _contract, atom_sums, survival_copula
from .distortion import ConfidenceBand, alpha_c, build_distortions
from .errors import DataError, DimensionError, DomainError, ParameterError, TruncationError
from .portfolio import ScenarioSet, Steps, _is_integer, scenario_set, steps

DistortionLike = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True, eq=False)
class JointRiskSpec:
    """A concrete measure: the coupling copula ``cstar`` plus one distortion per marginal.

    Distortions act elementwise on arrays of any shape: the batched survival
    form calls each one once, on the 1-D levels of its axis' cells in every
    portfolio.
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


def _check_dims(portfolios: Sequence[ScenarioSet], spec: JointRiskSpec) -> None:
    # spec.dim walks the coupling's survival wraps: read it once
    dim = spec.dim
    for s in portfolios:
        if s.dim != dim:
            raise DimensionError(f"portfolio dimension {s.dim} != spec dimension {dim}")


def gamma_survival_form(s: ScenarioSet, spec: JointRiskSpec) -> float:
    """Exact cell sum of the distorted joint tail integrand over the breakpoint grid, for losses of either sign.

    The integrand is evaluated at each cell's lower-left corner (consistent
    with right-continuous step survival functions), making the value exact.
    Neighbouring cells at one distorted level share one copula value, so a
    coupling that makes a grid (see ``Copula.contract``) costs the product of
    each axis' distinct distorted levels (its runs of equal levels), not of
    its breakpoint counts; the empirical, independence, comonotone and
    countermonotone couplings make none and cost O(d (m + n)) for an
    m-scenario coupling and n cells per axis.
    """
    return gamma_survival_forms([s], spec)[0]


def gamma_survival_forms(portfolios: Sequence[ScenarioSet], spec: JointRiskSpec) -> list[float]:
    """:func:`gamma_survival_form` of every portfolio: one reads its cached ``steps``, more are stacked."""
    if not portfolios:
        return []
    _check_dims(portfolios, spec)
    if len(portfolios) == 1:
        return _cell_sums(portfolios[0].steps, 1, spec).tolist()
    losses = np.concatenate([s.losses for s in portfolios])
    weights = np.concatenate([s.weights for s in portfolios])
    return _survival_forms(losses, weights, np.array([s.m for s in portfolios]), spec).tolist()


def _survival_forms(losses: np.ndarray, weights: np.ndarray, lengths: np.ndarray, spec: JointRiskSpec) -> np.ndarray:
    """The survival forms of P portfolios stacked row-wise: portfolio p is the next ``lengths[p]`` rows.

    ``weights`` holds each row's weight; one ``steps`` covers every column
    of every portfolio (:func:`_cell_sums`).
    """
    table = steps(losses.T.ravel(), np.tile(lengths, spec.dim), np.tile(weights, spec.dim))
    return _cell_sums(table, len(lengths), spec)


def _cell_sums(table: Steps, n_port: int, spec: JointRiskSpec) -> np.ndarray:
    """The survival forms of P portfolios from the steps of their columns, column i of portfolio p at i P + p.

    Each axis' cells of every portfolio are then one stretch of
    ``table._flat_cells()``, and each distortion is called once, on that
    stretch of survival levels, which its output overwrites.  Portfolios
    with no cell on some axis get 0.  The others' cells are merged into runs
    of one distorted level, each started by a column's first cell or a
    change of level: the integrand depends on t only through the levels, so
    a run needs one copula value, times its widths summed in cell order by
    one ``bincount``.  One ``contract`` of the coupling copula takes the run
    levels and widths as (P, r) tables per axis (past a row's own runs, its
    last level at width 0), and its rows equal the values computed alone
    bit for bit.
    """
    dim = spec.dim
    levels, widths, counts = table._flat_cells()[1:]
    first = counts.cumsum() - counts
    # axis i's cells run from column i P's first cell to column (i + 1) P's
    bounds = [*first[::n_port], levels.size]
    for g, a, b in zip(spec.distortions, bounds[:-1], bounds[1:]):
        levels[a:b] = g(levels[a:b])
    out = np.zeros(n_port)
    live = np.flatnonzero(counts.reshape(dim, n_port).all(axis=0))
    if not live.size:
        return out
    start = np.concatenate(([True], levels[1:] != levels[:-1]))
    start[first[counts > 0]] = True
    prefix = np.concatenate(([0], np.cumsum(start)))  # the runs started before each cell
    run_widths = np.bincount(prefix[1:] - 1, weights=widths)
    # [i, p, j]: run j of column i of live portfolio p, its last run past its runs
    low = prefix[first].reshape(dim, n_port)[:, live, None]
    n_runs = prefix[first + counts].reshape(dim, n_port)[:, live, None] - low
    j = np.arange(int(n_runs.max()))
    at = low + np.minimum(j, n_runs - 1)
    levels, widths = levels[start][at], np.where(j < n_runs, run_widths[at], 0.0)
    out[live] = spec.cstar.contract(list(levels), list(widths))
    return out


def gamma_ls_form(s: ScenarioSet, spec: JointRiskSpec) -> float:
    """Atom-measure formulation: sum of (prod of coordinates) times atom mass.

    The induced measure on the loss grid is recovered through the alternating
    2^d-term increment of the distorted joint survival function over each
    atom's enclosing cell.  Losses may have either sign.  Agrees with the
    survival form up to floating-point accumulation.  This is the second
    value of :func:`gamma_forms`, which evaluates the coupling copula once.
    """
    return gamma_forms(s, spec)[1]


def gamma_forms(s: ScenarioSet, spec: JointRiskSpec) -> tuple[float, float]:
    """``(survival form, ls form)`` of a portfolio with losses of either sign, from one evaluation of the coupling.

    Axis i's n sorted distinct values give n + 1 level entries
    ``g_i([1, tail_0, ..., tail_{n-1}])``, from one distortion call: entry
    j + 1 is the level at value j, entry j the level below it.  The entries
    are merged once into runs of neighbouring equal levels, which both forms
    read.  The survival form is :func:`gamma_survival_form` bit for bit: the
    axis' c cells are the entries [n - c, n), a contiguous range of its
    runs, and their widths summed per run in cell order are the runs' widths
    of the batched form.  For the ls form the levels at each step are the
    last n entries and the levels just below it the first n, and the
    coordinates are the values of either sign.  A coupling that ``contract``
    factors takes it from ``atom_sums``: per mixture component, the
    increment is a product of per-axis differences, each one atom's
    coordinate on non-increasing levels.  Any other coupling is evaluated
    once on the run levels; every term of the increment is then a sub-grid
    of the step grid, the run grid repeated over each run's entries, and the
    survival form contracts the run grid's slice over the cells.  An axis
    with no cell (every loss 0) makes both forms 0.0.
    """
    _check_dims([s], spec)
    widths = [w for *_, w in s.steps.cells()]
    if not all(w.size for w in widths):
        return 0.0, 0.0
    entries, coords, runs, run_levels, run_widths, cells = [], [], [], [], [], []
    for g, (v, tail), w in zip(spec.distortions, s.steps.columns(), widths):
        e = np.asarray(g(np.concatenate(([1.0], tail))), dtype=float)
        start = np.concatenate(([True], e[1:] != e[:-1]))
        run = np.cumsum(start) - 1
        ids = run[v.size - w.size : v.size]  # the runs of the cells
        entries.append(e[None])
        coords.append(v[None])
        runs.append(run)
        run_levels.append(e[start])
        run_widths.append(np.bincount(ids - ids[0], weights=w)[None])
        cells.append(slice(ids[0], ids[-1] + 1))
    ls = atom_sums(spec.cstar, entries, coords)
    if ls is not None:
        survival = spec.cstar.contract([r[cell][None] for r, cell in zip(run_levels, cells)], run_widths)
        return float(survival[0]), float(ls[0])
    run_grid = spec.cstar.cdf_grid(run_levels)
    # the step grid: each axis' run values repeated over the run's entries
    grid = run_grid
    for i, r in enumerate(runs):
        if r[-1] + 1 < r.size:
            grid = np.repeat(grid, np.bincount(r), axis=i)
    at, below = slice(1, None), slice(0, -1)
    total = 0.0
    for mask in itertools.product((False, True), repeat=s.dim):
        sign = -1.0 if sum(mask) % 2 else 1.0
        term = grid[tuple(at if m else below for m in mask)]
        total += sign * float(_contract(term[None], coords)[0])
    return float(_contract(run_grid[tuple(cells)][None], run_widths)[0]), total


# the finest dyadic resolution: the top count n * 2^n of _dyadic_round must be a finite float
_DYADIC_MAX_N = next(n for n in range(sys.float_info.max_exp, 0, -1) if n * 2**n <= sys.float_info.max)


def _dyadic_round(losses: np.ndarray, n: int) -> np.ndarray:
    """Largest grid multiple j/2^n strictly below each loss, capped at n - 2^-n."""
    scale = 2.0**n
    top = n * 2**n - 1
    counts = np.clip(np.ceil(losses * scale) - 1.0, 0.0, top)
    return counts / scale


def _check_dyadic(s: ScenarioSet, spec: JointRiskSpec, n: int) -> None:
    """The dimensions, then nonnegative losses, then ``n`` an integer in [1, _DYADIC_MAX_N], then ``n`` at or above every loss."""
    _check_dims([s], spec)
    if not s.nonnegative:
        raise DataError("the dyadic forms take nonnegative losses only")
    if not _is_integer(n) or not 1 <= n <= _DYADIC_MAX_N:
        raise DomainError(f"dyadic resolution must be a positive integer at most {_DYADIC_MAX_N}, got {n}")
    max_loss = float(s.losses.max(initial=0.0))
    if n < max_loss:
        raise TruncationError(
            f"truncation level n={n} is below the maximum loss {max_loss:g}"
        )


def gamma_dyadic(s: ScenarioSet, spec: JointRiskSpec, n: int) -> float:
    """Dyadic staircase approximation at resolution 2^-n and truncation level n.

    Equals the normalized sum of the distorted tail weights over the dyadic
    grid, computed exactly by rounding each loss down onto the grid.  The
    value increases with ``n`` and is sandwiched between the exact measures of
    the clamped portfolios returned by :func:`dyadic_bounds`.
    """
    _check_dyadic(s, spec, n)
    return gamma_survival_form(s.with_losses(_dyadic_round(s.losses, n)), spec)


def dyadic_bounds(s: ScenarioSet, spec: JointRiskSpec, n: int) -> tuple[float, float]:
    """Exact lower/upper envelopes sandwiching :func:`gamma_dyadic` at level ``n``."""
    _check_dyadic(s, spec, n)
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
        return {**vars(self), "witness": copy.deepcopy(self.witness)}


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


_DENOM = 16
_MAX_NUM = 63
_NUMERATORS = np.arange(1, _MAX_NUM + 1)
# the pools of axiom_suite's scale factors, rank-preserving bumps and clamp fractions
_SCALES = np.array([0.25, 0.5, 0.75, 1.25, 1.5, 2.0, 3.0])
_BUMPS = np.array([0.0, 0.25, 0.5, 1.0])
_FRACS = np.array([0.25, 0.5, 0.75, 1.0])


def random_portfolio(rng: np.random.Generator, dim: int, max_m: int = 8) -> ScenarioSet:
    """Random nonnegative portfolio with tie-free exact-rational losses.

    Each marginal draws distinct numerators without replacement over the common
    power-of-two denominator ``_DENOM``, so halving and quartering stay exact and ties
    only appear when a transform deliberately introduces them.  2 <= ``max_m`` <= ``_MAX_NUM``.
    """
    if not _is_integer(dim) or dim < 1:
        raise DimensionError(f"random_portfolio needs an integer dim >= 1, got {dim!r}")
    if not _is_integer(max_m) or not 2 <= max_m <= _MAX_NUM:
        raise ParameterError(f"random_portfolio needs an integer 2 <= max_m <= {_MAX_NUM}, got {max_m!r}")
    m = int(rng.integers(2, max_m + 1))
    return scenario_set(np.column_stack([rng.choice(_NUMERATORS, size=m, replace=False) for _ in range(dim)]) / _DENOM)


def _draw_trials(rng: np.random.Generator, trials: int, dim: int) -> tuple:
    """Every random draw of :func:`axiom_suite`'s trials, one generator call per quantity.

    The sizes m in [2, 8], then, padded to the largest m: the loss columns (+inf
    past m), scale indices, bump indices (0 past m), squeezed column and cell,
    clamp indices and relabeling permutations (the identity past m).
    """
    m = rng.integers(2, 9, size=trials)
    past = np.arange(m.max()) >= m[:, None]
    # each column keeps the first m of its own shuffle of every numerator
    cols = rng.permuted(np.broadcast_to(_NUMERATORS, (trials, dim, _MAX_NUM)), axis=-1)[..., : m.max()] / _DENOM
    scales = rng.integers(0, len(_SCALES), size=(trials, dim))
    bumps = rng.integers(0, len(_BUMPS), size=cols.shape)
    col = rng.integers(0, dim, size=trials)
    cell = np.where(m > 2, rng.integers(1, np.maximum(m - 1, 2)), 0)  # in [1, m - 2]; m = 2 has no interior cell
    clamp_at = rng.integers(0, m[:, None], size=(trials, dim))
    # uniform keys before m, increasing keys above 1 past it: a uniform permutation of range(m), then the identity
    perm = np.argsort(np.where(past, np.arange(m.max()) + 1.0, rng.random(past.shape)), axis=-1, kind="stable")
    return m, np.where(past[:, None], np.inf, cols), scales, np.where(past[:, None], 0, bumps), col, cell, clamp_at, perm


def _magnitude(a, b):
    """The larger of |a| and |b|, at least ``ABS_FLOOR``, elementwise."""
    return np.maximum(np.maximum(abs(a), abs(b)), ABS_FLOOR)


def _rel_gap(a, b):
    return abs(a - b) / _magnitude(a, b)


def _rank_preserving_increase(values: np.ndarray, bumps: np.ndarray) -> np.ndarray:
    """A strictly increasing map h with h(x) >= x and reshuffled gaps, at sorted distinct values.

    ``values`` holds sorted distinct sixteenths along its last axis and
    ``bumps`` (same shape) each value's bump from ``_BUMPS``; returns h at
    each value.  Non-uniform bumps shrink some inter-value gaps while
    growing others, so the increase genuinely reweights integration cells
    instead of just stretching the domain (an affine map could never expose
    a non-monotone distortion).  All arithmetic stays on the exact rational
    grid.
    """
    # a bumped value at or below its predecessor moves to 1/16 above it: on
    # sixteenths that is h[j] = max(values[j] + bumps[j], h[j - 1] + 1/16),
    # one running maximum with exact terms
    step = np.arange(values.shape[-1]) * 0.0625
    return step + np.maximum.accumulate(values + bumps - step, axis=-1)


def _single_cell_squeeze(values: np.ndarray, cell: np.ndarray) -> np.ndarray:
    """Move one interior breakpoint of each row almost onto its right neighbor.

    ``values`` (P, n) holds sorted distinct values per row (n >= 3) and
    ``cell`` (P,) an index in [1, n - 2] per row; returns a copy with that
    value moved 15/16 of the way to the next.  Shifts integration width from
    that breakpoint's cell onto the cell to its left while every loss still
    increases; a measure built from a monotone distortion cannot decrease
    under this, a non-monotone one generically does.
    """
    rows = np.arange(len(values))
    out = values.copy()
    out[rows, cell] += (values[rows, cell + 1] - values[rows, cell]) * 0.9375
    return out


def _trial_batches(draws: tuple, masks: np.ndarray, n_specs: int) -> tuple[list, np.ndarray, np.ndarray]:
    """The kernel batches of :func:`axiom_suite`, one ``(losses, weights, lengths)`` per spec, and the scales and clamps.

    ``draws`` is :func:`_draw_trials`' output, already padded to the largest
    size M; every trial is built from it at once, with the losses padded
    with 0, which leaves the column maxima.  The padded stack and its parts
    are freed before the kernel runs.
    """
    m, cols, scales, bumps, col, cell, clamp_at, perm = draws
    trials, dim, top = cols.shape
    losses = np.where(np.arange(top) < m[:, None, None], cols, 0.0).transpose(0, 2, 1)
    # each column's sorted values and the rank of every loss among them
    order = np.argsort(cols, axis=-1)
    values = np.take_along_axis(cols, order, axis=-1)
    at = np.argsort(order, axis=-1)
    rows = np.arange(trials)
    squeezed = values.copy()
    squeezed[rows, col] = _single_cell_squeeze(values[rows, col], cell)
    # m = 2 has no interior value to squeeze: every loss moves up by 1/4
    squeezed = np.where(m[:, None, None] > 2, np.take_along_axis(squeezed, at, axis=-1).transpose(0, 2, 1), losses + 0.25)
    bigger = np.take_along_axis(_rank_preserving_increase(values, _BUMPS[bumps]), at, axis=-1).transpose(0, 2, 1)
    scales = _SCALES[scales]
    clamps = np.take_along_axis(values, clamp_at[..., None], axis=-1)[..., 0]
    y = np.minimum(losses, clamps[:, None, :])  # y, losses - y: the comonotone split of each loss at its clamp

    # a trial's evaluated portfolios in axiom_suite's order, one per place of a
    # (trials, places, m + 1, d) stack; the last, the relabeled set, is permuted
    # and its first scenario, split in two halves, goes first and last
    n = len(masks)
    lengths = np.full((trials, 2 * n + 6), m[:, None])
    lengths[:, -1] += 1
    stack = np.empty((*lengths.shape, top + 1, dim))
    stack[:, :4, :top] = np.stack([losses, losses * scales[:, None, :], bigger, squeezed], axis=1)
    stack[:, 4 : n + 2, :top] = np.where(masks[1:-1], bigger[:, None], losses[:, None])  # less the two copies
    stack[:, n + 2 : 2 * n + 2, :top] = np.where(masks, y[:, None], (losses - y)[:, None])
    stack[:, -4:-1, :top] = np.minimum(losses[:, None], _FRACS[:-1, None, None] * losses.max(axis=1)[:, None, None])
    stack[:, -1, :top] = losses[rows[:, None], perm]
    stack[rows, -1, m] = stack[:, -1, 0]
    # every row on the base weights 1/m (as scenario_set weighs m scenarios)
    # except the two halves of the relabeled set's first scenario
    weights = np.broadcast_to((1.0 / m)[:, None, None], stack.shape[:3]).copy()
    weights[:, -1, 0] /= 2.0
    weights[rows, -1, m] /= 2.0
    # a spec's rows, in trial order, are the first `lengths` of each place
    keep = np.arange(top + 1) < lengths[..., None]
    parts = [slice(ci, None, n_specs) for ci in range(min(n_specs, trials))]
    return [(stack[ts][keep[ts]], weights[ts][keep[ts]], lengths[ts].ravel()) for ts in parts], scales, clamps


def axiom_suite(
    spec_factory: Callable[[CopulaLike], JointRiskSpec],
    copulas: Sequence[CopulaLike],
    trials: int = 100,
    seed: int = 0,
) -> AxiomReport:
    """Run all six executable axiom checks against randomly generated portfolios.

    ``spec_factory`` maps a declared dependence copula to the concrete measure
    under test; ``copulas`` are cycled over the trials.  All comparisons are
    relative at ``REL_TOL`` (absolute floor 1e-12).  A NaN measure fails
    every check it enters.  Deterministic given ``seed``; the seed is
    recorded in the report.

    Every trial is drawn first, each random quantity of all trials in one
    generator call (:func:`_draw_trials`); the portfolios of all trials are
    then built as one padded array stack, and each spec evaluates the
    2^(d+1) + 6 distinct portfolios of each of its trials in one kernel call.
    """
    for name, value, low in (("trials", trials, 1), ("seed", seed, 0)):
        if not _is_integer(value) or value < low:
            raise ParameterError(f"axiom_suite needs an integer {name} >= {low}, got {value!r}")
    if not copulas:
        raise DataError("axiom_suite needs at least one copula")
    dim = copulas[0].dim
    for c in copulas:
        if c.dim != dim:
            raise DimensionError("all copulas passed to axiom_suite must share one dimension")
    specs = [spec_factory(c) for c in copulas]
    for sp in specs:
        if sp.dim != dim:
            raise DimensionError("spec_factory produced a spec of mismatched dimension")

    draws = _draw_trials(np.random.default_rng(seed), trials, dim)  # no draw depends on a measure

    # the 2^d ways to pick each column from a first or a second portfolio, a
    # (2^d, 1, d) stack for np.where, and the sign of each pick in A5's increment
    masks = np.array(list(itertools.product((False, True), repeat=dim)))[:, None, :]
    signs = np.where((dim - masks.sum(axis=(1, 2))) % 2, -1.0, 1.0)
    # a trial's value-table row: base, scaled, bigger, squeezed, the
    # increment mixes, the split mixes, the clamps, the relabeled set.  Three
    # columns copy another and are not evaluated: the first increment mix
    # (all False) is the base portfolio, the last (all True) the bigger
    # portfolio, and the last clamp, at the column maxima, the base portfolio
    sizes = [1, 1, 2, len(masks), len(masks), len(_FRACS), 1]
    width = sum(sizes)
    copies = {4: 0, 3 + len(masks): 2, width - 2: 0}
    sent = [k for k in range(width) if k not in copies]

    # one (trials, width) value table: row t holds trial t's values, its
    # evaluated portfolios scored by its spec together with every other
    # trial of that spec, in one kernel call
    batches, scales, clamps = _trial_batches(draws, masks, len(specs))
    table = np.empty((trials, width))
    for ci, (spec, batch) in enumerate(zip(specs, batches)):
        table[ci :: len(specs), sent] = _survival_forms(*batch, spec).reshape(-1, len(sent))
    table[:, list(copies)] = table[:, list(copies.values())]
    # high: the bigger and the squeezed portfolio; A2 checks both (the targeted
    # squeeze widens its reach to locally non-monotone specs), A5 the bigger one
    base, scaled, high, mixes, splits, seq, relabeled = np.split(table, np.cumsum(sizes)[:-1], axis=1)
    base, scaled, relabeled = base[:, 0], scaled[:, 0], relabeled[:, 0]

    # left to right over the 2^d columns, as the trial-by-trial sums added them
    increment, total = np.zeros(trials), np.zeros(trials)
    for sign, mix, split in zip(signs, mixes.T, splits.T):
        increment += sign * mix
        total += split
    rhs = np.prod(scales, axis=1) * base
    mono = np.maximum(0.0, (seq[:, :-1] - seq[:, 1:]) / np.maximum(abs(seq[:, 1:]), ABS_FLOOR)).max(axis=1)
    violations = {
        "A1": _rel_gap(scaled, rhs),
        "A2": np.maximum(0.0, (base[:, None] - high) / _magnitude(base[:, None], high)).ravel(),
        "A3": _rel_gap(base, total),
        "A4": np.maximum(mono, _rel_gap(seq[:, -1], base)),
        "A5": np.maximum(0.0, -increment / _magnitude(base, high[:, 0])),
        "A6": _rel_gap(base, relabeled),
    }

    def witness(axiom: str, k: int) -> dict:
        t, j = divmod(k, 2) if axiom == "A2" else (k, 0)
        info = {"trial": t, "copula_index": t % len(specs), "m": int(draws[0][t])}
        gamma = float(base[t])
        if axiom == "A1":
            return {**info, "scales": scales[t].tolist(), "lhs": float(scaled[t]), "rhs": float(rhs[t])}
        if axiom == "A2":
            info.update(gamma_low=gamma, gamma_high=float(high[t, j]))
            return {**info, "perturbation": "cell_squeeze"} if j else info
        if axiom == "A3":
            return {**info, "clamps": clamps[t].tolist(), "sum": float(total[t]), "gamma": gamma}
        if axiom == "A4":
            return {**info, "sequence": seq[t].tolist(), "gamma": gamma}
        if axiom == "A5":
            return {**info, "increment": float(increment[t])}
        return info

    checks = []
    for a, v in violations.items():
        k = int(np.argmax(v))  # the first maximum, or the first NaN
        worst = 0.0 if v[k] <= 0.0 else float(v[k])  # -0.0 reads 0.0, NaN stays
        passed = worst <= REL_TOL
        checks.append(AxiomCheck(a, AXIOM_DESCRIPTIONS[a], passed, worst, None if passed else witness(a, k)))
    return AxiomReport(seed=int(seed), trials=int(trials), checks=tuple(checks))
