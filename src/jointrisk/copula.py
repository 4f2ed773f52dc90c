"""d-dimensional copulas: parametric families, survival copulas, bounds, data fits.

Every copula here exposes ``dim``, a vectorized ``cdf`` accepting a single
point ``(d,)`` or a batch ``(n, d)`` of points in the unit cube, and
``cdf_grid`` evaluating the copula on the Cartesian product of d per-axis
level vectors (``cdf_grids`` for a batch of such grids).  Values are
grounded (zero whenever a coordinate is zero) and have uniform margins up to
floating-point rounding.

Each copula class has one evaluator, ``_grid``, written over batches of
grids: a parametric family's formula, an empirical copula's rank histogram,
a survival copula's inclusion-exclusion over one base evaluation.  A
pointwise ``cdf`` evaluates n points as a batch of n one-cell grids.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, DimensionError, DomainError, FitError, ParameterError
from .portfolio import ScenarioSet

INDEPENDENCE = "independence"
COMONOTONE = "comonotone"
COUNTERMONOTONE_2D = "countermonotone"
CLAYTON = "clayton"
GUMBEL = "gumbel"
FRANK = "frank"
EMPIRICAL = "empirical"

PARAMETRIC_FAMILIES = (INDEPENDENCE, COMONOTONE, COUNTERMONOTONE_2D, CLAYTON, GUMBEL, FRANK)
ARCHIMEDEAN_FAMILIES = (CLAYTON, GUMBEL, FRANK)

_FRANK_INDEPENDENCE_EPS = 1e-10  # removable singularity at theta = 0
# below it, expm1(-theta)^2 overflows: a d = 2 Frank grid holding (1, 1),
# as every survival grid does, would turn to NaN or a clipped 1
_FRANK_THETA_FLOOR = -np.log(np.finfo(float).max) / 2
_U_TOL = 1e-12


def _check_levels(v: np.ndarray) -> None:
    # one min/max pass; written so that a NaN fails the test
    if v.size and not (v.min() >= -_U_TOL and v.max() <= 1.0 + _U_TOL):
        raise DomainError("copula arguments must lie in [0, 1]")


def _as_points(u, dim: int) -> tuple[np.ndarray, bool]:
    a = np.asarray(u, dtype=float)
    single = a.ndim == 1
    if single:
        a = a[None, :]
    if a.ndim != 2 or a.shape[1] != dim:
        raise DimensionError(f"expected points of dimension {dim}, got shape {np.shape(u)}")
    _check_levels(a)
    return a.clip(0.0, 1.0), single


def _as_axes(axes, dim: int, batched: bool = False) -> list[np.ndarray]:
    """Validated level arrays with a leading batch axis.

    ``axes`` holds d level vectors, or d arrays of shape (P, n_j) when
    ``batched``; either way the result holds d arrays of shape (P, n_j),
    with P = 1 for vectors.
    """
    if len(axes) != dim:
        raise DimensionError(f"expected {dim} level vectors, got {len(axes)}")
    out = []
    for a in axes:
        v = np.asarray(a, dtype=float)
        if v.ndim != 1 + batched:
            what = "batched level arrays must be 2-D" if batched else "level vectors must be 1-D"
            raise DimensionError(f"{what}, got shape {v.shape}")
        _check_levels(v)
        v = v.clip(0.0, 1.0)
        out.append(v if batched else v[None])
    if batched and len({v.shape[0] for v in out}) > 1:
        raise DimensionError(f"batched level arrays differ in batch size: {[v.shape[0] for v in out]}")
    return out


def _broadcast(op, vectors: list[np.ndarray]) -> np.ndarray:
    """Fold per-axis level arrays (P, n_j) into a (P, n_0, ..., n_{d-1}) tensor with ``op``.

    Axes are folded first to last.  That left-to-right fold is the order in
    which numpy reduces a row of ``d < 8`` coordinates, so each cell matches
    the pointwise value bit for bit.
    """
    shaped = [_on_axis(v, j, len(vectors)) for j, v in enumerate(vectors)]
    return functools.reduce(op, shaped[1:], shaped[0])


def _on_axis(v: np.ndarray, j: int, d: int) -> np.ndarray:
    """Axis j's (P, n_j) array, reshaped to broadcast over a (P, n_0, ..., n_{d-1}) grid."""
    return v.reshape(v.shape[:1] + (1,) * j + v.shape[1:] + (1,) * (d - j - 1))


@dataclass(frozen=True, eq=False)
class Copula:
    """A copula from one of the supported families.

    ``theta`` is the Archimedean dependence parameter (Clayton theta > 0,
    Gumbel theta >= 1, Frank theta != 0 and theta >= -log(DBL_MAX)/2, about
    -354.89; |theta| < 1e-10 evaluates as independence).  Empirical copulas
    carry the scaled mid-ranks and weights of the scenario set they were
    built from.
    """

    family: str
    dim: int
    theta: float | None = None
    ranks: np.ndarray | None = None
    rank_weights: np.ndarray | None = None
    # empirical: per column, the ranks ascending and each scenario's position there
    _rank_index: tuple[np.ndarray, np.ndarray] | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionError(f"dimension must be >= 1, got {self.dim}")
        if self.family == COUNTERMONOTONE_2D and self.dim != 2:
            raise DimensionError("the lower Frechet bound is a copula only for dimension 2")
        if self.family == CLAYTON and not (self.theta is not None and self.theta > 0):
            raise ParameterError(f"Clayton requires theta > 0, got {self.theta}")
        if self.family == GUMBEL and not (self.theta is not None and self.theta >= 1):
            raise ParameterError(f"Gumbel requires theta >= 1, got {self.theta}")
        if self.family == FRANK:
            if self.theta is None or self.theta == 0.0:
                raise ParameterError("Frank requires theta != 0")
            if self.dim >= 3 and self.theta < 0:
                raise ParameterError("Frank with theta < 0 is a copula only for dimension 2")
            if self.theta < _FRANK_THETA_FLOOR:
                raise ParameterError(
                    f"Frank requires theta >= {_FRANK_THETA_FLOOR:.6f} (-log(DBL_MAX)/2), "
                    f"where its terms stay finite; got {self.theta}"
                )
        if self.family == EMPIRICAL:
            if self.ranks is None or self.rank_weights is None:
                raise DataError("empirical copula requires rank data")
            # sorted once here, so that no evaluation sorts the ranks
            order = np.argsort(self.ranks.T, axis=1)
            index = (np.take_along_axis(self.ranks.T, order, axis=1), np.argsort(order, axis=1))
            object.__setattr__(self, "_rank_index", index)

    def cdf(self, u):
        """Evaluate the copula at ``u`` ((d,) or (n, d)), as n one-cell grids; returns float or (n,)."""
        pts, single = _as_points(u, self.dim)
        out = self._grid([pts[:, [j]] for j in range(self.dim)]).reshape(len(pts))
        return float(out[0]) if single else out

    def cdf_grid(self, axes):
        """C over the Cartesian product of ``axes`` (d level vectors).

        Returns an array of shape ``(len(axes[0]), ..., len(axes[d-1]))``;
        parametric families match :meth:`cdf` at every cell bit for bit.
        """
        return self._grid(_as_axes(axes, self.dim))[0]

    def cdf_grids(self, axes):
        """:meth:`cdf_grid` for a batch: d level arrays of shape (P, n_j).

        Returns shape ``(P, n_0, ..., n_{d-1})``; row p equals ``cdf_grid``
        of the p-th row of every axis.  Every entry, padding included, must
        be a level in [0, 1].
        """
        return self._grid(_as_axes(axes, self.dim, batched=True))

    def _grid(self, axes: list[np.ndarray]) -> np.ndarray:
        if self.family == EMPIRICAL:
            return _empirical_grid(self, axes)
        out = _family_grid_raw(self, axes)
        if self.family == FRANK:
            # C(1, ..., 1) = 1 exactly: Frank's ratio of expm1 powers can miss
            # it by an ulp.  Clayton and Gumbel need no fix, as 1^t = 1 and
            # log 1 = 0 make their cells at (1, ..., 1) exactly 1
            out[_broadcast(np.logical_and, [a == 1.0 for a in axes])] = 1.0
        return out


def _family_grid_raw(c: Copula, axes: list[np.ndarray]) -> np.ndarray:
    # A zero level makes the generator term infinite and the cell value 0,
    # which grounds the copula without a mask.
    fam = c.family
    if fam == INDEPENDENCE or (fam == FRANK and abs(c.theta) < _FRANK_INDEPENDENCE_EPS):
        return _broadcast(np.multiply, axes)
    if fam == COMONOTONE:
        return _broadcast(np.minimum, axes)
    if fam == COUNTERMONOTONE_2D:
        return np.maximum(_broadcast(np.add, axes) - 1.0, 0.0)
    if fam == CLAYTON:
        with np.errstate(over="ignore", divide="ignore"):
            s = _broadcast(np.add, [a ** (-c.theta) for a in axes]) - (c.dim - 1)
            out = s ** (-1.0 / c.theta)
        return np.clip(out, 0.0, 1.0)
    if fam == GUMBEL:
        with np.errstate(over="ignore", divide="ignore"):
            s = _broadcast(np.add, [(-np.log(a)) ** c.theta for a in axes])
            out = np.exp(-(s ** (1.0 / c.theta)))
        return np.clip(out, 0.0, 1.0)
    if fam == FRANK:
        th = c.theta
        num = _broadcast(np.multiply, [np.expm1(-th * a) for a in axes])
        den = np.expm1(-th) ** (c.dim - 1)
        return np.clip(-np.log1p(num / den) / th, 0.0, 1.0)
    raise ParameterError(f"unknown copula family {fam!r}")


# (row, scenario) pairs or grid cells per chunk of batch rows, in an empirical
# histogram and a survival copula's base grid: a few MB per chunk of rows
_PAIR_BUDGET = 1 << 16


def _empirical_grid(c: Copula, axes: list[np.ndarray]) -> np.ndarray:
    """Weighted rank histogram over each batch row's sorted levels, summed up along every axis.

    A scenario counts at level ``u`` of axis j when its rank is <= u, so its
    bin is the first sorted level at or above its rank; bin ``n_j`` means it
    never counts.  A level lies below the t-th smallest rank exactly when at
    most t ranks are <= it, so one ``searchsorted`` of the sorted levels into
    the sorted ranks bins every scenario by its position in the rank order.
    Each cell adds its scenarios' weights in scenario order, as one row's
    ``bincount`` would.  Rows go in chunks of at most ``_PAIR_BUDGET`` (row,
    scenario) pairs and as many cells; cost is O(P m d + P prod(n_j + 1)).
    """
    ascending, pos = c._rank_index
    m, d = len(c.rank_weights), len(axes)
    shape = tuple(a.shape[1] for a in axes)
    bins = tuple(n + 1 for n in shape)
    n_cells = math.prod(bins)
    # internal callers' levels ascend: only other batches are sorted and scattered back
    order = None if all((a[:, 1:] >= a[:, :-1]).all() for a in axes) else [a.argsort(axis=1) for a in axes]
    levels = axes if order is None else [np.take_along_axis(a, o, axis=1) for a, o in zip(axes, order)]
    out = np.empty(axes[0].shape[:1] + shape)
    step = max(1, _PAIR_BUDGET // max(m + 1, n_cells))
    for lo in range(0, len(out), step):
        row_ids = np.arange(len(out[lo : lo + step]))[:, None]
        flat = np.repeat(row_ids, m, axis=1)  # each pair's flat cell index, built up in Horner form
        for j, v in enumerate(levels):
            below = np.searchsorted(ascending[j], v[lo : lo + step], side="right") + (m + 1) * row_ids
            # a scenario's bin: how many of its row's levels lie below the t-th smallest rank, t its position
            flat *= bins[j]
            flat += np.bincount(below.ravel(), minlength=len(flat) * (m + 1)).reshape(-1, m + 1).cumsum(1)[:, pos[j]]
        hist = np.bincount(flat.ravel(), weights=np.tile(c.rank_weights, len(flat)), minlength=len(flat) * n_cells)
        # drop bin n_j of every axis, where the scenarios that never count went
        hist = hist.reshape((len(flat),) + bins)[(slice(None),) + tuple(slice(n) for n in shape)]
        for j in range(d):
            hist.cumsum(axis=j + 1, out=hist)
        if order is None:
            out[lo : lo + step] = hist
        else:  # back from sorted levels to the callers' level order
            rows = (lo + row_ids).reshape((-1,) + (1,) * d)
            out[(rows, *(_on_axis(o[lo : lo + step], j, d) for j, o in enumerate(order)))] = hist
    return out


@dataclass(frozen=True, eq=False)
class SurvivalCopula:
    """Survival copula of ``base``: the 2^d-term inclusion-exclusion increment.

    A valid copula in its own right; applying the construction twice recovers
    the base copula's values (radial involution).
    """

    base: "Copula | SurvivalCopula"

    @property
    def dim(self) -> int:
        return self.base.dim

    # the same methods as Copula's; tracing wraps each class's own cdf entry
    cdf, cdf_grid, cdf_grids = Copula.cdf, Copula.cdf_grid, Copula.cdf_grids

    def _grid(self, axes: list[np.ndarray]) -> np.ndarray:
        # per chunk of batch rows, the 2^d inclusion-exclusion terms from one
        # base evaluation on the flipped axes with 1 appended: each term is the
        # sub-grid holding the flipped levels on its selected axes, the 1 on the others
        shape = tuple(a.shape[1] for a in axes)
        step = max(1, _PAIR_BUDGET // math.prod(n + 1 for n in shape))
        pinned, flipped = slice(-1, None), slice(0, -1)
        parts = []
        for rows in ([a[lo : lo + step] for a in axes] for lo in range(0, max(len(axes[0]), 1), step)):
            base = self.base._grid([np.concatenate((1.0 - a, np.ones((len(a), 1))), axis=1) for a in rows])
            total = np.zeros((len(base),) + shape)
            for mask in itertools.product((pinned, flipped), repeat=self.dim):
                # in place: a - b is a + (-b) bit for bit, with no temporary
                signed = np.subtract if mask.count(flipped) % 2 else np.add
                signed(total, base[(slice(None), *mask)], out=total)
            parts.append(np.clip(total, 0.0, 1.0, out=total))
        return parts[0] if len(parts) == 1 else np.concatenate(parts)


CopulaLike = Copula | SurvivalCopula


def survival_copula(c: CopulaLike) -> CopulaLike:
    """The survival copula of ``c``; independence is returned unchanged (self-dual)."""
    if isinstance(c, Copula) and c.family == INDEPENDENCE:
        return c
    return SurvivalCopula(c)


def box_increment(c: CopulaLike, a, b) -> float:
    """Mass the copula assigns to the box (a, b]: the alternating sum of one cdf batch of its corners."""
    a_pts, _ = _as_points(np.asarray(a, dtype=float), c.dim)
    b_pts, _ = _as_points(np.asarray(b, dtype=float), c.dim)
    lo, hi = a_pts[0], b_pts[0]
    if np.any(lo > hi):
        raise DomainError("box corners must satisfy a <= b componentwise")
    masks = np.array(list(itertools.product((False, True), repeat=c.dim)))
    total = 0.0
    for sel, value in zip(masks, c.cdf(np.where(masks, lo, hi)).tolist()):
        total += -value if sel.sum() % 2 else value
    return max(total, 0.0) if total > -1e-12 else total


def frechet_lower(u: np.ndarray) -> np.ndarray:
    """Pointwise lower Frechet-Hoeffding bound max(sum(u) - d + 1, 0)."""
    a = np.asarray(u, dtype=float)
    return np.maximum(a.sum(axis=-1) - (a.shape[-1] - 1), 0.0)


def frechet_upper(u: np.ndarray) -> np.ndarray:
    """Pointwise upper Frechet-Hoeffding bound min(u)."""
    return np.min(np.asarray(u, dtype=float), axis=-1)


def frechet_bounds(u) -> tuple[float, float]:
    """Lower and upper Frechet-Hoeffding bounds at one point."""
    a = np.asarray(u, dtype=float)
    if a.ndim != 1:
        raise DimensionError("frechet_bounds takes a single point")
    pts, _ = _as_points(a, a.shape[0])
    return float(frechet_lower(pts[0])), float(frechet_upper(pts[0]))


def default_grid_n(dim: int) -> int:
    """Grid resolution balancing Lipschitz error (constant <= d) against cost."""
    if dim <= 2:
        return 200
    if dim == 3:
        return 50
    return 20


def frechet_distances(c: CopulaLike, grid_n: int | None = None) -> tuple[float, float]:
    """Grid maxima of (M - W) and (M - C) over the closed unit grid.

    Returns ``(d_ul, d_uc)``: the distance between the two Frechet-Hoeffding
    bounds and the distance of ``c`` from the upper bound.  Requires
    dimension >= 2 (there is no dependence spread in dimension 1).

    Both maxima are read off the grid's diagonal in O(grid_n): ``d_ul`` as
    the full (grid_n + 1)^d grid's maximum bit for bit, ``d_uc`` as that
    maximum up to rounding.
    """
    if c.dim < 2:
        raise DimensionError("Frechet distances require dimension >= 2")
    if grid_n is None:
        grid_n = default_grid_n(c.dim)
    if grid_n < 2:
        raise DomainError(f"grid_n must be >= 2, got {grid_n}")
    axis = np.linspace(0.0, 1.0, grid_n + 1)
    # M - W peaks on the diagonal: off it, min(u) stays while every rounded
    # partial sum of the coordinates can only grow.  The sum is folded in
    # the grid's order, so this is the full grid's maximum bit for bit.
    diagonal_sum = functools.reduce(np.add, [axis] * c.dim)
    d_ul = float(np.max(axis - np.maximum(diagonal_sum - (c.dim - 1), 0.0)))
    # M - C peaks on the diagonal too: C is nondecreasing in every
    # coordinate, so the diagonal point at min(u) keeps M and has a C no
    # larger.  In floats, a parametric cdf equals its grid cells bit for bit,
    # so this is the full grid's maximum; an empirical cdf sums the weights
    # of its cell in another order, and a survival copula's inclusion-exclusion
    # sum is not monotone, so for those it is that maximum up to rounding.
    gap = axis - c.cdf(np.repeat(axis[:, None], c.dim, axis=1))
    d_uc = float(max(np.max(gap), 0.0))
    return d_ul, d_uc


def scaled_midranks(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted mid-ranks in (0, 1]: cumulative weight below plus half the tied weight."""
    order = np.argsort(values, kind="stable")
    sv, sw = values[order], weights[order]
    uniq, start = np.unique(sv, return_index=True)
    group_w = np.add.reduceat(sw, start)
    below = np.concatenate(([0.0], np.cumsum(group_w)[:-1]))
    mid = below + 0.5 * group_w
    out = np.empty_like(values)
    out[order] = np.repeat(mid, np.diff(np.concatenate((start, [len(sv)]))))
    return out


def empirical_copula(s: ScenarioSet) -> Copula:
    """Rank-based empirical copula of a scenario set.

    Evaluation at ``u`` is the weighted fraction of scenarios whose scaled
    mid-ranks are componentwise <= u.  Grounded exactly; uniform margins hold
    exactly at the grid points k/m for equally weighted tie-free data.
    """
    if s.m < 2:
        raise DataError("empirical copula requires at least 2 scenarios")
    ranks = np.column_stack(
        [scaled_midranks(s.losses[:, i], s.weights) for i in range(s.dim)]
    )
    ranks.setflags(write=False)
    return Copula(EMPIRICAL, s.dim, ranks=ranks, rank_weights=s.weights)


def kendall_tau(x: np.ndarray, y: np.ndarray, weights: np.ndarray) -> float:
    """Weighted pairwise Kendall tau (ties contribute zero concordance).

    The ordered pair (i, j) weighs w_i w_j and counts sign(x_i - x_j) *
    sign(y_i - y_j); the denominator is the pair weight (sum w)^2 - sum w^2.
    Exact in O(m log m) time and O(m) memory: a weighted merge count of
    y-inversions in (x, y) order (Knight 1966), less the x-tied pairs.
    """
    x, y, w = (np.asarray(a, dtype=float) for a in (x, y, weights))
    den = float(w.sum() ** 2 - np.sum(w**2))
    if den <= 0.0:
        raise DataError("Kendall tau needs at least two scenarios with positive weight")
    order = np.lexsort((y, x))
    xs, ys, ws = x[order], y[order], w[order]
    ranks = np.unique(ys, return_inverse=True)[1]
    # x-tied pairs are in y order, so the merge count took each one as
    # concordant (y differs) or tied (y equal); they count zero
    x_new = np.r_[True, xs[1:] != xs[:-1]]
    xy_new = x_new | np.r_[True, ys[1:] != ys[:-1]]
    tied = _run_pair_weight(ws, x_new) - _run_pair_weight(ws, xy_new)
    return 2.0 * (_ordered_pair_sign_weight(ranks, ws) - tied) / den


def _run_pair_weight(w: np.ndarray, starts: np.ndarray) -> float:
    """Sum of w_i w_j over pairs i < j inside each run; ``starts`` flags run heads."""
    heads = np.flatnonzero(starts)
    run_w = np.add.reduceat(w, heads)
    return float(np.sum(run_w**2 - np.add.reduceat(w**2, heads))) / 2.0


def _ordered_pair_sign_weight(ranks: np.ndarray, w: np.ndarray) -> float:
    """Sum of w_i w_j sign(ranks_j - ranks_i) over positions i < j.

    Bottom-up merge sort, one vectorized pass per level: a pair is counted
    at the level where i sits in the left half and j in the right half of
    one block.  ``perm`` holds positions, each level-``width`` block sorted
    by rank, so the left halves' keys ``block * n_ranks + rank`` are sorted
    and a right-half element's rank splits its block's left-half weight by
    ``searchsorted`` on a cumulative sum.
    """
    m = len(ranks)
    n_ranks = int(ranks.max()) + 1
    perm = np.arange(m)
    total = 0.0
    width = 1
    while width < m:
        block = perm // (2 * width)
        key = block * n_ranks + ranks[perm]
        left = (perm // width) % 2 == 0
        left_key = key[left]
        cum = np.concatenate(([0.0], np.cumsum(w[perm[left]])))
        b, k = block[~left], key[~left]
        lo = cum[np.searchsorted(left_key, b * n_ranks)]
        below = cum[np.searchsorted(left_key, k, side="left")]
        above = cum[np.searchsorted(left_key, k, side="right")]
        hi = cum[np.searchsorted(left_key, (b + 1) * n_ranks)]
        total += float(w[perm[~left]] @ ((below - lo) - (hi - above)))
        perm = perm[np.argsort(key, kind="stable")]
        width *= 2
    return total


# t / (e^t - 1) < 1e-24 beyond t = 60: the Debye integral stops there
_DEBYE_CUTOFF = 60.0


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """64-point Gauss-Legendre nodes and weights on [-1, 1]."""
    # deferred: numpy.polynomial and the rule would add to every package import
    from numpy.polynomial import legendre

    return legendre.leggauss(64)


def _frank_tau(theta: float) -> float:
    # tau(theta) = 1 - 4/theta * (1 - D1(theta)) with D1 the first Debye function
    if theta < 0:
        return -_frank_tau(-theta)
    nodes, weights = _gauss_legendre()
    half = 0.5 * min(theta, _DEBYE_CUTOFF)
    t = half * (nodes + 1.0)
    d1 = half * float(weights @ (t / np.expm1(t))) / theta
    return 1.0 - 4.0 / theta * (1.0 - d1)


_FRANK_THETA_MIN = 1e-6
_FRANK_THETA_MAX = 300.0


def fit_archimedean(s: ScenarioSet, family: str) -> Copula:
    """Fit an Archimedean family by Kendall-tau inversion.

    Pairwise tau for d = 2; the average pairwise tau for d > 2 (standard
    exchangeable practice, recorded as an approximation by callers).  Clayton
    uses theta = 2 tau / (1 - tau), Gumbel theta = 1 / (1 - tau), Frank solves
    the Debye relation by bisection on [1e-6, 300].
    """
    if family not in ARCHIMEDEAN_FAMILIES:
        raise FitError(f"cannot fit family {family!r}; choose one of {ARCHIMEDEAN_FAMILIES}")
    if s.dim < 2:
        raise DimensionError("fitting requires dimension >= 2")
    if s.m < 2:
        raise DataError("fitting requires at least 2 scenarios")
    taus = [
        kendall_tau(s.losses[:, i], s.losses[:, j], s.weights)
        for i, j in itertools.combinations(range(s.dim), 2)
    ]
    tau = float(np.mean(taus))

    if family == CLAYTON:
        if tau <= 0.0:
            raise FitError(f"Clayton requires tau > 0 (theta > 0), sample tau = {tau:.6g}")
        if tau >= 1.0 - 1e-9:
            raise FitError("Clayton cannot represent tau = 1 (theta -> infinity)")
        return Copula(CLAYTON, s.dim, theta=2.0 * tau / (1.0 - tau))
    if family == GUMBEL:
        if tau < 0.0:
            raise FitError(f"Gumbel requires tau >= 0 (theta >= 1), sample tau = {tau:.6g}")
        if tau >= 1.0 - 1e-9:
            raise FitError("Gumbel cannot represent tau = 1 (theta -> infinity)")
        return Copula(GUMBEL, s.dim, theta=1.0 / (1.0 - tau))
    # Frank
    if abs(tau) < 1e-12:
        raise FitError("Frank is undefined at tau = 0 (theta -> 0 is independence)")
    if s.dim >= 3 and tau < 0.0:
        raise FitError("Frank with tau < 0 is only a copula for dimension 2")
    if abs(tau) >= _frank_tau(_FRANK_THETA_MAX):
        raise FitError(f"sample tau = {tau:.6g} outside the invertible Frank range")
    # bisection: _frank_tau increases in theta
    lo, hi = _FRANK_THETA_MIN, _FRANK_THETA_MAX
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if _frank_tau(mid) < abs(tau):
            lo = mid
        else:
            hi = mid
    mag = 0.5 * (lo + hi)
    return Copula(FRANK, s.dim, theta=float(np.copysign(mag, tau)))


def gof_distance(e: CopulaLike, c: CopulaLike, grid_n: int | None = None) -> float:
    """Mean squared difference of two copulas over the closed unit grid.

    Used as a Cramer-von-Mises-style statistic to judge whether declared
    dependence is compatible with the data's empirical copula.
    """
    if e.dim != c.dim:
        raise DimensionError(f"dimension mismatch: {e.dim} vs {c.dim}")
    if grid_n is None:
        grid_n = default_grid_n(e.dim)
    axes = [np.linspace(0.0, 1.0, grid_n + 1)] * e.dim
    diff = e.cdf_grid(axes) - c.cdf_grid(axes)
    return float(np.mean(diff**2))


def independence(dim: int) -> Copula:
    return Copula(INDEPENDENCE, dim)


def comonotone(dim: int) -> Copula:
    return Copula(COMONOTONE, dim)


def countermonotone_2d() -> Copula:
    return Copula(COUNTERMONOTONE_2D, 2)


def clayton(theta: float, dim: int = 2) -> Copula:
    return Copula(CLAYTON, dim, theta=theta)


def gumbel(theta: float, dim: int = 2) -> Copula:
    return Copula(GUMBEL, dim, theta=theta)


def frank(theta: float, dim: int = 2) -> Copula:
    return Copula(FRANK, dim, theta=theta)
