"""d-dimensional copulas: parametric families, survival copulas, bounds, data fits.

Every copula here exposes ``dim``, a vectorized ``cdf`` accepting a single
point ``(d,)`` or a batch ``(n, d)`` of points in the unit cube, and
``cdf_grid`` evaluating the copula on the Cartesian product of d per-axis
level vectors (``cdf_grids`` for a batch of such grids).  Values are
grounded (zero whenever a coordinate is zero) and have uniform margins up to
floating-point rounding.

Each copula class has one evaluator, ``_grid``, written over batches of
grids: a parametric family's formula, an empirical copula's sum of scenario
indicator products (one matrix product per row, for few scenarios per cell)
or rank histogram, a survival copula's inclusion-exclusion over one base
evaluation.  A pointwise ``cdf`` evaluates n points as a batch of n one-cell
grids.

``contract(levels, weights)`` is what the measures need of a coupling (the
vector measures need nothing else): per batch row, the sum over the grid of
C times the product of per-axis weights.  The empirical, independence,
comonotone and countermonotone copulas, under any survival wraps, are
mixtures of product copulas, so that sum factors into one weighted sum per
axis and mixture component: O(d (m + n)) per row for m scenarios and n
levels per axis, not prod(n_j) grid cells.  Clayton, Gumbel and Frank are
summed on each row's own grid.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DimensionError, DomainError, FitError, ParameterError
from .portfolio import ScenarioSet, _dense_ranks, _is_integer, column_order

INDEPENDENCE = "independence"
COMONOTONE = "comonotone"
COUNTERMONOTONE_2D = "countermonotone"
CLAYTON = "clayton"
GUMBEL = "gumbel"
FRANK = "frank"
EMPIRICAL = "empirical"

ARCHIMEDEAN_FAMILIES = (CLAYTON, GUMBEL, FRANK)

_FRANK_INDEPENDENCE_EPS = 1e-10  # removable singularity at theta = 0
# below it, expm1(-theta)^2 overflows: a d = 2 Frank grid holding (1, 1),
# as every survival grid does, would turn to NaN or a clipped 1
_FRANK_THETA_FLOOR = -np.log(np.finfo(float).max) / 2
_U_TOL = 1e-12


def _unit_levels(u, what: str) -> np.ndarray:
    """``u`` as floats clipped to [0, 1]; a level more than 1e-12 outside, or a NaN, raises."""
    a = np.asarray(u, dtype=float)
    # one min/max pass; written so that a NaN fails the test
    if a.size and not (a.min() >= -_U_TOL and a.max() <= 1.0 + _U_TOL):
        raise DomainError(f"{what} arguments must lie in [0, 1]")
    return a.clip(0.0, 1.0)


def _as_points(u, dim: int) -> tuple[np.ndarray, bool]:
    a = np.asarray(u, dtype=float)
    single = a.ndim == 1
    if single:
        a = a[None, :]
    if a.ndim != 2 or a.shape[1] != dim:
        raise DimensionError(f"expected points of dimension {dim}, got shape {np.shape(u)}")
    return _unit_levels(a, "copula"), single


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
        v = _unit_levels(v, "copula")
        out.append(v if batched else v[None])
    if batched and len({v.shape[0] for v in out}) > 1:
        raise DimensionError(f"batched level arrays differ in batch size: {[v.shape[0] for v in out]}")
    return out


def _broadcast(op, vectors: list[np.ndarray]) -> np.ndarray:
    """Fold per-axis level arrays (P, n_j) into a (P, n_0, ..., n_{d-1}) tensor with ``op``.

    Axes are folded first to last.  That left-to-right fold is the order in
    which numpy reduces a row of ``d < 8`` coordinates, so each cell matches
    the pointwise value bit for bit.  At d = 1 the result is a view of the
    one input, so a caller that writes into it must own that input.
    """
    shaped = [_on_axis(v, j, len(vectors)) for j, v in enumerate(vectors)]
    return functools.reduce(op, shaped[1:], shaped[0])


def _on_axis(v: np.ndarray, j: int, d: int) -> np.ndarray:
    """Axis j's (P, n_j) array, reshaped to broadcast over a (P, n_0, ..., n_{d-1}) grid."""
    return v.reshape(v.shape[:1] + (1,) * j + v.shape[1:] + (1,) * (d - j - 1))


@dataclass(frozen=True, eq=False)
class Copula:
    """A copula from one of the supported families.

    ``theta`` is the finite Archimedean dependence parameter (Clayton theta > 0,
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

    def __post_init__(self):
        # ahead of the comparisons below, which a float or a bool passes and a string breaks
        if not _is_integer(self.dim):
            raise DimensionError(f"dimension must be an integer, got {self.dim!r}")
        if self.dim < 1:
            raise DimensionError(f"dimension must be >= 1, got {self.dim}")
        if self.family == COUNTERMONOTONE_2D and self.dim != 2:
            raise DimensionError("the lower Frechet bound is a copula only for dimension 2")
        if self.theta is not None and (isinstance(self.theta, bool) or not isinstance(self.theta, numbers.Real)):
            raise ParameterError(f"theta must be a real number, got {self.theta!r}")
        if self.family in (INDEPENDENCE, COMONOTONE, COUNTERMONOTONE_2D) and self.theta is not None:
            raise ParameterError(f"the {self.family} copula takes no theta, got {self.theta}")
        # ahead of the range tests, which an infinite theta passes (and a NaN passes Frank's)
        if self.family in ARCHIMEDEAN_FAMILIES and self.theta is not None and not math.isfinite(self.theta):
            raise ParameterError(f"{self.family.capitalize()} requires a finite theta, got {self.theta}")
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
            if np.ndim(self.ranks) != 2 or np.shape(self.ranks)[1] != self.dim:
                raise DimensionError(
                    f"empirical ranks must be an (m, {self.dim}) array, got shape {np.shape(self.ranks)}"
                )
            w = np.asarray(self.rank_weights, dtype=float)
            if w.shape != (len(self.ranks),) or not (np.isfinite(w).all() and (w >= 0.0).all()):
                raise DataError(f"empirical copula needs {len(self.ranks)} finite, nonnegative weights")
            r = np.asarray(self.ranks, dtype=float)
            # written so that a NaN fails the test; a rank in (0, 1] keeps every grid 0 at level 0
            if r.size and not (r.min() > 0.0 and r.max() <= 1.0):
                raise DataError("empirical ranks must lie in (0, 1]")

    @functools.cached_property
    def _rank_order(self) -> np.ndarray:
        """Empirical: the :func:`column_order` of the ranks; :func:`empirical_copula` hands in its scenario set's."""
        return column_order(self.ranks)

    @functools.cached_property
    def _rank_index(self) -> tuple[np.ndarray, np.ndarray]:
        """Empirical: per column, the ranks ascending and each scenario's position there, so no evaluation sorts."""
        order = self._rank_order
        pos = np.empty_like(order)
        np.put_along_axis(pos, order, np.arange(order.shape[1]), axis=1)  # order's inverse
        return np.take_along_axis(self.ranks.T, order, axis=1), pos

    def cdf(self, u):
        """Evaluate the copula at ``u`` ((d,) or (n, d)), as n one-cell grids; returns float or (n,)."""
        pts, single = _as_points(u, self.dim)
        # copied, so that no caller holds the grid's buffer (a survival grid's is its whole base grid)
        out = self._grid([pts[:, [j]] for j in range(self.dim)]).reshape(len(pts)).copy()
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

    def contract(self, levels, weights):
        """Per batch row, the sum over its grid of C(levels) times the product of per-axis weights.

        ``levels`` and ``weights`` hold d arrays of one shape (P, n_j) per
        axis; returns shape (P,).  A row equals that row contracted alone bit
        for bit, and zero weights appended at a row's last level (a batch's
        padding) leave it as it is (padding at another level can move a
        factored row's last bits).  Mixtures of product copulas make no grid
        (:func:`_mixture_sums`); the others are contracted on each row's own
        grid, never padded to another's (:func:`_grid_sums`).
        """
        levels = [np.asarray(v, dtype=float) for v in levels]
        weights = [np.asarray(w, dtype=float) for w in weights]
        shapes = [v.shape for v in levels]
        batches = {sh[0] if len(sh) == 2 else None for sh in shapes}
        if len(shapes) != self.dim or [w.shape for w in weights] != shapes or len(batches) != 1 or None in batches:
            raise DimensionError(
                f"contract needs {self.dim} level and weight arrays of one shape (P, n_j) per axis, "
                f"got levels {shapes} and weights {[w.shape for w in weights]}"
            )
        mixture = _mixture(self)
        if mixture is None:  # cdf_grids checks the levels of each chunk
            return _grid_sums(self, levels, weights)
        return _mixture_sums(*mixture, _as_axes(levels, self.dim, batched=True), weights)

    def _grid(self, axes: list[np.ndarray]) -> np.ndarray:
        if self.family == EMPIRICAL:
            return _empirical_grid(self, axes)
        return _family_grid_raw(self, axes)


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
    # in place on the broadcast's one grid-sized buffer (never ``axes``: at
    # d = 1 it views an array made here); ``**=`` takes ``**``'s shortcuts
    if fam == CLAYTON:
        with np.errstate(over="ignore", divide="ignore"):
            out = _broadcast(np.add, [a ** (-c.theta) for a in axes])
            out -= c.dim - 1
            out **= -1.0 / c.theta
        return np.clip(out, 0.0, 1.0, out=out)
    if fam == GUMBEL:
        with np.errstate(over="ignore", divide="ignore"):
            out = _broadcast(np.add, [(-np.log(a)) ** c.theta for a in axes])
            out **= 1.0 / c.theta
            np.exp(np.negative(out, out=out), out=out)
        return np.clip(out, 0.0, 1.0, out=out)
    if fam == FRANK:
        th = c.theta
        out = _broadcast(np.multiply, [np.expm1(-th * a) for a in axes])
        out /= np.expm1(-th) ** (c.dim - 1)
        np.negative(np.log1p(out, out=out), out=out)
        out /= th
        np.clip(out, 0.0, 1.0, out=out)
        # C(1, ..., 1) = 1 exactly: Frank's ratio of expm1 powers can miss it
        # by an ulp (Clayton's and Gumbel's cells there are exactly 1).  A
        # batch of one picks its hits per axis; a larger one takes one mask
        if len(out) == 1:
            out[0][np.ix_(*[np.flatnonzero(a[0] == 1.0) for a in axes])] = 1.0
        else:
            out[_broadcast(np.logical_and, [a == 1.0 for a in axes])] = 1.0
        return out
    raise ParameterError(f"unknown copula family {fam!r}")


# elements per chunk of batch rows in every batched evaluation (:func:`_row_chunks`): a few MB
_CHUNK = 1 << 16
# output cells per block of a survival copula's sum: the size of its one scratch array
_SUM_BLOCK = 1 << 14
# an empirical grid is a matrix product (m multiply-adds per cell) while that costs less than
# the rank histogram's d running sums over prod(n_j + 1) bins: a multiply-add costs about 1/16
# of a running-sum step (measured on one core: d = 1-5, 1-200 levels, 1-2000 rows, m = 5-640)
_PRODUCTS_PER_SUM = 16


def _row_chunks(n_rows: int, per_row: int) -> list[slice]:
    """Consecutive slices of ``n_rows`` batch rows, each of at most ``_CHUNK`` elements at ``per_row`` a row.

    ``per_row`` counts the elements of every per-row array the evaluator
    holds at once; a row larger than ``_CHUNK`` is a chunk of its own.
    """
    step = max(1, _CHUNK // max(per_row, 1))
    return [slice(lo, lo + step) for lo in range(0, n_rows, step)]


def _empirical_grid(c: Copula, axes: list[np.ndarray]) -> np.ndarray:
    """An empirical copula's grids: :func:`_scenario_products` for few scenarios per cell, else the rank histogram."""
    shape = tuple(a.shape[1] for a in axes)
    if len(c.rank_weights) * math.prod(shape) < _PRODUCTS_PER_SUM * len(axes) * math.prod(n + 1 for n in shape):
        return _scenario_products(c, axes)
    return _rank_histogram(c, axes)


def _scenario_products(c: Copula, axes: list[np.ndarray]) -> np.ndarray:
    """sum_l w_l prod_j 1[r_lj <= u_j] on each batch row's grid: the weighted indicator products
    of the leading d // 2 axes, a (cells, m) matrix, times those of the others, transposed.

    O(m prod(n_j)) exact multiply-adds per row, so a cell differs from the histogram's only in
    the order its weights are added.  Scenarios lie last, along numpy's inner loops.  numpy hands
    BLAS one row at a time at one shape, so a batch equals its rows evaluated alone bit for bit.
    A row holds its (cells, m) matrices of either half: m sum(halves) elements (:func:`_row_chunks`).
    """
    m, d = len(c.rank_weights), len(axes)
    shape = tuple(a.shape[1] for a in axes)
    lead = d // 2
    halves = (math.prod(shape[:lead]), math.prod(shape[lead:]))
    ranks = np.ascontiguousarray(c.ranks.T)
    out = np.empty((len(axes[0]),) + shape)
    flat = out.reshape(len(out), *halves)

    def indicators(rows, js):  # per axis in js, 1[r_lj <= u_j] on its own dimension of (rows, n_j..., m)
        return [_on_axis(axes[j][rows], i, len(js) + 1) >= ranks[j] for i, j in enumerate(js)]

    weights = np.reshape(c.rank_weights, (1,) * (lead + 1) + (m,))
    for rows in _row_chunks(len(out), m * sum(halves)):
        left = functools.reduce(np.multiply, indicators(rows, range(lead)), weights)
        right = functools.reduce(np.logical_and, indicators(rows, range(lead, d))).astype(float)
        left, right = left.reshape(len(left), halves[0], m), right.reshape(len(right), halves[1], m)
        np.matmul(left, right.swapaxes(1, 2), out=flat[rows])
    return out


def _rank_histogram(c: Copula, axes: list[np.ndarray]) -> np.ndarray:
    """Weighted rank histogram over each batch row's sorted levels, summed up along every axis.

    A scenario counts at level ``u`` of axis j when its rank is <= u, so its
    bin is the first sorted level at or above its rank; bin ``n_j`` means it
    never counts.  A level lies below the t-th smallest rank exactly when at
    most t ranks are <= it, so one ``searchsorted`` of the sorted levels into
    the sorted ranks bins every scenario by its position in the rank order.
    Each cell adds its scenarios' weights in scenario order, as one row's
    ``bincount`` would.  A row holds about four arrays of m + 1 (its pairs'
    cell indices and weights, an axis' bin counts) and its prod(n_j + 1)
    bins (:func:`_row_chunks`); cost is O(P m d + P prod(n_j + 1)).
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
    for chunk in _row_chunks(len(out), 4 * (m + 1) + n_cells):
        row_ids = np.arange(len(out[chunk]))[:, None]
        flat = np.repeat(row_ids, m, axis=1)  # each pair's flat cell index, built up in Horner form
        for j, v in enumerate(levels):
            below = np.searchsorted(ascending[j], v[chunk], side="right") + (m + 1) * row_ids
            # a scenario's bin: how many of its row's levels lie below the t-th smallest rank, t its position
            flat *= bins[j]
            flat += np.bincount(below.ravel(), minlength=len(flat) * (m + 1)).reshape(-1, m + 1).cumsum(1)[:, pos[j]]
        hist = np.bincount(flat.ravel(), weights=np.tile(c.rank_weights, len(flat)), minlength=len(flat) * n_cells)
        # drop bin n_j of every axis, where the scenarios that never count went
        hist = hist.reshape((len(flat),) + bins)[(slice(None),) + tuple(slice(n) for n in shape)]
        for j in range(d):
            hist.cumsum(axis=j + 1, out=hist)
        if order is None:
            out[chunk] = hist
        else:  # back from sorted levels to the callers' level order
            rows = (chunk.start + row_ids).reshape((-1,) + (1,) * d)
            out[(rows, *(_on_axis(o[chunk], j, d) for j, o in enumerate(order)))] = hist
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
    cdf, cdf_grid, cdf_grids, contract = Copula.cdf, Copula.cdf_grid, Copula.cdf_grids, Copula.contract

    def _grid(self, axes: list[np.ndarray]) -> np.ndarray:
        shape = tuple(a.shape[1] for a in axes)
        # a row holds its base grid and the pinned half's axis-0 slice
        chunks = _row_chunks(len(axes[0]), math.prod(n + 1 for n in shape) + math.prod(shape[1:]))
        if len(chunks) <= 1:
            return _survival_sum(self.base, axes)
        # chunks are copied out one by one, so that no chunk's base grid outlives its turn
        out = np.empty((len(axes[0]),) + shape)
        for rows in chunks:
            out[rows] = _survival_sum(self.base, [a[rows] for a in axes])
        return out


def _survival_sum(base: CopulaLike, axes: list[np.ndarray]) -> np.ndarray:
    """The survival grid of ``base`` on ``axes``, summed over the buffer of its one base evaluation.

    Each of the 2^d terms is the base grid on the flipped axes with 1 appended, at the flipped
    levels on its selected axes and the 1 on the others; a cell adds them to 0 in mask order.
    The first half of that order pins axis 0, so its running sum is taken once per call, one
    axis-0 slice per batch row; each block starts from it with its first flipped term and adds
    the rest, every cell through the same operations in the same order as one sum from 0.
    Output cell k reads base cells at flat index k or later only, so blocks in C order are each
    summed in one scratch array, then written to the buffer's front, which is returned C-contiguous.
    """
    shape = tuple(a.shape[1] for a in axes)
    grid = base._grid([np.concatenate((1.0 - a, np.ones((len(a), 1))), axis=1) for a in axes])
    flat = grid.reshape(-1)  # a copy, were the base grid strided: the blocks still read the grid
    n_rows, cells = len(grid), math.prod(shape)
    slab = cells // max(shape[0], 1)  # the cells of one axis-0 slice
    masks = _signed_masks(len(shape))
    half = len(masks) // 2
    part = np.zeros((n_rows, 1) + shape[1:])
    for mask, signed in masks[:half]:
        signed(part, grid[(slice(None), *mask)], out=part)
    # a block holds whole grids, or else axis-0 slices of one grid
    rows, slices = max(1, _SUM_BLOCK // max(cells, 1)), max(1, _SUM_BLOCK // max(slab, 1))
    scratch = np.empty(min(rows, n_rows) * min(slices, shape[0]) * slab)
    for p, i in itertools.product(range(0, n_rows, rows), range(0, shape[0], slices)):
        batch, first = slice(p, p + rows), slice(i, min(i + slices, shape[0]))
        block = (min(rows, n_rows - p), first.stop - i) + shape[1:]
        acc = scratch[: math.prod(block)].reshape(block)
        src = part[batch]  # the first flipped term starts the block from the pinned half
        for mask, signed in masks[half:]:
            signed(src, grid[(batch, first, *mask[1:])], out=acc)
            src = acc
        # every read of the block is done: its clipped sum goes straight to the buffer's front
        np.clip(acc, 0.0, 1.0, out=flat[p * cells + i * slab :][: acc.size].reshape(block))
    return flat[: n_rows * cells].reshape((n_rows,) + shape)


@functools.cache
def _signed_masks(d: int) -> tuple:
    """The 2^d survival terms in mask order: per axis the appended 1 or the flipped levels, and the sign's ufunc."""
    pinned, flipped = slice(-1, None), slice(0, -1)
    # in place: a - b is a + (-b) bit for bit, with no temporary
    return tuple((mask, np.subtract if mask.count(flipped) % 2 else np.add)
                 for mask in itertools.product((pinned, flipped), repeat=d))


CopulaLike = Copula | SurvivalCopula


def survival_copula(c: CopulaLike) -> CopulaLike:
    """The survival copula of ``c``; independence is returned unchanged (self-dual)."""
    if isinstance(c, Copula) and c.family == INDEPENDENCE:
        return c
    return SurvivalCopula(c)


def _grid_sums(c: CopulaLike, levels: list[np.ndarray], weights: list[np.ndarray]) -> np.ndarray:
    """The default :meth:`Copula.contract`: the coupling on the grid of each row, contracted.

    A row's extent on an axis ends at its last nonzero weight; a row with no
    weight on some axis is 0.  Rows sorted by extent split into stretches of
    one extent, each in chunks (:func:`_row_chunks`), a row holding its grid
    at exactly its extent (on a survival coupling, a base grid of n_j + 1
    levels per axis), which is contracted whole (:func:`_contract`), so a
    row equals the row contracted alone bit for bit.
    """
    sizes = np.array([np.where(w != 0.0, np.arange(1, w.shape[1] + 1), 0).max(axis=1, initial=0) for w in weights])
    out = np.zeros(len(levels[0]))
    live = np.flatnonzero(sizes.all(axis=0))
    order = live[np.lexsort(sizes[::-1, live])]
    extents = sizes[:, order]
    starts = np.flatnonzero(np.diff(extents, axis=1, prepend=-1).any(axis=0)).tolist()
    for a, b in zip(starts, starts[1:] + [len(order)]):
        k = extents[:, a].tolist()
        for chunk in _row_chunks(b - a, math.prod(j + 1 for j in k)):
            rows = order[a:b][chunk]
            grids = c.cdf_grids([v[rows, :j] for v, j in zip(levels, k)])
            out[rows] = _contract(grids, [w[rows, :j] for w, j in zip(weights, k)])
    return out


def _contract(vals: np.ndarray, weights: list[np.ndarray]) -> np.ndarray:
    """Per batch row, the sum of a grid of copula values times the product of per-axis weights.

    ``vals`` has shape (G, n_0, ..., n_{d-1}) and ``weights[i]`` (G, n_i);
    returns shape (G,).  numpy calls BLAS once per batch row, with the same
    operand shapes as a grid of its own, so row g equals the contraction of
    grid g alone bit for bit.
    """
    batch, n0 = weights[0].shape
    vals = vals.reshape(batch, n0, -1)
    # numpy hands BLAS a matrix of contiguous rows that do not overlap (any d = 2 sub-grid) as it
    # lies, and BLAS rounds as on a copy; other strides take numpy's own loop, which rounds otherwise
    if vals.strides[2] != vals.itemsize or vals.strides[1] < vals.itemsize * vals.shape[2]:
        vals = np.ascontiguousarray(vals)
    # weights of the trailing axes in the grid's row-major order
    if len(weights) > 1:
        tail_w = _broadcast(np.multiply, weights[1:]).reshape(batch, -1)
    else:
        tail_w = np.ones((batch, 1))
    return (weights[0][:, None, :] @ (vals @ tail_w[..., None])).reshape(batch)


# the families that are mixtures of product copulas, C(u) = sum_l mu_l
# prod_j F_j(u_j | l), each F_j a per-axis lookup
_MIXTURES = (EMPIRICAL, INDEPENDENCE, COMONOTONE, COUNTERMONOTONE_2D)


def _mixture(c: CopulaLike) -> tuple[Copula, int] | None:
    """``(base, wraps)`` when ``c`` is a :data:`_MIXTURES` copula under ``wraps`` survival wraps, else None."""
    wraps = 0
    while isinstance(c, SurvivalCopula):
        c, wraps = c.base, wraps + 1
    return (c, wraps) if c.family in _MIXTURES else None


def _mixture_sums(
    base: Copula, wraps: int, levels: list[np.ndarray], weights: list[np.ndarray], atoms: bool = False
) -> np.ndarray:
    """Per batch row, sum_l mu_l prod_j A_j(l), A_j(l) the sum of axis j's weights times F_j(level | l).

    Independence has one component, F(u) = u, and is its own survival
    copula.  The other factors are indicators 1[x_l <= u], which a survival
    wrap flips, F^(v) = 1 - F(1 - v): under k wraps 1[x_l <= t] (k even) or
    1[x_l > t] (k odd), t the level flipped k times by ``1.0 - v`` as
    ``SurvivalCopula._grid`` flips it, so every decision is the grid's.

    * empirical: l is the scenario, x_l its rank and mu_l its weight.  A
      ``searchsorted`` into the sorted ranks bins each level by the ranks at
      or below it; a weighted histogram of the bins, summed from either end,
      gives every scenario's A_j: O(m + n_j) per row and axis.
    * comonotone: x = s ~ U(0, 1) (the countermonotone copula's second axis
      takes 1[1 - s <= t] = 1[s >= 1 - t]).  Between two neighbours of a
      row's sorted thresholds every A_j is constant: l is such an interval,
      mu_l its length, and a histogram over the sorted positions gives A_j.

    Histogram bins add in input order and running sums left to right, so
    zero-weight padding leaves a row unchanged bit for bit.  A row holds
    about ten arrays of its bins (:func:`_row_chunks`).  With ``atoms``,
    axis j holds n_j + 1 levels e_i and n_j coordinates c_i, and A_j(l) =
    sum_i c_i (F(e_i | l) - F(e_{i+1} | l)): per component the 2^d-term
    increment is the product of these, so the sum is the atom-measure sum.
    """
    if base.family == INDEPENDENCE:
        terms = [w * (v[:, :-1] - v[:, 1:]) if atoms else w * v for v, w in zip(levels, weights)]
        return functools.reduce(np.multiply, [_row_sums(t) for t in terms])
    monotone = not atoms or all((e[:, 1:] <= e[:, :-1]).all() for e in levels)
    for _ in range(wraps):
        levels = [1.0 - v for v in levels]
    even = wraps % 2 == 0

    def axis_sums(bins, j, rows, n_bins, low):
        w = weights[j][rows]
        return _axis_atoms(bins, w, n_bins, low, monotone) if atoms else _axis_sums(bins, w, n_bins, low)

    if base.family == EMPIRICAL:
        ascending, position = base._rank_index
        m = len(base.rank_weights)
        per_row = m + 1 + max(t.shape[1] for t in levels)

        def chunk(rows):
            prod = base.rank_weights
            for j, t in enumerate(levels):
                # bins[i]: the ranks at or below t_i, so the scenario at sorted position q has r <= t_i iff q < bins[i]
                bins = np.searchsorted(ascending[j], t[rows], side="right")
                prod = prod * axis_sums(bins, j, rows, m + 1, even)[:, position[j]]
            # pairwise over each row's m terms; the pick above can leave the
            # rows strided, which numpy would add up in another order
            return np.ascontiguousarray(prod).sum(axis=1)

    else:
        # comonotone or countermonotone: on axis j the factor is on below its
        # threshold (low) or above it
        flipped = [base.family == COUNTERMONOTONE_2D and j == 1 for j in range(base.dim)]
        cuts = [1.0 - t if f else t for t, f in zip(levels, flipped)]
        per_row = n_bins = sum(t.shape[1] for t in cuts) + 2

        def chunk(rows):
            zeros = np.zeros((len(cuts[0][rows]), 1))
            every = np.concatenate([zeros, *(t[rows] for t in cuts), zeros + 1.0], axis=1)
            order = np.argsort(every, axis=1, kind="stable")
            at = np.empty_like(order)
            at[np.arange(len(order))[:, None], order] = np.arange(n_bins)
            prod = np.diff(np.take_along_axis(every, order, axis=1), axis=1)
            start = 1
            for j, t in enumerate(cuts):
                n = t.shape[1]
                prod *= axis_sums(at[:, start : start + n], j, rows, n_bins, even != flipped[j])
                start += n
            return _row_sums(prod)

    out = np.empty(len(levels[0]))
    for rows in _row_chunks(len(out), 10 * per_row):
        out[rows] = chunk(rows)
    return out


def _axis_sums(bins: np.ndarray, w: np.ndarray, n_bins: int, low: bool) -> np.ndarray:
    """Per row and q < n_bins - 1, the sum of w_i over the i with q < bins_i (``low``), or with bins_i <= q."""
    n_rows = len(bins)
    flat = (bins + n_bins * np.arange(n_rows)[:, None]).ravel()
    hist = np.bincount(flat, weights=w.ravel(), minlength=n_rows * n_bins).reshape(n_rows, n_bins)
    return hist[:, :0:-1].cumsum(axis=1)[:, ::-1] if low else hist[:, :-1].cumsum(axis=1)


def _axis_atoms(bins: np.ndarray, coords: np.ndarray, n_bins: int, low: bool, monotone: bool) -> np.ndarray:
    """Per row and q, sum_i c_i (F_i - F_{i+1}), F_i the factor of entry i that :func:`_axis_sums` tests.

    On non-increasing levels F is on for a prefix of the entries, so the sum
    is the coordinate where it turns off, picked with no cancellation; other
    levels take it by parts, sum_i F_i (c_i - c_{i-1}) with c_{-1} = c_n = 0.
    """
    if not monotone:
        return _axis_sums(bins, np.diff(coords, prepend=0.0, append=0.0), n_bins, low)
    on = _axis_sums(bins, np.ones(bins.shape), n_bins, low).astype(np.intp)
    picks = np.zeros((len(coords), coords.shape[1] + 2))
    picks[:, 1:-1] = coords
    return np.take_along_axis(picks, on, axis=1)


def _row_sums(x: np.ndarray) -> np.ndarray:
    """Each row's sum, added left to right, so that zeros anywhere leave it unchanged bit for bit."""
    return x.cumsum(axis=1)[:, -1] if x.shape[1] else np.zeros(len(x))


def atom_sums(c: CopulaLike, levels, coords) -> np.ndarray | None:
    """Per batch row, the sum over atoms of their coordinates' product times their mass; None unless ``c`` factors.

    Axis j holds n_j + 1 levels e_i and n_j coordinates c_i; the atom at
    (c_{i_0}, ...) has the 2^d-term increment of C over the box between the
    levels (e_{i_j + 1}) and (e_{i_j}) (:func:`_mixture_sums`).
    """
    mixture = _mixture(c)
    if mixture is None:
        return None
    levels = _as_axes(levels, c.dim, batched=True)
    return _mixture_sums(*mixture, levels, [np.asarray(x, dtype=float) for x in coords], atoms=True)


def default_grid_n(dim: int) -> int:
    """Grid resolution balancing Lipschitz error (constant <= d) against cost."""
    if dim <= 2:
        return 200
    if dim == 3:
        return 50
    return 20


def _checked_grid_n(dim: int, grid_n: int | None) -> int:
    """``grid_n``, or :func:`default_grid_n` when None; anything but an integer >= 2 raises DomainError."""
    if grid_n is None:
        return default_grid_n(dim)
    if not _is_integer(grid_n):
        raise DomainError(f"grid_n must be an integer, got {grid_n!r}")
    if grid_n < 2:
        raise DomainError(f"grid_n must be >= 2, got {grid_n}")
    return grid_n


def _unit_grid(dim: int, grid_n: int | None) -> np.ndarray:
    """The closed unit grid's axis 0, 1/grid_n, ..., 1; ``grid_n`` None takes :func:`default_grid_n`."""
    return np.linspace(0.0, 1.0, _checked_grid_n(dim, grid_n) + 1)


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
    axis = _unit_grid(c.dim, grid_n)
    # M - W peaks on the diagonal: off it, min(u) stays while every rounded
    # partial sum of the coordinates can only grow.  The sum is folded in
    # the grid's order, so this is the full grid's maximum bit for bit.
    diagonal_sum = functools.reduce(np.add, [axis] * c.dim)
    d_ul = float(np.max(axis - np.maximum(diagonal_sum - (c.dim - 1), 0.0)))
    # M - C peaks on the diagonal too: C is nondecreasing in every
    # coordinate, so the diagonal point at min(u) keeps M and has a C no
    # larger.  In floats, a parametric cdf equals its grid cells bit for bit,
    # so this is the full grid's maximum; an empirical diagonal sums the
    # weights in another order than its grid cells, and a survival copula's
    # inclusion-exclusion sum is not monotone, so for those it is that
    # maximum up to rounding.
    gap = axis - _diagonal(c, axis)
    d_uc = float(max(np.max(gap), 0.0))
    return d_ul, d_uc


def _diagonal(c: CopulaLike, u: np.ndarray) -> np.ndarray:
    """C(u, ..., u) at each level of ``u``: one pointwise batch.

    An empirical coupling under k wraps weighs the scenarios whose every rank
    is <= t (k even) or > t (k odd), t flipped as in :func:`_mixture_sums`:
    one sort of each scenario's largest (smallest) rank, then running weights.
    """
    mixture = _mixture(c)
    if mixture is None or mixture[0].family != EMPIRICAL:
        # the n one-cell grids of cdf, whose level checks and per-axis copies a unit grid axis does not need
        return c._grid([u[:, None]] * c.dim).reshape(len(u))
    base, wraps = mixture
    for _ in range(wraps):
        u = 1.0 - u
    even = wraps % 2 == 0
    key = base.ranks.max(axis=1) if even else base.ranks.min(axis=1)
    order = np.argsort(key, kind="stable")
    below = np.searchsorted(key[order], u, side="right")
    w = base.rank_weights[order]
    if even:
        return np.concatenate(([0.0], np.cumsum(w)))[below]
    return np.concatenate((np.cumsum(w[::-1])[::-1], [0.0]))[below]


def empirical_copula(s: ScenarioSet) -> Copula:
    """Rank-based empirical copula of a scenario set.

    Evaluation at ``u`` is the weighted fraction of scenarios whose scaled
    mid-ranks (cumulative weight below plus half the tied weight, in (0, 1])
    are componentwise <= u.  Grounded exactly; uniform margins hold
    exactly at the grid points k/m for equally weighted tie-free data.
    """
    if s.m < 2:
        raise DataError("empirical copula requires at least 2 scenarios")
    ranks = np.empty((s.m, s.dim))
    for i, (order, (dense, start)) in enumerate(zip(s.order, s.dense_ranks)):
        # each tie group's weights in the stable order, which is scenario order
        group_w = np.add.reduceat(s.weights[order], start)
        ranks[:, i] = (np.concatenate(([0.0], np.cumsum(group_w)[:-1])) + 0.5 * group_w)[dense]
    ranks.setflags(write=False)
    c = Copula(EMPIRICAL, s.dim, ranks=ranks, rank_weights=s.weights)
    # mid-ranks ascend with the losses, so the losses' order sorts them too;
    # any order of tied ranks bins every scenario alike (_empirical_grid)
    vars(c)["_rank_order"] = s.order
    return c


def kendall_tau(x: np.ndarray, y: np.ndarray, weights: np.ndarray) -> float:
    """Weighted pairwise Kendall tau (ties contribute zero concordance).

    The ordered pair (i, j) weighs w_i w_j and counts sign(x_i - x_j) *
    sign(y_i - y_j); the denominator is the pair weight (sum w)^2 - sum w^2.
    ``x``, ``y`` and ``weights`` are finite 1-D arrays of one length, the
    weights nonnegative; anything else is a ``DataError``.

    Exact in O(m log^2 m) time and O(m) memory.  In (x, y) order (one
    integer sort of the columns' dense ranks), a bottom-up weighted merge
    count (Knight 1966) gives the concordant weight C of the position pairs
    i < j whose y ranks ascend; each of its log m levels is one integer sort
    and one running sum.  The signed sum is then 2 C - sum_{i<j} w_i w_j plus
    the y-tied pair weight, less the x-tied pairs with distinct y, which (x, y)
    order counted as concordant.
    """
    x, y, w = (np.asarray(a, dtype=float) for a in (x, y, weights))
    if x.ndim != 1 or y.shape != x.shape or w.shape != x.shape:
        raise DataError(
            f"Kendall tau needs x, y and weights as 1-D arrays of one length, "
            f"got shapes {x.shape}, {y.shape} and {w.shape}"
        )
    if not (np.isfinite(x).all() and np.isfinite(y).all() and np.isfinite(w).all()):
        raise DataError("Kendall tau needs finite values and weights")
    if (w < 0.0).any():
        raise DataError("Kendall tau needs nonnegative weights")
    return _tau_of_ranks(_dense_ranks(x, column_order(x)), _dense_ranks(y, column_order(y)), w)


def _tau_of_ranks(x_ranks: tuple, y_ranks: tuple, w: np.ndarray) -> float:
    """:func:`kendall_tau` of two columns given by their :func:`_dense_ranks`."""
    den = float(w.sum() ** 2 - np.sum(w**2))
    if den <= 0.0:
        raise DataError("Kendall tau needs at least two scenarios with positive weight")
    (rx, _), (ry, y_starts) = x_ranks, y_ranks
    n_y = len(y_starts)
    xy = rx * n_y + ry
    order = np.argsort(xy)
    xs, xys, ranks, ws = rx[order], xy[order], ry[order], w[order]
    x_new = np.concatenate(([True], xs[1:] != xs[:-1]))
    xy_new = np.concatenate(([True], xys[1:] != xys[:-1]))
    x_tied = _run_pair_weight(ws, x_new) - _run_pair_weight(ws, xy_new)
    y_weight = np.bincount(ry, w, n_y)
    y_tied = float(np.sum(y_weight**2) - np.sum(w**2)) / 2.0
    return 2.0 * (2.0 * _concordant_weight(ranks, ws, n_y) - den / 2.0 + y_tied - x_tied) / den


def _run_pair_weight(w: np.ndarray, starts: np.ndarray) -> float:
    """Sum of w_i w_j over pairs i < j inside each run; ``starts`` flags run heads."""
    heads = np.flatnonzero(starts)
    run_w = np.add.reduceat(w, heads)
    return float(np.sum(run_w**2 - np.add.reduceat(w**2, heads))) / 2.0


def _concordant_weight(ranks: np.ndarray, w: np.ndarray, n_ranks: int) -> float:
    """Sum of w_i w_j over positions i < j with ranks_i < ranks_j (ranks in [0, n_ranks)).

    Bottom-up merge sort: a pair is counted at the level where i sits in the
    left half and j in the right half of one block.  The arrays are kept
    sorted by rank inside each level-``width`` block, so at every level a
    block holds indices [b 2 width, (b + 1) 2 width) and its halves are the
    previous level's blocks.  One sort by ``block * 2 n_ranks + 2 rank +
    is_left`` merges each block's halves (a stable sort, since numpy's
    timsort merges the sorted runs it finds), placing right-half elements ahead
    of left-half ones of equal rank, so the running weight of left-half
    elements before a right-half element j is the left weight of its block
    below rank_j (less the running weight at the block's start).
    """
    m = len(ranks)
    index = np.arange(m)
    rank2, ws = 2 * ranks, w
    total = 0.0
    shift = 0  # width = 2**shift
    while (1 << shift) < m:
        half = index >> shift
        is_left = (half & 1) ^ 1
        key = (half >> 1) * (2 * n_ranks) + rank2 + is_left
        by_key = np.argsort(key, kind="stable")
        rank2, ws, is_left = rank2[by_key], ws[by_key], is_left[by_key]
        left_w = ws * is_left
        right_w = ws - left_w
        below = np.cumsum(left_w) - left_w
        starts = index[:: 2 << shift]
        # no ``@``: OpenBLAS threads a long dot product, and on a busy host that costs more than it saves
        total += float(np.sum(right_w * below) - np.sum(np.add.reduceat(right_w, starts) * below[starts]))
        shift += 1
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
    # each column's dense ranks once per set (shared with empirical_copula), for all its pairs
    ranks = s.dense_ranks
    taus = [_tau_of_ranks(ranks[i], ranks[j], s.weights) for i, j in itertools.combinations(range(s.dim), 2)]
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
    dependence is compatible with the data's empirical copula.  Every copula
    is 0 wherever a coordinate is 0, so only the interior levels 1/n, ..., 1
    are evaluated; the sum of squares is divided by all (n + 1)^d cells.
    """
    if e.dim != c.dim:
        raise DimensionError(f"dimension mismatch: {e.dim} vs {c.dim}")
    axis = _unit_grid(e.dim, grid_n)
    diff = e.cdf_grid([axis[1:]] * e.dim)
    diff -= c.cdf_grid([axis[1:]] * e.dim)
    return float(np.square(diff, out=diff).sum() / len(axis) ** e.dim)


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
