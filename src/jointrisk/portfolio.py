"""Discrete weighted scenario portfolios, their marginal step functions, quantiles and tail averages.

A portfolio is a finite list of joint loss scenarios with positive weights
summing to one.  All distributional queries (survival functions, quantiles,
tail averages) are exact finite sums over the scenario atoms.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataError, DimensionError, DomainError

_WEIGHT_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class ScenarioSet:
    """Immutable weighted scenario matrix: m rows of d losses (currency units)."""

    names: tuple[str, ...]
    losses: np.ndarray   # shape (m, d)
    weights: np.ndarray  # shape (m,), positive, sums to 1

    @property
    def m(self) -> int:
        return self.losses.shape[0]

    @property
    def dim(self) -> int:
        return self.losses.shape[1]

    @functools.cached_property
    def nonnegative(self) -> bool:
        # the set is immutable, so one scan holds for its lifetime; a min
        # reduction builds no boolean temporary (a NaN still reads False)
        return bool(self.losses.min(initial=0.0) >= 0.0)

    @functools.cached_property
    def order(self) -> np.ndarray:
        """Each column's :func:`column_order`, (d, m) and read-only: the one sort behind steps and ranks."""
        order = column_order(self.losses)
        order.setflags(write=False)
        return order

    @functools.cached_property
    def dense_ranks(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Each column's :func:`_dense_ranks`, read off :attr:`order`: shared by the fits and the empirical copula."""
        ranks = tuple(_dense_ranks(self.losses[:, i], order) for i, order in enumerate(self.order))
        for a in itertools.chain.from_iterable(ranks):
            a.setflags(write=False)
        return ranks

    @functools.cached_property
    def steps(self) -> "Steps":
        """The :class:`Steps` of every column, read off :attr:`order`."""
        d, m = self.dim, self.m
        flat = (self.order + np.arange(0, d * m, m)[:, None]).ravel()
        return steps(self.losses.T.ravel(), np.full(d, m), np.tile(self.weights, d), flat)

    def with_losses(self, losses: np.ndarray) -> "ScenarioSet":
        """Same names/weights, a read-only copy of a new loss matrix of identical shape; must be finite."""
        losses = np.array(losses, dtype=float, order="C")
        if losses.shape != self.losses.shape:
            raise DimensionError(
                f"replacement losses have shape {losses.shape}, expected {self.losses.shape}"
            )
        if not np.all(np.isfinite(losses)):
            raise DataError("losses must be finite")
        # a copy the caller cannot write into keeps the cached steps valid
        losses.setflags(write=False)
        return ScenarioSet(self.names, losses, self.weights)


def scenario_set(
    losses,
    weights=None,
    names: Sequence[str] | None = None,
) -> ScenarioSet:
    """Build a validated :class:`ScenarioSet`.

    Parameters
    ----------
    losses : array-like, shape (m, d)
        Loss amounts per scenario and asset; must be finite.  A 1-D input is
        treated as a single-asset portfolio.
    weights : array-like, shape (m,), optional
        Positive scenario weights.  Uniform when omitted.  Weights are
        renormalized to sum to one (tolerance 1e-12 before renormalizing is
        considered already normalized).
    names : sequence of str, optional
        Asset labels; defaults to ``x1 .. xd``.
    """
    a = np.asarray(losses, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise DataError(f"losses must be a non-empty (m, d) matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DataError("losses must be finite")
    m, d = a.shape

    if weights is None:
        w = np.full(m, 1.0 / m)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != (m,):
            raise DataError(f"weights must have shape ({m},), got {w.shape}")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise DataError("weights must be finite and strictly positive")
        total = float(w.sum())
        if abs(total - 1.0) > _WEIGHT_TOL:
            w = w / total
    w = w.copy()

    if names is None:
        names = tuple(f"x{i + 1}" for i in range(d))
    else:
        names = tuple(str(n) for n in names)
        if len(names) != d:
            raise DataError(f"expected {d} names, got {len(names)}")

    a = a.copy()
    a.setflags(write=False)
    w.setflags(write=False)
    return ScenarioSet(names, a, w)


def _is_integer(value) -> bool:
    """An ``int`` or NumPy integer, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_index(s: ScenarioSet, i: int) -> None:
    if not _is_integer(i) or not 0 <= i < s.dim:
        raise DimensionError(f"marginal index must be an integer in [0, {s.dim}), got {i!r}")


@dataclass(frozen=True, eq=False)
class Steps:
    """The step survival functions of K weighted columns, concatenated column by column.

    ``values`` holds the sorted distinct values of every column, column 0
    first, ``tail[j]`` the probability that its column exceeds ``values[j]``
    (exactly 0 at each column's maximum), and ``counts[k]`` the number of
    distinct values of column k.  The arrays are read-only, so the views
    may share them.  Every consumer of survival values reads them off
    ``tail``, through a view, so that one mathematical quantity always maps
    to one float: re-deriving S(t) through a different summation order can
    land on the other side of a jump of a discontinuous (empirical) copula
    evaluated at it.
    """

    values: np.ndarray
    tail: np.ndarray
    counts: np.ndarray

    def columns(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """``(values, tail)`` of each column: its :func:`marginal_steps`."""
        return _split((self.values, self.tail), self.counts)

    def cells(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """``(left, survival, widths)`` of each column: its :func:`marginal_cells`, the survival form's cells.

        A column's cells cover [min(0, lowest), max), each at the survival
        value of its left edge.  A column whose lowest value is negative
        also has one cell at survival value 1, placed first, whose width is
        that lowest value: below 0 the integral subtracts the integrand at
        level 1.
        """
        *flat, counts = self._flat_cells()
        return _split(flat, counts)

    def _flat_cells(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(left, survival, widths, counts)``: every column's cells, concatenated, ``counts[k]`` of column k."""
        # each positive value is the right edge of one cell, from the value
        # below it or, at a column's lowest value, from 0; the cell's survival
        # is the tail of the value below it, or 1.  In a column whose lowest
        # value is negative every value ends a cell: the lowest ends the
        # level-1 cell, from 0
        first = self.counts.cumsum() - self.counts
        below = np.concatenate(([0.0], self.values[:-1]))
        below[first] = 0.0
        tail_below = np.concatenate(([1.0], self.tail[:-1]))
        tail_below[first] = 1.0
        cell = self.values > 0.0
        negative = self.values[first] < 0.0
        if negative.any():
            cell |= np.repeat(negative, self.counts)
        left = below[cell]
        return left, tail_below[cell], self.values[cell] - left, np.add.reduceat(cell, first, dtype=np.intp)


def steps(values: np.ndarray, lengths: np.ndarray, weights: np.ndarray, order: np.ndarray | None = None) -> Steps:
    """The :class:`Steps` of K >= 1 weighted columns.

    ``values`` holds the K columns concatenated, column k's ``lengths[k]``
    (at least 1) entries after those of the columns before it, and
    ``weights`` the weight of each entry.  ``order`` lists the positions of
    ``values`` column by column, each column's in stable ascending order
    (when omitted, a stable sort of each column as one row of a padded
    table).  That order is unique, so each column's group weights and prefix
    sums add the same floats as a sort of it alone.
    """
    ends = np.cumsum(lengths)
    if order is None:
        # +inf padding sorts after a row's finite values, which keep the order of a stable sort of their column
        table, in_row = _padded(np.asarray(lengths))
        table.fill(np.inf)
        table[in_row] = values
        order = table.argsort(axis=1, kind="stable")[in_row] + np.repeat(ends - lengths, lengths)
        del table  # as large as the prefix-sum table below
    sx = values[order]
    new = np.empty(len(sx), dtype=bool)
    new[0] = True
    np.not_equal(sx[1:], sx[:-1], out=new[1:])
    new[ends[:-1]] = True
    starts = new.nonzero()[0]
    counts = np.add.reduceat(new, ends - lengths, dtype=np.intp)
    # one column per row, zeros after its last group: a row's prefix sums
    # are the cumulative sums of that column's group weights
    placed, in_row = _padded(counts)
    placed[in_row] = np.add.reduceat(weights[order], starts)
    tail = np.maximum(1.0 - placed.cumsum(axis=1)[in_row], 0.0)
    tail[counts.cumsum() - 1] = 0.0
    table = Steps(sx[starts], tail, counts)
    for a in (table.values, table.tail, table.counts):
        a.setflags(write=False)
    return table


def _padded(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A zero (K, max count) table and the mask of each row's first ``counts[k]`` entries.

    Assigning a concatenation of K runs of lengths ``counts`` through the
    mask puts run k at the start of row k.
    """
    n = int(counts.max())
    return np.zeros((len(counts), n)), np.arange(n) < counts[:, None]


def column_order(losses: np.ndarray) -> np.ndarray:
    """The stable (so unique) ascending order of each column of ``losses`` (m,) or (m, d): shape (m,) or (d, m)."""
    return np.argsort(losses.T, axis=-1, kind="stable")


def _dense_ranks(v: np.ndarray, order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each value's index among the distinct values of ``v``, and where each starts in ``v[order]`` (sorted)."""
    sv = v[order]
    new = np.ones(len(sv), dtype=bool)
    np.not_equal(sv[1:], sv[:-1], out=new[1:])
    ranks = np.empty(len(sv), dtype=np.intp)
    ranks[order] = new.cumsum() - 1
    return ranks, new.nonzero()[0]


def _split(arrays: Sequence[np.ndarray], counts: np.ndarray) -> list[tuple[np.ndarray, ...]]:
    """Arrays concatenated column by column, split into one tuple of views per column."""
    cuts = counts.cumsum()[:-1]
    return list(zip(*(np.split(a, cuts) for a in arrays)))


def marginal_steps(s: ScenarioSet, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Breakpoints and tail probabilities of marginal ``i``.

    Returns ``(values, tail)`` where ``values`` are the sorted distinct losses
    and ``tail[j] = P(X_i > values[j])``.  The survival function is 1 below
    ``values[0]``, equals ``tail[j]`` on ``[values[j], values[j+1])`` and 0 at
    and above the maximum (right-continuous step function).  Both arrays are
    read-only views of ``s.steps``.
    """
    _check_index(s, i)
    return s.steps.columns()[i]


def marginal_cells(s: ScenarioSet, i: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integration cells of marginal ``i``: its entry of :meth:`Steps.cells`.

    Returns ``(left, survival, widths)``: each cell's left edge, the survival
    value on the cell (taken at the left edge) and its width, covering
    [min(0, lowest), max).  A negative lowest loss gives a first cell at
    survival 1 with left edge 0 and that loss as its width.  All three are
    empty when every loss is 0.
    """
    _check_index(s, i)
    return s.steps.cells()[i]


def _check_level(level: float, name: str) -> None:
    # written so that a NaN fails the test
    if not 0.0 < level < 1.0:
        raise DomainError(f"{name} must lie in (0, 1), got {level}")


def var(s: ScenarioSet, i: int, alpha: float) -> float:
    """Left-continuous generalized quantile inf{x : P(X_i <= x) >= alpha}."""
    _check_level(alpha, "confidence level")
    return _var_at(*marginal_steps(s, i), alpha)


def _var_at(values: np.ndarray, tail: np.ndarray, alpha: float) -> float:
    """:func:`var` of one column's :func:`marginal_steps`; alpha is not checked."""
    # a column's last tail is exactly 0, so its last P(X <= v) is exactly 1
    j = int(np.searchsorted(1.0 - tail, alpha - _WEIGHT_TOL, side="left"))
    return float(values[min(j, len(values) - 1)])


def cvar(s: ScenarioSet, i: int, alpha: float) -> float:
    """Average of the quantile function over (alpha, 1), as an exact step sum.

    When the tail mass 1 - alpha falls inside the top atom this degenerates to
    the maximum loss (the limit of the defining integral).
    """
    _check_level(alpha, "confidence level")
    return _cvar_at(*marginal_steps(s, i), alpha)


def _cvar_at(values: np.ndarray, tail: np.ndarray, alpha: float) -> float:
    """:func:`cvar` of one column's :func:`marginal_steps`; alpha is not checked."""
    cum = 1.0 - tail
    left = np.concatenate(([0.0], cum[:-1]))
    seg = np.maximum(np.minimum(cum, 1.0) - np.maximum(left, alpha), 0.0)
    return float(seg @ values / (1.0 - alpha))
