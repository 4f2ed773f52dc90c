"""Plain reference implementations that several test modules check the package against.

Each is the construction in its most direct form, with no input validation:
the tests call them on inputs they built themselves.
"""

import itertools
from unittest import mock

import numpy as np

from jointrisk import copula
from jointrisk.copula import _contract
from jointrisk.portfolio import marginal_cells, marginal_steps


def box_increment(c, a, b) -> float:
    """Mass the copula assigns to the box (a, b]: the alternating sum of C over its 2^d corners."""
    total = 0.0
    for sel in itertools.product((False, True), repeat=c.dim):
        value = float(c.cdf(np.where(sel, a, b)))
        total += -value if sum(sel) % 2 else value
    return total


def frechet_lower(u) -> np.ndarray:
    """Pointwise lower Frechet-Hoeffding bound max(sum(u) - d + 1, 0) over the last axis."""
    a = np.asarray(u, dtype=float)
    return np.maximum(a.sum(axis=-1) - (a.shape[-1] - 1), 0.0)


def frechet_upper(u) -> np.ndarray:
    """Pointwise upper Frechet-Hoeffding bound min(u) over the last axis."""
    return np.min(np.asarray(u, dtype=float), axis=-1)


def clamp_split(s, clamps):
    """The comonotone split of each loss L at its column's clamp c: (min(L, c), L - min(L, c)).

    The two parts are non-decreasing in L and sum back to L with no rounding.
    """
    first = np.minimum(s.losses, np.asarray(clamps, dtype=float))
    return s.with_losses(first), s.with_losses(s.losses - first)


def marginal_survival(s, i, t):
    """P(X_i > t) read off :func:`marginal_steps`: 1 below the lowest loss, 0 at and above the highest."""
    values, tail = marginal_steps(s, i)
    idx = np.searchsorted(values, t, side="right") - 1
    out = np.where(idx >= 0, tail[np.maximum(idx, 0)], 1.0)
    return float(out) if np.ndim(t) == 0 else out


def level_runs(levels, widths):
    """Each run of equal neighbouring levels: its first cell and its widths summed in cell order."""
    starts = np.flatnonzero(np.concatenate(([True], levels[1:] != levels[:-1])))
    return starts, np.array([np.cumsum(w)[-1] for w in np.split(widths, starts[1:])])


def rise_and_fall(u):
    """A non-monotone distortion with plateaus: equal levels need not be neighbours."""
    return np.round(np.sin(3.0 * np.asarray(u, dtype=float)), 1)


def cell_grid_survival(s, spec):
    """The survival form of a nonnegative portfolio off one ``cdf_grid`` over its marginal cells.

    Each run of equal distorted levels is one grid entry, weighed by its
    cells' widths summed in cell order.
    """
    levels, widths = [], []
    for i, g in enumerate(spec.distortions):
        _, sv, w = marginal_cells(s, i)
        lv = np.asarray(g(sv), dtype=float)
        starts = np.flatnonzero(np.concatenate(([True], lv[1:] != lv[:-1])))
        levels.append(lv[starts])
        widths.append(np.array([np.cumsum(run)[-1] for run in np.split(w, starts[1:])]))
    return float(_contract(spec.cstar.cdf_grid(levels)[None], [w[None] for w in widths])[0])


def two_row_chunk(f) -> int:
    """A ``copula._CHUNK`` that cuts ``f()``'s batches into chunks of two rows: twice the largest per-row count it asks for.

    A batch of three rows or more then has a chunk edge inside it; calls that
    ask for fewer elements per row take more rows per chunk.
    """
    with mock.patch.object(copula, "_row_chunks", wraps=copula._row_chunks) as spy:
        f()
    return 2 * max((call.args[1] for call in spy.call_args_list), default=1)
