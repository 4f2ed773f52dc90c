"""Scalar joint risk for two-dimensional portfolios with losses of either sign.

The nonnegative evaluator extends to signed bounded losses through a
four-quadrant decomposition: the positive quadrant keeps the plain distorted
tail integrand, while each quadrant touching negative loss levels subtracts
the matching marginal terms (plus one on the doubly negative quadrant).  All
four integrands vanish outside the scenario range, so the improper integrals
reduce to exact cell sums, and on nonnegative data the three correction
quadrants are empty: the value then coincides bit-for-bit with the
nonnegative evaluator.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError
from .portfolio import ScenarioSet, marginal_cells, marginal_steps
from .scalar_risk import JointRiskSpec, _contract


def _negative_cells(s: ScenarioSet, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Left-edge survival values and widths of the cells covering [min, 0).

    Empty for a nonnegative marginal.  Cells below the smallest loss carry
    survival one and make every correction integrand vanish identically, so
    they are omitted rather than evaluated.
    """
    values, tail = marginal_steps(s, i)
    k = int(np.count_nonzero(values < 0.0))
    if k == 0:
        return np.empty(0), np.empty(0)
    # the left edges are the first k sorted distinct values, whose
    # survival levels are the first k tails
    return tail[:k], np.diff(np.concatenate((values[:k], [0.0])))


def gamma_signed_2d(s: ScenarioSet, spec: JointRiskSpec) -> float:
    """Joint risk of a (possibly negative) two-dimensional loss portfolio.

    Exact on scenario data; can be negative.  Only the two-dimensional
    decomposition is implemented: higher-dimensional signed portfolios are
    rejected rather than extrapolated.
    """
    if s.dim != 2:
        raise DimensionError(
            f"signed evaluation supports dimension 2 only, got dimension {s.dim}"
        )
    if spec.dim != 2:
        raise DimensionError(f"spec dimension {spec.dim} != 2")
    _, sv_pos, w_pos = zip(*(marginal_cells(s, i) for i in range(2)))
    sv_neg, w_neg = zip(*(_negative_cells(s, i) for i in range(2)))
    # one grid over each axis' negative-side levels followed by its
    # positive-side ones: the four quadrants are its blocks
    levels = [
        np.asarray(g(np.concatenate((neg, pos))), dtype=float)
        for g, neg, pos in zip(spec.distortions, sv_neg, sv_pos)
    ]
    grid = spec.cstar.cdf_grid(levels)
    k1, k2 = (len(w) for w in w_neg)
    gn = [levels[0][:k1], levels[1][:k2]]
    gp = [levels[0][k1:], levels[1][k2:]]

    total = 0.0
    # positive quadrant: same cells and accumulation as the nonnegative evaluator
    if len(w_pos[0]) and len(w_pos[1]):
        total += float(_contract(grid[None, k1:, k2:], [w_pos[0][None], w_pos[1][None]])[0])
    # x1 >= 0, x2 < 0: subtract the first marginal term
    if len(w_pos[0]) and k2:
        integrand = grid[k1:, :k2] - gp[0][:, None]
        total += float(w_pos[0] @ integrand @ w_neg[1])
    # x1 < 0, x2 >= 0: subtract the second marginal term
    if k1 and len(w_pos[1]):
        integrand = grid[:k1, k2:] - gp[1][None, :]
        total += float(w_neg[0] @ integrand @ w_pos[1])
    # both negative: subtract both marginal terms and add back the unit mass
    if k1 and k2:
        integrand = grid[:k1, :k2] - gn[0][:, None] - gn[1][None, :] + 1.0
        total += float(w_neg[0] @ integrand @ w_neg[1])
    return total
