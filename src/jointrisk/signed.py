"""Scalar joint risk for two-dimensional portfolios with losses of either sign.

The nonnegative evaluator extends to signed bounded losses through a
four-quadrant decomposition: the positive quadrant keeps the plain distorted
tail integrand, while each quadrant touching negative loss levels subtracts
the matching marginal terms (plus one on the doubly negative quadrant).  All
four integrands vanish outside the scenario range, so the improper integrals
reduce to exact cell sums.  The four quadrants are blocks of the scalar
forms' step grid (``scalar_risk._step_grid``): one copula evaluation per
run of equal distorted step levels on each axis, split at 0.  On nonnegative
data the three correction quadrants are empty and the value coincides
bit-for-bit with the nonnegative evaluator.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError
from .portfolio import ScenarioSet
from .scalar_risk import JointRiskSpec, _full_grid, _step_grid, _step_survival_form


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
    run_grid, run, levels, values, pos, w_pos = _step_grid(s, spec)
    # an axis' k cells covering [min, 0) have its first k values as left
    # edges, at levels 1 to k; below the smallest loss the level g(1) = 1
    # makes every correction integrand vanish
    neg, w_neg = [], []
    for v in values:
        k = int(np.count_nonzero(v < 0.0))
        neg.append(slice(1, k + 1))
        w_neg.append(np.diff(np.concatenate((v[:k], [0.0]))))
    gp, gn = ([v[cut] for v, cut in zip(levels, cuts)] for cuts in (pos, neg))

    total = 0.0
    # positive quadrant: the nonnegative evaluator's survival form, run by run
    total += _step_survival_form(run_grid, run, pos, w_pos)
    grid = _full_grid(run_grid, run)
    # x1 >= 0, x2 < 0: subtract the first marginal term
    if w_pos[0].size and w_neg[1].size:
        integrand = grid[pos[0], neg[1]] - gp[0][:, None]
        total += float(w_pos[0] @ integrand @ w_neg[1])
    # x1 < 0, x2 >= 0: subtract the second marginal term
    if w_neg[0].size and w_pos[1].size:
        integrand = grid[neg[0], pos[1]] - gp[1][None, :]
        total += float(w_neg[0] @ integrand @ w_pos[1])
    # both negative: subtract both marginal terms and add back the unit mass
    if w_neg[0].size and w_neg[1].size:
        integrand = grid[neg[0], neg[1]] - gn[0][:, None] - gn[1][None, :] + 1.0
        total += float(w_neg[0] @ integrand @ w_neg[1])
    return total
