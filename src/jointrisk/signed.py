"""Scalar joint risk of a portfolio with losses of either sign, in any dimension.

Over losses of either sign the measure's integral splits along each axis at
0; on an axis' negative cells it subtracts the integrand with that axis at
level g(1) = 1, which supplies the coupling's own lower-dimensional margins.
So each axis carries one signed weight vector over the step grid's level
entries (``scalar_risk._step_levels``): a positive cell's width at its own
entry, a negative cell's width at its entry and minus their sum at entry 0.
The value is one ``contract`` of the coupling copula with those weights
(``scalar_risk._step_survival_form``).  Each axis passes only the runs of
the entries from its first to its last nonzero weight, so the coupling is
evaluated on those alone, and on nonnegative data the value equals the
nonnegative evaluator bit for bit.  The name ``gamma_signed_2d`` is kept for
compatibility from when only two dimensions were supported.  That earlier
form subtracted the distorted marginal level instead, which equals the
coupling's margin only for a true copula; values under the empirical
coupling with a continuous distortion change with this form.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError
from .portfolio import ScenarioSet
from .scalar_risk import JointRiskSpec, _step_levels, _step_survival_form


def gamma_signed_2d(s: ScenarioSet, spec: JointRiskSpec) -> float:
    """Joint risk of a loss portfolio of either sign and any dimension; exact on scenario data, can be negative."""
    if s.dim != spec.dim:
        raise DimensionError(f"portfolio dimension {s.dim} != spec dimension {spec.dim}")
    st = _step_levels(s, spec)
    spans, weights = [], []
    for v, c, w in zip(st.values, st.cut, st.widths):
        # an axis' k cells covering [min, 0) have its first k values as left
        # edges, at entries 1 to k; entry 0 is the level g(1) = 1 below them
        k = int(np.count_nonzero(v < 0.0))
        w_neg = np.diff(np.concatenate((v[:k], [0.0])))
        omega = np.zeros(v.size + 1)
        omega[c] = w
        omega[1 : k + 1] += w_neg
        omega[0] -= w_neg.sum()
        nonzero = np.flatnonzero(omega)
        span = slice(nonzero[0], nonzero[-1] + 1) if nonzero.size else slice(0, 0)
        spans.append(span)
        weights.append(omega[span])
    return _step_survival_form(spec.cstar, st, spans, weights)
