"""The signed form's compatibility name: the survival half of ``scalar_risk.gamma_forms``.

``gamma_signed_2d`` is kept from when only two dimensions were supported;
it takes losses of either sign in any dimension and makes no ls form.
"""

from __future__ import annotations

from .portfolio import ScenarioSet
from .scalar_risk import JointRiskSpec, _step_levels, _step_survival_form


def gamma_signed_2d(s: ScenarioSet, spec: JointRiskSpec) -> float:
    """``gamma_forms(s, spec)[0]``: joint risk of a loss portfolio of either sign; exact on scenario data, can be negative."""
    return _step_survival_form(spec.cstar, _step_levels(s, spec))
