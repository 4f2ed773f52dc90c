"""The signed form's compatibility name: ``scalar_risk.gamma_survival_form``.

``gamma_signed_2d`` is kept from when only two dimensions were supported;
it takes losses of either sign in any dimension and makes no ls form.
"""

from __future__ import annotations

from .portfolio import ScenarioSet
from .scalar_risk import JointRiskSpec, gamma_survival_forms


def gamma_signed_2d(s: ScenarioSet, spec: JointRiskSpec) -> float:
    """``gamma_survival_form(s, spec)``: joint risk of a loss portfolio of either sign; exact on scenario data, can be negative."""
    return gamma_survival_forms([s], spec)[0]
