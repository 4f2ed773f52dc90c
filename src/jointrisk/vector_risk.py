"""Vector-valued joint risk measures: one capital figure per marginal.

Each component embeds its marginal into the unit portfolio (all other
positions held at one unit of loss) and evaluates the scalar measure there,
which collapses to an exact one-dimensional step integral of the distorted
marginal survival function.  The tail specializations (conditional tail means
and tail distortion measures) are evaluated the same way.  Every measure
takes losses of either sign except :func:`mtdrm`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .copula import CopulaLike, survival_copula
from .distortion import ConfidenceBand, blend_diagnostics, build_distortions
from .errors import DataError, DegenerateTailError, DimensionError
from .portfolio import ScenarioSet, _check_level, _var_at
from .scalar_risk import DistortionLike, JointRiskSpec

@dataclass(frozen=True)
class VectorRiskResult:
    """Per-marginal risk figures (currency units) plus method diagnostics."""

    components: tuple[float, ...]
    method: str
    diagnostics: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "components": list(self.components),
            "method": self.method,
            "diagnostics": dict(self.diagnostics),
        }


def _integrals(s: ScenarioSet, integrand) -> tuple[float, ...]:
    """Each column's exact integral of ``integrand(i, left, survival)`` over its :func:`marginal_cells`.

    For a distortion g of the survival that is the Choquet integral, of
    g(S(t)) over [0, max) less that of 1 - g(S(t)) over [min, 0).
    """
    return tuple(
        float(np.asarray(integrand(i, left, sv), dtype=float) @ widths) if len(widths) else 0.0
        for i, (left, sv, widths) in enumerate(s.steps.cells())
    )


def h_vector(s: ScenarioSet, spec: JointRiskSpec) -> VectorRiskResult:
    """Componentwise embedding of the scalar measure: integral of g_i(S_i).

    Identical (to float accumulation) to evaluating the scalar measure on the
    portfolio with marginal i kept and every other position pinned at one
    unit, by the uniform margins of the coupling copula.
    """
    if s.dim != spec.dim:
        raise DimensionError(f"portfolio dimension {s.dim} != spec dimension {spec.dim}")
    return VectorRiskResult(_integrals(s, lambda i, _, sv: spec.distortions[i](sv)), "h_vector")


def mixture_var_cvar(
    s: ScenarioSet,
    c: CopulaLike,
    band: ConfidenceBand,
    kinds: str | Sequence[str] = "var",
    grid_n: int | None = None,
    blend: dict[str, float] | None = None,
) -> VectorRiskResult:
    """Quantile / expected-shortfall mixture at the dependence-adjusted level.

    The confidence level is blended between the band endpoints according to
    the copula's distance from the comonotone bound, then each component is
    the step or ramp distortion integral of its marginal survival function.
    A caller that already holds ``blend_diagnostics(c, band, grid_n)`` passes
    it as ``blend`` and saves a second Frechet grid.
    """
    if c.dim != s.dim:
        raise DimensionError(f"copula dimension {c.dim} != portfolio dimension {s.dim}")
    if blend is None:
        blend = blend_diagnostics(c, band, grid_n)
    gs = build_distortions(kinds, blend["alpha_c"], s.dim, tail_only=True)
    comps = _integrals(s, lambda i, _, sv: gs[i](sv))
    return VectorRiskResult(comps, "mixture_var_cvar", {**blend, "kinds": [g.kind for g in gs]})


def mtce(s: ScenarioSet, c: CopulaLike, q: float) -> VectorRiskResult:
    """Tail conditional expectations given joint exceedance of the q-quantiles.

    Component i integrates the survival copula evaluated at the tail weight
    alpha = 1 - q in every slot except i, where the (capped) marginal survival
    enters; normalization is the survival copula at (alpha, ..., alpha).
    Degenerate joint tails, whose mass is within inclusion-exclusion
    rounding of zero, raise rather than return a silent zero or noise.
    """
    if c.dim != s.dim:
        raise DimensionError(f"copula dimension {c.dim} != portfolio dimension {s.dim}")
    _check_level(q, "q")
    alpha = 1.0 - q
    chat = survival_copula(c)
    p = chat.cdf([alpha] * s.dim)
    # the 2^d-term inclusion-exclusion of a survival copula leaves a rounding
    # residue of a few ulps where the joint tail is empty
    if p <= 2**s.dim * np.finfo(float).eps:
        raise DegenerateTailError(
            f"joint tail has no copula mass at level q={q} "
            f"(survival copula value {p:.3g} is within rounding of 0)"
        )

    def capped(i: int, _, sv: np.ndarray) -> np.ndarray:
        axes = [np.array([alpha])] * s.dim
        axes[i] = np.minimum(sv, alpha)
        return chat.cdf_grid(axes).ravel() / p

    return VectorRiskResult(_integrals(s, capped), "mtce", {"q": q, "alpha": alpha, "tail_copula_mass": p})


def mtdrm(
    s: ScenarioSet,
    distortions: Sequence[DistortionLike],
    q: float | None = None,
) -> VectorRiskResult:
    """Tail distortion risk measure over a scenario-defined conditioning region.

    With ``q`` None the region is the whole space, which reproduces the
    classic componentwise distortion measure; a ``q`` in (0, 1) restricts to
    the joint exceedance, the scenarios strictly above every marginal's
    q-quantile (quantile ties fall outside the tail).  All integrals are
    exact step sums on the conditioned survival functions.

    The tail-weighted survival of marginal i at each cell's left edge,
    sum_k w_k 1[x_ki > left] over the tail scenarios k, is read off a reverse
    cumulative sum of the tail weights in loss order: O(m log m) time and
    O(m) memory.
    """
    # a column below 0 starts with the level-1 cell, whose conditioned
    # survival is not read off its left edge
    if not s.nonnegative:
        raise DataError("mtdrm requires nonnegative losses")
    if len(distortions) != s.dim:
        raise DimensionError(f"expected {s.dim} distortions, got {len(distortions)}")

    if q is None:
        in_tail = np.ones(s.m, dtype=bool)
    else:
        _check_level(q, "q")
        quantiles = np.array([_var_at(values, tail, q) for values, tail in s.steps.columns()])
        in_tail = np.all(s.losses > quantiles[None, :], axis=1)
    tail_losses, tail_w = s.losses[in_tail], s.weights[in_tail]
    # every sum runs in an order fixed by values, not by scenario position, so
    # relabeling the scenarios leaves each component unchanged to the last bit
    p_tail = float(np.sort(tail_w).sum())
    if p_tail <= 0.0:
        raise DegenerateTailError(
            f"tail region is empty on the data (joint exceedance at q={q})"
        )

    def joint(i: int, left: np.ndarray) -> np.ndarray:
        col = tail_losses[:, i]
        order = np.lexsort((tail_w, col))
        # above[k]: tail weight of the k-th smallest tail loss and every one after it
        above = np.append(np.cumsum(tail_w[order][::-1])[::-1], 0.0)
        return above[np.searchsorted(col[order], left, side="right")]

    comps = tuple(c / p_tail for c in _integrals(s, lambda i, left, _: distortions[i](joint(i, left))))
    diag = {"region": "whole_space", "tail_probability": p_tail}
    if q is not None:
        diag.update(region="joint_exceedance", q=q)
    return VectorRiskResult(comps, "mtdrm", diag)
