"""Vector-valued joint risk measures: one capital figure per marginal.

Each component embeds its marginal into the unit portfolio (all other
positions held at one unit of loss) and evaluates the scalar measure there,
which collapses to an exact one-dimensional step integral of the distorted
marginal survival function.  The tail specializations (conditional tail means
and tail distortion measures) are evaluated the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .copula import CopulaLike, survival_copula
from .distortion import ConfidenceBand, blend_diagnostics, build_distortions
from .errors import DataError, DegenerateTailError, DimensionError, DomainError
from .portfolio import ScenarioSet, _var_at
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


def _require_nonnegative(s: ScenarioSet) -> None:
    if not s.nonnegative:
        raise DataError("vector measures require nonnegative losses")


def _require_tail_level(q: float) -> None:
    # written so that a NaN fails the test
    if not 0.0 < q < 1.0:
        raise DomainError(f"q must lie in (0, 1), got {q}")


def _step_integral(transform, survival: np.ndarray, widths: np.ndarray) -> float:
    """Exact integral over [0, max) of transform(S(t)) for a step survival S given by its cells."""
    if len(widths) == 0:
        return 0.0
    return float(np.asarray(transform(survival), dtype=float) @ widths)


def h_vector(s: ScenarioSet, spec: JointRiskSpec) -> VectorRiskResult:
    """Componentwise embedding of the scalar measure: integral of g_i(S_i).

    Identical (to float accumulation) to evaluating the scalar measure on the
    portfolio with marginal i kept and every other position pinned at one
    unit, by the uniform margins of the coupling copula.
    """
    if s.dim != spec.dim:
        raise DimensionError(f"portfolio dimension {s.dim} != spec dimension {spec.dim}")
    _require_nonnegative(s)
    comps = tuple(
        _step_integral(g, sv, widths)
        for g, (_, sv, widths) in zip(spec.distortions, s.steps.cells())
    )
    return VectorRiskResult(comps, "h_vector")


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
    _require_nonnegative(s)
    if c.dim != s.dim:
        raise DimensionError(f"copula dimension {c.dim} != portfolio dimension {s.dim}")
    if blend is None:
        blend = blend_diagnostics(c, band, grid_n)
    gs = build_distortions(kinds, blend["alpha_c"], s.dim, tail_only=True)
    comps = tuple(_step_integral(g, sv, widths) for g, (_, sv, widths) in zip(gs, s.steps.cells()))
    return VectorRiskResult(comps, "mixture_var_cvar", {**blend, "kinds": [g.kind for g in gs]})


def mtce(s: ScenarioSet, c: CopulaLike, q: float) -> VectorRiskResult:
    """Tail conditional expectations given joint exceedance of the q-quantiles.

    Component i integrates the survival copula evaluated at the tail weight
    alpha = 1 - q in every slot except i, where the (capped) marginal survival
    enters; normalization is the survival copula at (alpha, ..., alpha).
    Degenerate joint tails, whose mass is within inclusion-exclusion
    rounding of zero, raise rather than return a silent zero or noise.
    """
    _require_nonnegative(s)
    if c.dim != s.dim:
        raise DimensionError(f"copula dimension {c.dim} != portfolio dimension {s.dim}")
    _require_tail_level(q)
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

    def component(i: int, sv: np.ndarray, widths: np.ndarray) -> float:
        def transform(sv: np.ndarray) -> np.ndarray:
            axes = [np.array([alpha])] * s.dim
            axes[i] = np.minimum(sv, alpha)
            return chat.cdf_grid(axes).ravel() / p

        return _step_integral(transform, sv, widths)

    comps = tuple(component(i, sv, widths) for i, (_, sv, widths) in enumerate(s.steps.cells()))
    return VectorRiskResult(comps, "mtce", {"q": q, "alpha": alpha, "tail_copula_mass": p})


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
    _require_nonnegative(s)
    if len(distortions) != s.dim:
        raise DimensionError(f"expected {s.dim} distortions, got {len(distortions)}")

    if q is None:
        in_tail = np.ones(s.m, dtype=bool)
    else:
        _require_tail_level(q)
        quantiles = np.array([_var_at(values, tail, q) for values, tail in s.steps.columns()])
        in_tail = np.all(s.losses > quantiles[None, :], axis=1)
    p_tail = float(s.weights[in_tail].sum())
    if p_tail <= 0.0:
        raise DegenerateTailError(
            f"tail region is empty on the data (joint exceedance at q={q})"
        )

    tail_losses, tail_w = s.losses[in_tail], s.weights[in_tail]

    def joint(i: int, left: np.ndarray) -> np.ndarray:
        col = tail_losses[:, i]
        order = np.argsort(col, kind="stable")
        # above[k]: tail weight of the k-th smallest tail loss and every one after it
        above = np.append(np.cumsum(tail_w[order][::-1])[::-1], 0.0)
        return above[np.searchsorted(col[order], left, side="right")]

    comps = tuple(
        _step_integral(g, joint(i, left), widths) / p_tail
        for i, (g, (left, _, widths)) in enumerate(zip(distortions, s.steps.cells()))
    )
    diag = {"region": "whole_space", "tail_probability": p_tail}
    if q is not None:
        diag.update(region="joint_exceedance", q=q)
    return VectorRiskResult(comps, "mtdrm", diag)
