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
from .portfolio import ScenarioSet, marginal_cells, var
from .scalar_risk import DistortionLike, JointRiskSpec

WHOLE_SPACE = "whole_space"
JOINT_EXCEEDANCE = "joint_exceedance"


@dataclass(frozen=True)
class TailRegionSpec:
    """Conditioning region: the whole space or the joint exceedance of per-marginal quantiles."""

    kind: str = WHOLE_SPACE
    q: float | None = None

    def __post_init__(self):
        if self.kind not in (WHOLE_SPACE, JOINT_EXCEEDANCE):
            raise DomainError(f"unknown tail region kind {self.kind!r}")
        if self.kind == JOINT_EXCEEDANCE and not (self.q is not None and 0.0 < self.q < 1.0):
            raise DomainError(f"joint exceedance needs q in (0, 1), got {self.q}")


@dataclass(frozen=True)
class VectorRiskResult:
    """Per-marginal risk figures (currency units) plus method diagnostics."""

    components: tuple[float, ...]
    method: str
    diagnostics: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return len(self.components)

    def as_dict(self) -> dict:
        return {
            "components": list(self.components),
            "method": self.method,
            "diagnostics": dict(self.diagnostics),
        }


def _require_nonnegative(s: ScenarioSet) -> None:
    if not s.nonnegative:
        raise DataError("vector measures require nonnegative losses")


def _step_integral(s: ScenarioSet, i: int, transform) -> float:
    """Exact integral over [0, max) of transform(S_i(t)) for a step survival S_i."""
    _, sv, widths = marginal_cells(s, i)
    if len(widths) == 0:
        return 0.0
    return float(np.asarray(transform(sv), dtype=float) @ widths)


def h_vector(s: ScenarioSet, spec: JointRiskSpec) -> VectorRiskResult:
    """Componentwise embedding of the scalar measure: integral of g_i(S_i).

    Identical (to float accumulation) to evaluating the scalar measure on the
    portfolio with marginal i kept and every other position pinned at one
    unit, by the uniform margins of the coupling copula.
    """
    if s.dim != spec.dim:
        raise DimensionError(f"portfolio dimension {s.dim} != spec dimension {spec.dim}")
    _require_nonnegative(s)
    comps = tuple(_step_integral(s, i, spec.distortions[i]) for i in range(s.dim))
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
    comps = tuple(_step_integral(s, i, gs[i]) for i in range(s.dim))
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
    if not 0.0 < q < 1.0:
        raise DomainError(f"q must lie in (0, 1), got {q}")
    alpha = 1.0 - q
    chat = survival_copula(c)
    p = float(chat.cdf_grid([[alpha]] * s.dim)[(0,) * s.dim])
    # the 2^d-term inclusion-exclusion of a survival copula leaves a rounding
    # residue of a few ulps where the joint tail is empty
    if p <= 2**s.dim * np.finfo(float).eps:
        raise DegenerateTailError(
            f"joint tail has no copula mass at level q={q} "
            f"(survival copula value {p:.3g} is within rounding of 0)"
        )

    def component(i: int) -> float:
        def transform(sv: np.ndarray) -> np.ndarray:
            axes = [np.array([alpha])] * s.dim
            axes[i] = np.minimum(sv, alpha)
            return chat.cdf_grid(axes).ravel() / p

        return _step_integral(s, i, transform)

    comps = tuple(component(i) for i in range(s.dim))
    return VectorRiskResult(comps, "mtce", {"q": q, "alpha": alpha, "tail_copula_mass": p})


def mtdrm(
    s: ScenarioSet,
    c: CopulaLike,
    distortions: Sequence[DistortionLike],
    region: TailRegionSpec = TailRegionSpec(),
) -> VectorRiskResult:
    """Tail distortion risk measure over a scenario-defined conditioning region.

    Whole-space conditioning reproduces the classic componentwise distortion
    measure; joint exceedance restricts to scenarios strictly above every
    marginal's q-quantile (quantile ties fall outside the tail).  All
    integrals are exact step sums on the conditioned survival functions.
    """
    _require_nonnegative(s)
    if c.dim != s.dim:
        raise DimensionError(f"copula dimension {c.dim} != portfolio dimension {s.dim}")
    if len(distortions) != s.dim:
        raise DimensionError(f"expected {s.dim} distortions, got {len(distortions)}")

    if region.kind == WHOLE_SPACE:
        in_tail = np.ones(s.m, dtype=bool)
    else:
        quantiles = np.array([var(s, i, region.q) for i in range(s.dim)])
        in_tail = np.all(s.losses > quantiles[None, :], axis=1)
    p_tail = float(s.weights[in_tail].sum())
    if p_tail <= 0.0:
        raise DegenerateTailError(
            f"tail region is empty on the data (joint exceedance at q={region.q})"
        )

    tail_w = np.where(in_tail, s.weights, 0.0)

    def component(i: int) -> float:
        left, _, widths = marginal_cells(s, i)
        if len(widths) == 0:
            return 0.0
        col = s.losses[:, i]
        joint = (col[None, :] > left[:, None]) @ tail_w
        g = distortions[i]
        return float(np.asarray(g(joint), dtype=float) @ widths) / p_tail

    comps = tuple(component(i) for i in range(s.dim))
    diag = {"region": region.kind, "tail_probability": p_tail}
    if region.q is not None:
        diag["q"] = region.q
    return VectorRiskResult(comps, "mtdrm", diag)
