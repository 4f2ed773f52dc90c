"""Distortion functions and dependence-blended confidence levels."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .copula import CopulaLike, _checked_grid_n, _unit_levels, frechet_distances
from .errors import ParameterError

IDENTITY = "identity"
VAR_STEP = "var"
CVAR_RAMP = "cvar"
POWER = "power"

# snaps float drift at the step/quantile boundary so that the step-integral
# and the direct quantile agree bit-for-bit on weighted data
_LEVEL_TOL = 1e-12


@dataclass(frozen=True)
class Distortion:
    """A non-decreasing map of [0,1] onto itself with g(0) = 0 and g(1) = 1.

    Kinds:

    * ``identity`` — g(u) = u (expectation).
    * ``var`` — the tail step: 0 on [0, 1 - alpha], 1 above (quantile at
      level alpha).
    * ``cvar`` — the tail ramp: u / (1 - alpha) capped at 1 (expected
      shortfall at level alpha).
    * ``power`` — g(u) = u**k, k > 0 finite; an extension beyond the two tail forms
      used to widen the test surface.
    """

    kind: str
    alpha: float | None = None
    k: float | None = None

    def __post_init__(self):
        if self.kind in (VAR_STEP, CVAR_RAMP):
            if self.alpha is None or not 0.0 < self.alpha < 1.0:
                raise ParameterError(f"{self.kind} distortion needs alpha in (0, 1), got {self.alpha}")
        elif self.kind == POWER:
            # written so that a NaN fails the test
            if self.k is None or not 0.0 < self.k < np.inf:
                raise ParameterError(f"power distortion needs a finite k > 0, got {self.k}")
        elif self.kind != IDENTITY:
            raise ParameterError(f"unknown distortion kind {self.kind!r}")

    def __call__(self, u):
        return distortion_eval(self, u)

    def label(self) -> str:
        if self.kind == VAR_STEP:
            return f"var({self.alpha:g})"
        if self.kind == CVAR_RAMP:
            return f"cvar({self.alpha:g})"
        if self.kind == POWER:
            return f"power({self.k:g})"
        return IDENTITY


def identity() -> Distortion:
    return Distortion(IDENTITY)


def var_step(alpha: float) -> Distortion:
    return Distortion(VAR_STEP, alpha=alpha)


def cvar_ramp(alpha: float) -> Distortion:
    return Distortion(CVAR_RAMP, alpha=alpha)


def power(k: float) -> Distortion:
    return Distortion(POWER, k=k)


def build_distortions(
    kinds: str | Sequence[str], level: float | None, dim: int, tail_only: bool = False
) -> tuple[Distortion, ...]:
    """One distortion per component from kind names.

    ``kinds`` is one name for every component or one name per component:
    ``var`` or ``cvar`` at confidence ``level``, or, unless ``tail_only``,
    ``identity`` or ``power:<k>``.  Anything else raises ParameterError.
    """
    names = [kinds] if isinstance(kinds, str) else list(kinds)
    if len(names) == 1:
        names *= dim
    if len(names) != dim:
        raise ParameterError(f"got {len(names)} distortion kinds for {dim} components (give 1 or {dim})")
    out = []
    for kind in names:
        if kind in (VAR_STEP, CVAR_RAMP):
            if level is None:
                raise ParameterError(f"{kind} distortion needs a confidence level: give a band")
            out.append(Distortion(kind, alpha=level))
        elif tail_only:
            raise ParameterError(f"tail distortion kind must be var or cvar, got {kind!r}")
        elif kind == IDENTITY:
            out.append(identity())
        else:
            name, _, k = kind.partition(":")
            try:
                out.append(power(float(k)) if name == POWER else Distortion(kind))
            except ValueError:
                raise ParameterError(f"bad power exponent in {kind!r}") from None
    return tuple(out)


def distortion_eval(g: Distortion, u):
    """g(u), vectorized; scalar in, scalar out."""
    a = _unit_levels(u, "distortion")
    if g.kind == IDENTITY:
        out = a
    elif g.kind == VAR_STEP:
        out = np.where(a <= (1.0 - g.alpha) + _LEVEL_TOL, 0.0, 1.0)
    elif g.kind == CVAR_RAMP:
        out = np.minimum(a / (1.0 - g.alpha), 1.0)
    else:
        out = a**g.k
    return float(out) if np.ndim(u) == 0 else out


@dataclass(frozen=True)
class ConfidenceBand:
    """An interval of tolerated confidence levels 0 < alpha1 <= alpha2 < 1."""

    alpha1: float
    alpha2: float

    def __post_init__(self):
        if not 0.0 < self.alpha1 <= self.alpha2 < 1.0:
            raise ParameterError(
                f"band must satisfy 0 < alpha1 <= alpha2 < 1, got ({self.alpha1}, {self.alpha2})"
            )


def blend_diagnostics(
    c: CopulaLike,
    band: ConfidenceBand,
    grid_n: int | None = None,
) -> dict[str, float]:
    """Bound distances, blend ratio and the resulting confidence level.

    Both distances are maxima over the same closed grid (see
    :func:`~jointrisk.copula.frechet_distances`), so numerator and
    denominator share the discretization.
    """
    if c.dim == 1:
        _checked_grid_n(1, grid_n)  # as at d >= 2, though no grid is built
        d_ul, d_uc, theta = float("nan"), float("nan"), 0.0
    else:
        d_ul, d_uc = frechet_distances(c, grid_n)
        theta = min(max(d_uc / d_ul, 0.0), 1.0)
    level = theta * band.alpha1 + (1.0 - theta) * band.alpha2
    return {"d_ul": d_ul, "d_uc": d_uc, "theta_c": theta, "alpha_c": level}


def alpha_c(c: CopulaLike, band: ConfidenceBand, grid_n: int | None = None) -> float:
    """Dependence-adjusted confidence level blended between the band endpoints.

    The blend weight is the copula's grid distance from the upper
    Frechet-Hoeffding bound relative to the distance between the two bounds:
    copulas close to comonotone get the high endpoint, copulas near the lower
    bound the low one.  Dimension 1 carries no dependence and uses the high
    endpoint.
    """
    return blend_diagnostics(c, band, grid_n)["alpha_c"]
