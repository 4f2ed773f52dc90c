"""Copula-based scalar and vector joint risk measures for discrete loss portfolios."""

from .copula import (
    Copula,
    SurvivalCopula,
    clayton,
    comonotone,
    countermonotone_2d,
    default_grid_n,
    empirical_copula,
    fit_archimedean,
    frank,
    frechet_distances,
    gof_distance,
    gumbel,
    independence,
    kendall_tau,
    survival_copula,
)
from .distortion import (
    ConfidenceBand,
    Distortion,
    alpha_c,
    blend_diagnostics,
    cvar_ramp,
    distortion_eval,
    identity,
    power,
    var_step,
)
from .errors import (
    DataError,
    DegenerateTailError,
    DimensionError,
    DomainError,
    FitError,
    JointRiskError,
    MatchError,
    ParameterError,
    TruncationError,
)
from .portfolio import (
    ScenarioSet,
    cvar,
    scenario_set,
    var,
)
from .scalar_risk import (
    AxiomCheck,
    AxiomReport,
    JointRiskSpec,
    axiom_suite,
    dyadic_bounds,
    gamma_dyadic,
    gamma_forms,
    gamma_ls_form,
    gamma_survival_form,
    gamma_survival_forms,
    random_portfolio,
    varcvar_spec_factory,
)
from .signed import gamma_signed_2d
from .vector_risk import (
    VectorRiskResult,
    h_vector,
    mixture_var_cvar,
    mtce,
    mtdrm,
)

__version__ = "0.1.0"
