"""Empirical-likelihood estimation, divergence projections and exact
finite-grid Bayesian posterior decay experiments."""

__version__ = "0.16.0"

from .divergences import (
    cressie_read,
    entropy,
    euclidean_discrepancy,
    kl_divergence,
    l_divergence,
    polya_l_divergence,
)
from .prob import (
    EstimatingModel,
    ParamDomain,
    Pmf,
    Sample,
    empirical_pmf,
    linear_model,
    make_pmf,
    mean_model,
    moments,
    support_dominates,
    tv_distance,
)
from .projection import (
    ProjectionResult,
    ProfileResult,
    l_project_linear,
    profile_l_projection,
)
from .estimators import (
    DualFit,
    ELFit,
    cr_estimate,
    el_estimate,
    el_inner,
    et_estimate,
    et_inner,
    euclidean_estimate,
    euclidean_inner,
    mnpl_grid,
)
from .bayes import (
    BllnReport,
    DecayReport,
    Example21Report,
    PosteriorState,
    PriorGrid,
    blln_check,
    decay_curve,
    example21,
    grid_l_projections,
    make_prior_grid,
    map_candidate,
    posterior_mean,
    posterior_update,
    split_mean_prior,
)
from .polya import (
    PolyaPath,
    UrnConfig,
    gamma_ratio_bounds,
    mnpl_asymptotic,
    mnpl_exact,
    polya_counts,
    polya_decay_experiment,
    polya_draw,
    polya_log_prob,
    polya_posterior,
    rebuild_urn,
)
from .censoring import (
    CensoredObservation,
    CensoringModel,
    SurvivalCurve,
    censor_generate,
    censored_decay_experiment,
    censored_grid_divergences,
    censored_l_divergence,
    censored_loglik,
    censored_posterior,
    kaplan_meier,
)
