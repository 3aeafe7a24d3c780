"""Robust pseudo-Bayesian inference for fixed-design regression.

The likelihood in Bayes' formula is replaced by the exponentiated
power-divergence objective, trading a tunable amount of efficiency for
resistance to outliers: the tuning constant alpha interpolates between
ordinary Bayesian inference (alpha = 0) and strongly robust inference
(alpha near 1).  The package covers point estimation, posterior sampling
and approximation, asymptotic diagnostics, influence-function analysis,
and breakdown experiments for linear and logistic regression with fixed
designs.
"""

from .alpha_likelihood import (
    AlphaLikelihoodValue,
    Contaminated,
    InModel,
    alpha_likelihood,
    alpha_likelihood_batch,
    alpha_likelihood_functional,
    alpha_likelihood_functional_batch,
)
from .diagnostics import (
    BvmReport,
    EfficiencyReport,
    ReplicationReport,
    TABLE_ARE_REFERENCE,
    are_table,
    bvm_distance,
    efficiency,
    posterior_mean_replications,
)
from .laplace import (
    ExpansionDiagnostics,
    IndefiniteCurvatureError,
    LaplaceApproximation,
    check_expansion_conditions,
    laplace_expectation,
    laplace_integral,
)
from .mdpde import (
    FitNotConvergedError,
    MdpdeResult,
    SandwichMatrices,
    SingularHessianError,
    asymptotic_covariance,
    fit,
    sandwich,
)
from .models import (
    DataFormatError,
    Dataset,
    DesignConditionReport,
    LinearKnownSigma,
    LinearUnknownSigma,
    Logistic,
    ModelFamily,
    QuadratureFamily,
    check_design_conditions,
    dpd_loss,
    dpd_loss_grad,
    dpd_loss_hess,
)
from .posterior import (
    DegenerateWeightsError,
    FlatPrior,
    GaussianPrior,
    ImportanceResult,
    LossFunction,
    NoFiniteStartError,
    PosteriorChain,
    PosteriorMeanEstimate,
    SamplerConfig,
    UniformBoxPrior,
    absolute_error_loss,
    bayes_estimate,
    huber_loss,
    importance_expectation,
    log_posterior_unnorm,
    posterior_mean,
    sample,
    squared_error_loss,
)
from .robustness import (
    AllDirections,
    BreakdownCurve,
    McConfig,
    OneDirection,
    PifResult,
    SensitivityReport,
    breakdown_experiment,
    contamination_score,
    influence_bayes_estimate,
    influence_closed_form_alpha0,
    influence_curve,
    influence_posterior_mean,
    minimum_divergence_functional,
    pseudo_influence,
    pseudo_influence_closed_form_alpha0,
    sensitivities,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
