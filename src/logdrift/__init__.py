"""Numerical laboratory for a reaction-diffusion equation with white noise
and logarithmically superlinear drift on the unit interval.

The pieces: sine-mode fields and transforms (fields), dual-form Dirichlet
heat kernel estimates (heat_kernel), Volterra oracles for log-type integral
inequalities (gronwall), coefficient hypotheses and mollification
(coefficients), refinable modal noise (noise), the exponential-Euler solver
with coupling and factorization experiments (solver), ensemble moment
reports (moments), and the batch scenario front-end (cli).
"""

from .coefficients import (
    DiffusionSpec,
    DriftSpec,
    HypothesisViolation,
    MollifiedDrift,
    drift_eval,
    growth_check,
    lipschitz_check,
    loglip_check,
    mollify,
    sigma_eval,
    sublinear_check,
    uniform_growth_check,
)
from .fields import Field
from .gronwall import (
    GronwallProblem,
    check_domination,
    make_problem_corpus,
    vanishing_data_decay,
    volterra_oracle,
)
from .heat_kernel import (
    KernelParams,
    log_jensen_bound_check,
    spatial_modulus_estimate,
    time_increment_estimate,
)
from .moments import (
    MomentReport,
    convolution_scaling_report,
    epsilon_split_report,
    mc_sup_moment,
    mollified_uniformity_report,
    restart_window_report,
)
from .noise import (
    NoiseRealization,
    ito_isometry_convergence_check,
    sample_noise,
)
from .solver import (
    Grid,
    Trajectory,
    coupled_uniqueness_experiment,
    factorization_check,
    solve_l2_ensemble,
    solve_path,
)

__version__ = "0.1.0"

__all__ = [
    "DiffusionSpec", "DriftSpec", "Field", "Grid", "GronwallProblem",
    "HypothesisViolation", "KernelParams", "MollifiedDrift", "MomentReport",
    "NoiseRealization", "Trajectory", "check_domination",
    "convolution_scaling_report", "coupled_uniqueness_experiment", "drift_eval",
    "epsilon_split_report", "factorization_check", "growth_check",
    "ito_isometry_convergence_check", "lipschitz_check",
    "log_jensen_bound_check", "loglip_check", "make_problem_corpus",
    "mc_sup_moment", "mollified_uniformity_report", "mollify",
    "restart_window_report", "sample_noise", "sigma_eval",
    "solve_l2_ensemble", "solve_path", "spatial_modulus_estimate",
    "sublinear_check", "time_increment_estimate", "uniform_growth_check",
    "vanishing_data_decay", "volterra_oracle",
]
