"""Minimax theory of sparse linear regression over lq-balls, made executable.

Submodules: ``linmodel`` (problem generation), ``ballgeom`` (ball geometry
and packings), ``estimators`` (constrained least squares and the Lasso),
``conditions`` (design diagnostics), ``bounds`` (rate and tail formulas),
``harness`` (experiments and persistence), ``supports`` (the support
enumeration kernel they share).
"""

from .ballgeom import (
    EntropyBoundParams,
    PackingResult,
    ball_contains,
    entropy_bounds,
    greedy_pack,
    hamming_packing,
    project_l1,
    project_lq_heuristic,
    qconvex_entropy_bound,
    rescale_hypercube_packing,
    truncation_inequality,
)
from .bounds import (
    FanoParams,
    RateQuery,
    chi_square_tails,
    fano_error_bound,
    log_binomial,
    minimax_rate,
    sup_correlation_exact,
    sup_correlation_pred_exact,
)
from .conditions import (
    DesignDiagnostics,
    REParams,
    column_norm_constant,
    diagnose,
    ident_consistency,
    kernel_diameter,
    kernel_trivial_zero,
    re_constant,
    sparse_spectrum,
    verify_prop1,
)
from .estimators import (
    EstimateResult,
    check_basic_inequality,
    l0_least_squares,
    l1_constrained_ls,
    lasso,
    lq_constrained_ls,
)
from .harness import (
    ExperimentConfig,
    RateFitResult,
    TrialRecord,
    corollary1_experiment,
    counterexample_scenario,
    fit_rate_slope,
    persist,
    run_risk_experiment,
)
from .linmodel import (
    BallSpec,
    DesignSpec,
    LossSpec,
    ProblemInstance,
    generate_design,
    generate_sparse_beta,
    loss,
    simulate,
)

__version__ = "0.1.0"
