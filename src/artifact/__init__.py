"""Exact joint-tail asymptotics for heavy-tailed vectors with normal-copula
dependence, with a seeded Monte Carlo verification harness.

Layering: linalg (validated correlation matrices, index subsets, Cholesky)
-> qp (the structural box-constrained quadratic program behind every tail
constant) -> gaussian (orthant probabilities, the tail constant Upsilon)
-> asymptotics (one tail-set type, "at least k of the coordinates in S
exceed their thresholds", which covers rectangles, at-least-i sets and box
complements, with one decay law and one limit mass per set; cone analysis;
the normal quantile matched to a heavy-tailed threshold; the bivariate
normal-versus-Pareto comparison) -> simulate (sampling, Hill curves,
verification tables) -> cli (config-driven batch front end).
"""

from .asymptotics import (
    GAMMA_TIE_REL,
    AsymptoticEstimate,
    BivariateComparison,
    ConeAnalysis,
    ContributingSet,
    MarginalSpec,
    TailCoefficients,
    TailSet,
    UnsupportedDegeneracy,
    asymptotic_estimate,
    bivariate_comparison,
    cone_analysis,
    limit_mass,
    rv_quantile_expansion,
    subset_coefficients,
)
from .gaussian import (
    AsymptoticRegimeWarning,
    OrthantEstimate,
    UpsilonResult,
    gaussian_joint_tail,
    orthant_probability,
    upsilon,
)
from .linalg import (
    CorrelationMatrix,
    IndexSubset,
    NotPositiveDefinite,
    solve_spd,
    spd_factorize,
)
from .qp import (
    BOUNDARY_EPS,
    H_TOLERANCE,
    QpSolution,
    ResidualReport,
    SolverInconsistency,
    SubsetQpSolver,
    kkt_residuals,
    solve_qp,
)
from .simulate import (
    BLOCK_ROWS,
    LOW_HIT_THRESHOLD,
    ConditionalCurve,
    HillCurve,
    SimulationConfig,
    VerificationRow,
    VerificationTable,
    conditional_exceedance_curves,
    default_k_grid,
    derived_series,
    hill_curves,
    hill_estimator,
    sample_rvgc,
    verify_asymptotics,
)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticEstimate",
    "AsymptoticRegimeWarning",
    "BLOCK_ROWS",
    "BOUNDARY_EPS",
    "BivariateComparison",
    "ConditionalCurve",
    "ConeAnalysis",
    "ContributingSet",
    "CorrelationMatrix",
    "GAMMA_TIE_REL",
    "H_TOLERANCE",
    "HillCurve",
    "IndexSubset",
    "LOW_HIT_THRESHOLD",
    "MarginalSpec",
    "NotPositiveDefinite",
    "OrthantEstimate",
    "QpSolution",
    "ResidualReport",
    "SimulationConfig",
    "SolverInconsistency",
    "SubsetQpSolver",
    "TailCoefficients",
    "TailSet",
    "UnsupportedDegeneracy",
    "UpsilonResult",
    "VerificationRow",
    "VerificationTable",
    "asymptotic_estimate",
    "bivariate_comparison",
    "cone_analysis",
    "conditional_exceedance_curves",
    "default_k_grid",
    "derived_series",
    "gaussian_joint_tail",
    "hill_curves",
    "hill_estimator",
    "limit_mass",
    "orthant_probability",
    "rv_quantile_expansion",
    "sample_rvgc",
    "solve_qp",
    "solve_spd",
    "spd_factorize",
    "subset_coefficients",
    "upsilon",
    "verify_asymptotics",
    "kkt_residuals",
]
