"""Numerical toolkit for the Dirichlet problem
-lap u = lam c(x) u + mu(x) |grad u|^2 + h(x) on boxes:
finite-difference operators, hypothesis checks, a Cole-Hopf pipeline for
constant mu, a damped Newton solver, enclosure between lower and upper
solutions, and pseudo-arclength branch continuation."""

from .conditions import (
    ConditionReport,
    EigenResult,
    ExponentWitness,
    check_conditions,
    check_ferone_murat,
    exponent_margins,
    find_exponents,
    first_eigen,
    sobolev_constant,
    weighted_rayleigh_sup,
)
from .continuation import (
    Branch,
    BranchAnalysis,
    BranchPoint,
    ContinuationOptions,
    TwoSolutionPair,
    analyze_branch,
    locate_fold,
    trace_branch,
    two_solutions,
)
from .grid import (
    DiscreteOperators,
    GridError,
    GridFunction,
    GridSpec,
    build_operators,
    grad_sq,
    norms,
    poisson_solve,
)
from .problem import (
    CoefficientSpec,
    ProblemData,
    ValidationReport,
    compute_zero_mask,
    load_values_file,
    parse_coefficient,
    save_values_file,
    validate_profile,
)
from .solver import (
    EnclosureError,
    SolveOptions,
    SolveReport,
    SolverError,
    UniquenessReport,
    monotone_enclosure,
    multi_start,
    newton_solve,
    residual_P,
)
from .transform import (
    CoercivityError,
    TransformError,
    cole_hopf,
    functional_I,
    g_and_G,
    g_prime,
    solve_transformed,
)

__version__ = "0.1.0"

__all__ = [
    "Branch", "BranchAnalysis", "BranchPoint", "CoefficientSpec",
    "CoercivityError", "ConditionReport", "ContinuationOptions",
    "DiscreteOperators", "EigenResult", "EnclosureError", "ExponentWitness",
    "GridError", "GridFunction", "GridSpec", "ProblemData",
    "SolveOptions", "SolveReport", "SolverError", "TransformError",
    "TwoSolutionPair", "UniquenessReport", "ValidationReport",
    "analyze_branch", "build_operators", "check_conditions", "check_ferone_murat",
    "cole_hopf", "compute_zero_mask", "exponent_margins",
    "find_exponents", "first_eigen", "functional_I",
    "g_and_G", "g_prime", "grad_sq", "load_values_file", "locate_fold",
    "monotone_enclosure", "multi_start", "newton_solve", "norms",
    "parse_coefficient", "poisson_solve", "residual_P", "save_values_file",
    "sobolev_constant", "solve_transformed", "trace_branch", "two_solutions",
    "validate_profile", "weighted_rayleigh_sup",
]
