"""Direct sampling for univariate weighted distributions.

Targets of the form f(x) proportional to w(x) g(x) with an intractable
normalizer are sampled exactly: an auxiliary uniform level u selects the
superlevel set A_u = {x : w(x) > u c}, a step-function envelope over
P(A_u) proposes u, and an inverse-CDF draw from the base g truncated to
A_u produces x. Applications included: Conway-Maxwell Poisson generation,
the dependence parameter of a CAR mixed model, and the degrees of freedom
in t-errors regression.
"""
from .chains import ChainOutput, mc_standard_error
from .errors import (
    BracketError,
    DegenerateTargetError,
    DomainError,
    EmptySetError,
    InfeasibleTruncationError,
    NonConvergenceError,
    NotPositiveDefiniteError,
    OracleError,
    SamplerStallError,
    StepDirectError,
)
from .rngstats import Rng, SummaryRow, SymMatrix, summarize, sym_eigenvalues
from .sampler import (
    BuildDiagnostics,
    DirectDrawReport,
    DirectSampler,
    SamplerConfig,
    build_sampler,
    rejection_bound,
)
from .stepfn import (
    KnotTable,
    StepApprox,
    build_step,
    equal_spaced_knots,
    find_u_hi,
    find_u_lo,
    insert_knot,
    select_knots,
    step_cdf,
    step_logpdf_unnorm,
    step_quantile,
    step_quantile_many,
    total_rect_area,
)
from .target import (
    ContinuousInterval,
    GeometricBase,
    NonnegativeIntegers,
    UniformBase,
    WeightedTarget,
)

__all__ = [
    "ChainOutput",
    "mc_standard_error",
    "StepDirectError",
    "DomainError",
    "BracketError",
    "NonConvergenceError",
    "NotPositiveDefiniteError",
    "InfeasibleTruncationError",
    "EmptySetError",
    "DegenerateTargetError",
    "SamplerStallError",
    "OracleError",
    "Rng",
    "SymMatrix",
    "SummaryRow",
    "summarize",
    "sym_eigenvalues",
    "SamplerConfig",
    "DirectSampler",
    "DirectDrawReport",
    "BuildDiagnostics",
    "build_sampler",
    "rejection_bound",
    "KnotTable",
    "StepApprox",
    "find_u_lo",
    "find_u_hi",
    "select_knots",
    "equal_spaced_knots",
    "build_step",
    "step_cdf",
    "step_quantile",
    "step_quantile_many",
    "step_logpdf_unnorm",
    "total_rect_area",
    "insert_knot",
    "ContinuousInterval",
    "NonnegativeIntegers",
    "UniformBase",
    "GeometricBase",
    "WeightedTarget",
]
