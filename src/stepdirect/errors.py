"""Exception types shared across the package."""


class StepDirectError(Exception):
    """Base class for all package-specific errors."""


class DomainError(StepDirectError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class BracketError(StepDirectError):
    """A bisection bracket does not satisfy the 0/1 predicate endpoints."""


class NonConvergenceError(StepDirectError):
    """An iterative routine exhausted its iteration budget."""


class NotPositiveDefiniteError(StepDirectError):
    """A matrix required to be positive definite failed factorization."""


class InfeasibleTruncationError(StepDirectError):
    """Truncation region carries no representable probability mass."""


class EmptySetError(StepDirectError):
    """A truncated draw was requested from a region with zero mass."""


class DegenerateTargetError(StepDirectError):
    """A weighted target has no usable descent region for the envelope."""


class SamplerStallError(StepDirectError):
    """The rejection sampler exceeded its rejection budget."""


class OracleError(StepDirectError):
    """A brute-force oracle computation failed to converge."""


class ModeError(StepDirectError):
    """A weighted target's log w exceeds its stated maximum log_c."""
