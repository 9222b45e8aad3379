"""Seedable random generation, truncated draws, and posterior summaries.

Streams are derived from a (seed, stream) pair through ``SeedSequence`` so
that chains can run in parallel with reproducible, pairwise-independent
generators. All distribution draws validate their parameters and raise
:class:`~stepdirect.errors.DomainError` on violations. The one dense
factorization is the d x d Gaussian draw of the conjugate beta steps,
with direct LAPACK triangular solves; the CAR model's k x k work is banded
and lives in ``car``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special
from scipy.linalg.lapack import dtrtrs

from .errors import (
    DomainError,
    InfeasibleTruncationError,
    NotPositiveDefiniteError,
)

__all__ = [
    "Rng",
    "SummaryRow",
    "summarize",
]


class Rng:
    """Deterministic random stream identified by (seed, stream).

    Wraps a PCG64 generator seeded through ``SeedSequence(seed, (stream,))``;
    identical (seed, stream, call sequence) reproduces identical output.
    An instance is owned by a single chain/thread at a time.
    """

    def __init__(self, seed: int, stream: int = 0):
        if seed < 0 or stream < 0:
            raise DomainError("seed and stream must be nonnegative")
        self.seed = int(seed)
        self.stream = int(stream)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        self.generator = np.random.Generator(np.random.PCG64(ss))

    def __repr__(self) -> str:
        return f"Rng(seed={self.seed}, stream={self.stream})"

    # -- scalar / vector draws -------------------------------------------

    def gamma(self, shape: float, rate: float, size=None):
        if shape <= 0 or rate <= 0:
            raise DomainError("gamma requires shape > 0 and rate > 0")
        return self.generator.gamma(shape, scale=1.0 / rate, size=size)

    def inverse_gamma(self, shape: float, rate: float, size=None):
        if shape <= 0 or np.any(np.asarray(rate) <= 0):
            raise DomainError("inverse_gamma requires shape > 0 and rate > 0")
        return np.asarray(rate) / self.generator.gamma(shape, scale=1.0, size=size)

    def inverse_gamma_trunc(self, shape: float, rate: float, hi: float) -> float:
        """IG(shape, rate) conditioned on the value being <= hi.

        Inverse-CDF draw on the restricted quantile range, so cost is flat
        regardless of how little mass the truncation keeps.
        """
        if shape <= 0 or rate <= 0 or hi <= 0:
            raise DomainError("inverse_gamma_trunc requires positive parameters")
        # CDF of IG(shape, rate) at hi is Q(shape, rate/hi).
        cdf_hi = 1.0 if np.isinf(hi) else float(special.gammaincc(shape, rate / hi))
        if cdf_hi == 0.0:
            raise InfeasibleTruncationError(
                f"IG({shape}, {rate}) has no representable mass below {hi}"
            )
        u = self.generator.uniform(0.0, cdf_hi)
        # Invert Q(shape, rate/x) = u.
        x = rate / special.gammainccinv(shape, u)
        return float(min(x, hi))

    def mvn_precision(self, precision: np.ndarray, linear) -> np.ndarray:
        """Draw from N(Omega^{-1} b, Omega^{-1}) given (Omega, b).

        Factorizes Omega = L L' once; the inverse is never formed. The three
        triangular solves call LAPACK's dtrtrs on L' with the flags that
        scipy.linalg.solve_triangular passes, so the draw is the same to the
        bit, without its per-call checks, which cost more than the solves at
        d = 2-10. Raises NotPositiveDefiniteError unless L's diagonal is
        finite and positive (np.linalg.cholesky of a NaN Omega returns NaN
        without raising), and DomainError unless b is a finite d-vector.
        """
        omega = np.asarray(precision, dtype=float)
        b = np.asarray(linear, dtype=float)
        try:
            lower = np.linalg.cholesky(omega)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefiniteError("precision matrix is not positive definite") from exc
        diag = lower.diagonal()
        if not (diag.min() > 0.0 and diag.max() < np.inf):  # False on NaN
            raise NotPositiveDefiniteError("precision matrix is not finite and positive definite")
        if b.shape != diag.shape or not np.isfinite(b).all():
            raise DomainError(f"the linear term must be a finite vector of length {diag.size}")
        upper = lower.T
        # mean = Omega^{-1} b: solve L h = b (as L' with trans=1), then L' mean = h.
        half, _ = dtrtrs(upper, b, trans=1)
        mean, _ = dtrtrs(upper, half, overwrite_b=1)
        z = self.generator.standard_normal(b.shape[0])
        return mean + dtrtrs(upper, z, overwrite_b=1)[0]


@dataclass(frozen=True)
class SummaryRow:
    """Posterior-style summary of a draw sequence."""

    mean: float
    sd: float
    q025: float
    q975: float


def summarize(draws) -> SummaryRow:
    """Mean, sd (n-1 denominator), and 2.5%/97.5% type-7 quantiles."""
    x = np.asarray(draws, dtype=float).ravel()
    if x.size == 0:
        raise DomainError("summarize requires a nonempty sequence")
    sd = float(np.std(x, ddof=1)) if x.size > 1 else 0.0
    q025, q975 = np.quantile(x, [0.025, 0.975], method="linear")
    return SummaryRow(mean=float(np.mean(x)), sd=sd, q025=float(q025), q975=float(q975))
