"""Conway-Maxwell Poisson generation via the direct sampler.

The pmf lambda^x / (x!)^nu / Z has an intractable normalizer Z. Writing it
as w(x) g(x) against a geometric base makes Z irrelevant: one decomposition
uses Geometric(1/(1+lambda)) and suits nu >= 1, the other reparameterizes
by mu = lambda^(1/nu) and uses Geometric(1/(1+mu)) for nu < 1, where the
mean of the first base is far too small. A log-space series oracle for the
exact pmf supports validation.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import digamma, gammaln, zeta

from .errors import DomainError, OracleError
from .logspace import log_sum_exp
# bisect is not called here, but stays importable from this module:
# perfbench/spans.py wraps it by name.
from .search import bisect  # noqa: F401
from .target import GeometricBase, WeightedTarget, concave_mode

__all__ = [
    "CmpParams",
    "CmpDecomposition",
    "CmpPmfTable",
    "CmpMismatchDemo",
    "cmp_target",
    "cmp_log_weight",
    "cmp_mode",
    "cmp_pmf_oracle",
    "cmp_mismatch_demo",
]


@dataclass(frozen=True)
class CmpParams:
    """Rate lambda and dispersion nu of the count pmf lambda^x/(x!)^nu/Z."""

    lam: float
    nu: float

    def __post_init__(self):
        if self.lam <= 0:
            raise DomainError("lam must be positive")
        if self.nu < 0:
            raise DomainError("nu must be nonnegative")
        if self.nu == 0 and self.lam >= 1:
            raise DomainError("nu = 0 requires lam < 1 for a normalizable pmf")

    @property
    def mu(self) -> float:
        """Reparameterized rate lambda^(1/nu)."""
        if self.nu == 0:
            raise DomainError("mu is undefined at nu = 0")
        return self.lam ** (1.0 / self.nu)


class CmpDecomposition(enum.Enum):
    """Which geometric base absorbs the pmf's exponential part."""

    GEOMETRIC_LAMBDA = "geometric-lambda"
    GEOMETRIC_MU = "geometric-mu"


def default_decomposition(params: CmpParams) -> CmpDecomposition:
    return (
        CmpDecomposition.GEOMETRIC_LAMBDA
        if params.nu >= 1.0
        else CmpDecomposition.GEOMETRIC_MU
    )


def _base_rate(params: CmpParams, decomp: CmpDecomposition) -> float:
    return params.lam if decomp is CmpDecomposition.GEOMETRIC_LAMBDA else params.mu


def _drift(params: CmpParams, decomp: CmpDecomposition) -> float:
    """Linear-in-x coefficient of log w; always positive."""
    if decomp is CmpDecomposition.GEOMETRIC_LAMBDA:
        return math.log1p(params.lam)
    mu = params.mu
    return math.log1p(mu) + (params.nu - 1.0) * math.log(mu)


def cmp_log_weight(x, params: CmpParams, decomp: CmpDecomposition):
    """Continuous extension of log w(x) for the chosen decomposition.

    Geometric-lambda: (x+1) log(1+lam) - nu logGamma(x+1).
    Geometric-mu adds x (nu-1) log mu with mu in place of lam.
    """
    x = np.asarray(x, dtype=float)
    rate = _base_rate(params, decomp)
    out = (x + 1.0) * math.log1p(rate) - params.nu * gammaln(x + 1.0)
    if decomp is CmpDecomposition.GEOMETRIC_MU:
        out = out + x * (params.nu - 1.0) * math.log(params.mu)
    return out if out.ndim else float(out)


# cmp_mode's limit on log of the mode: past it the mode exceeds 2^53 - 1.
MAX_LOG_MODE = 53.0 * math.log(2.0)


def cmp_mode(params: CmpParams, decomp: CmpDecomposition):
    """Continuous argmax of log w and its value (x_mode, log_c).

    log w is strictly concave, so its slope drift - nu psi(x+1) has at most
    one root, found by concave_mode (the mode is 0 where the slope at 0 is
    not positive). With L = drift / nu, log(y - 1/2) < psi(y) < log y puts
    the root in (e^L - 1, e^L - 1/2): the bracket [0, e^L] is closed form,
    and Newton steps start from e^L - 1, below the root. Raises DomainError
    where L > MAX_LOG_MODE: e^L overflows, or the mode is past 2^53 - 1,
    where integers are no longer exact doubles.
    """
    if params.nu == 0:
        raise DomainError("cmp_mode requires nu > 0")
    drift = _drift(params, decomp)
    nu = params.nu
    log_hi = drift / nu
    if log_hi > MAX_LOG_MODE:
        raise DomainError(
            f"CMP(lam={params.lam!r}, nu={nu!r}) under the {decomp.value} decomposition has "
            f"its weight mode above e^{log_hi:.6g} - 1, past 2^53, where integers are not "
            "exact doubles: this low-nu regime is not supported"
        )

    def slope(x: float):
        # scipy's zeta(2, y) is the trigamma function psi'(y).
        return drift - nu * float(digamma(x + 1.0)), -nu * float(zeta(2.0, x + 1.0))

    x_mode = concave_mode(slope, 0.0, math.exp(log_hi), math.expm1(log_hi))
    log_c = float(cmp_log_weight(x_mode, params, decomp))
    return x_mode, log_c


def cmp_target(params: CmpParams, override_decomp: CmpDecomposition | None = None) -> WeightedTarget:
    """Weighted target on {0, 1, ...}; decomposition chosen by the nu branch."""
    if params.nu == 0:
        raise DomainError("cmp_target requires nu > 0")
    decomp = override_decomp or default_decomposition(params)
    x_mode, log_c = cmp_mode(params, decomp)
    return WeightedTarget(
        log_w=lambda x: cmp_log_weight(x, params, decomp),
        x_mode=x_mode,
        log_c=log_c,
        base=GeometricBase(1.0 / (1.0 + _base_rate(params, decomp))),
        name=f"cmp(lam={params.lam}, nu={params.nu}, {decomp.value})",
    )


_ORACLE_BLOCK = 16384
_ORACLE_MAX_TERMS = 10_000_000
_ORACLE_TAIL_EPS = 1e-12


@dataclass(frozen=True)
class CmpPmfTable:
    """Exact pmf over {0, ..., x_max} from log-space series summation."""

    params: CmpParams
    log_terms: np.ndarray  # x log(lam) - nu logGamma(x+1), x = 0..x_max
    log_z: float

    @property
    def x_max(self) -> int:
        return self.log_terms.size - 1

    @cached_property
    def log_pmf(self) -> np.ndarray:
        return self.log_terms - self.log_z

    @cached_property
    def pmf(self) -> np.ndarray:
        return np.exp(self.log_pmf)

    @cached_property
    def _log_cdf(self) -> np.ndarray:
        return np.logaddexp.accumulate(self.log_terms) - self.log_z

    def log_cdf(self, x: int) -> float:
        if x < 0:
            return -math.inf
        return float(self._log_cdf[min(int(x), self.x_max)])

    def quantile(self, phi: float) -> int:
        """Smallest x with CDF(x) >= phi."""
        if not 0.0 < phi < 1.0:
            raise DomainError("quantile requires phi in (0, 1)")
        return int(np.searchsorted(self._log_cdf, math.log(phi), side="left"))


def cmp_pmf_oracle(params: CmpParams) -> CmpPmfTable:
    """Sum the series Z = sum lambda^x / (x!)^nu term by term in log space.

    Stops once terms are decreasing and the newest term is below
    _ORACLE_TAIL_EPS times the running sum; raises if 10^7 terms do not
    suffice.
    """
    log_lam = math.log(params.lam)
    blocks: list[np.ndarray] = []
    log_z = -math.inf
    start = 0
    while start < _ORACLE_MAX_TERMS:
        x = np.arange(start, start + _ORACLE_BLOCK, dtype=float)
        t = x * log_lam - params.nu * gammaln(x + 1.0)
        blocks.append(t)
        log_z = float(np.logaddexp(log_z, log_sum_exp(t)))
        start += _ORACLE_BLOCK
        if t[-1] < t[-2] and t[-1] < math.log(_ORACLE_TAIL_EPS) + log_z:
            break
    else:
        raise OracleError(
            f"series for Z({params.lam}, {params.nu}) not converged in {_ORACLE_MAX_TERMS} terms"
        )
    return CmpPmfTable(params=params, log_terms=np.concatenate(blocks), log_z=log_z)


@dataclass(frozen=True)
class CmpMismatchDemo:
    """Why the plain geometric base fails for lam=2, nu=0.075.

    The count distribution concentrates around 10,000 while
    Geometric(1/(1+lam)) puts essentially no mass there; the mu-based
    geometric covers the relevant range.
    """

    log_prob_x_le_7306: float
    log_prob_s_gt_7086: float
    mu_base_q025: int
    mu_base_q975: int
    x_q025: int
    x_q975: int
    log_z: float


def cmp_mismatch_demo(lam: float = 2.0, nu: float = 0.075) -> CmpMismatchDemo:
    params = CmpParams(lam, nu)
    table = cmp_pmf_oracle(params)
    lam_base = GeometricBase(1.0 / (1.0 + lam))
    mu_base = GeometricBase(1.0 / (1.0 + params.mu))
    return CmpMismatchDemo(
        log_prob_x_le_7306=table.log_cdf(7306),
        log_prob_s_gt_7086=float(lam_base.log_sf(7086)),
        mu_base_q025=int(mu_base.quantile(0.025)),
        mu_base_q975=int(mu_base.quantile(0.975)),
        x_q025=table.quantile(0.025),
        x_q975=table.quantile(0.975),
        log_z=table.log_z,
    )
