"""Gibbs sampler for t-errors regression with exact degrees-of-freedom draws.

Augmentation: y_i = x_i' beta + gamma_i with gamma_i ~ N(0, s_i) and
s_i ~ IG(nu/2, nu sigma^2/2) recovers t_nu errors after integrating s out.
beta, sigma^2, and s have conjugate conditionals. The degrees of freedom nu
have the nonstandard conditional

    f(nu | rest) propto w(nu) on [a_nu, b_nu],
    log w(nu) = F(nu) - A nu,  F(nu) = n[(nu/2) log(nu/2) - logGamma(nu/2)],
    A = (1/2) sum log(s_i / sigma^2) + (1/2) sum sigma^2 / s_i >= n/2,

a weighted Uniform(a_nu, b_nu) target handled exactly by the direct
sampler. F is concave and only theta = -A changes between iterations: the
conditionals are one TiltedFamily (``nu_family``), and each nu step draws
from the family's cached cells of its tilt bucket, read off the family's
table of F with no log_w call, and searches no mode. A rejection sampler
with a truncated-exponential proposal is included as a baseline.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import digamma, gammaln, zeta

from .chains import ChainOutput, run_chain
from .errors import DomainError
from .rngstats import Rng
from .sampler import GIBBS_STEP_CONFIG, DirectSampler, SamplerConfig, member_sampler
# bisect is not called here, but stays importable from this module:
# perfbench/spans.py wraps it by name.
from .search import bisect  # noqa: F401
from .target import TiltedFamily, WeightedTarget, concave_mode

__all__ = [
    "TregData",
    "TregHyper",
    "TregState",
    "NuTargetParams",
    "compute_A",
    "nu_log_weight",
    "nu_family",
    "nu_target",
    "draw_nu_direct",
    "nu_direct_sample",
    "geweke_nu_star",
    "draw_nu_geweke",
    "geweke_sample_many",
    "draw_beta_t",
    "draw_sigma2_t",
    "draw_s",
    "treg_gibbs_run",
    "treg_synthetic",
    "TregSynthetic",
    "CubicBasis",
    "cubic_basis",
]

# Largest gap, in nats, between F and the nu table's chords (see nu_family).
NU_TABLE_GAP = 1e-4


@dataclass
class TregData:
    y: np.ndarray
    X: np.ndarray

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float).ravel()
        self.X = np.atleast_2d(np.asarray(self.X, dtype=float))
        if self.X.shape[0] != self.y.size:
            raise DomainError("X must have one row per outcome")
        if self.y.size < self.X.shape[1] or self.X.shape[1] < 1:
            raise DomainError("need n >= d >= 1")
        if not (np.all(np.isfinite(self.y)) and np.all(np.isfinite(self.X))):
            raise DomainError("y and X must be finite")

    @property
    def n(self) -> int:
        return self.y.size

    @property
    def d(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class TregHyper:
    sigma_beta2: float = 100.0
    a_sigma: float = 1.0
    b_sigma: float = 1.0
    a_nu: float = 0.01
    b_nu: float = 200.0

    def __post_init__(self):
        if not all(v > 0 for v in (self.sigma_beta2, self.a_sigma, self.b_sigma, self.a_nu, self.b_nu)):
            raise DomainError(f"hyperparameters must be positive numbers: {self}")
        if not self.a_nu < self.b_nu:
            raise DomainError("need a_nu < b_nu")


@dataclass
class TregState:
    beta: np.ndarray
    sigma2: float
    s: np.ndarray
    nu: float

    def __post_init__(self):
        self.beta = np.asarray(self.beta, dtype=float).ravel()
        self.s = np.asarray(self.s, dtype=float).ravel()
        if not (all(v > 0 for v in (self.sigma2, self.nu)) and np.all(self.s > 0)):
            raise DomainError("sigma2, s, and nu must be positive")


@dataclass(frozen=True)
class NuTargetParams:
    """Constants of the nu conditional: sample size n, constant A, prior box."""

    n: int
    A: float
    a_nu: float
    b_nu: float

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("n must be >= 1")
        if not math.isfinite(self.A):
            raise DomainError(f"A must be finite, not {self.A!r}")
        if self.A < 0.5 * self.n - 1e-9:
            raise DomainError(f"A = {self.A} violates the lower bound n/2 = {self.n / 2}")
        if not 0.0 < self.a_nu < self.b_nu:
            raise DomainError("need 0 < a_nu < b_nu")


def compute_A(s, sigma2: float) -> float:
    """A = (1/2) sum log(s_i/sigma^2) + (1/2) sum sigma^2/s_i; at least n/2."""
    s = np.asarray(s, dtype=float)
    if sigma2 <= 0 or np.any(s <= 0):
        raise DomainError("compute_A requires positive s and sigma2")
    ratio = s / sigma2
    return float(0.5 * np.sum(np.log(ratio)) + 0.5 * np.sum(1.0 / ratio))


def nu_log_weight(nu, n: int, a_const: float):
    """log w(nu) = n[(nu/2) log(nu/2) - logGamma(nu/2)] - A nu, vectorized."""
    nu = np.asarray(nu, dtype=float)
    half = nu / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        out = n * (half * np.log(half) - gammaln(half)) - a_const * nu
    out = np.where(nu <= 0, -np.inf, out)
    return out if out.ndim else float(out)


@lru_cache(maxsize=16)
def nu_family(n: int, a_nu: float, b_nu: float) -> TiltedFamily:
    """The nu conditionals of sample size n on [a_nu, b_nu], theta = -A,
    tabulated on first use for each (n, a_nu, b_nu). F'' = (n/2)[1/nu -
    psi'(nu/2)/2] lies in (-n/nu^2, -n/(2 nu^2)), as 1/x + 1/(2x^2) < psi'(x)
    < 1/x + 1/x^2, so on a log grid of ratio 1 + sqrt(8 NU_TABLE_GAP / n) the
    chords of F lie within NU_TABLE_GAP nats of it (4,958 points at n = 200)."""

    def slope(nu: float, theta: float):
        half = nu / 2.0
        # scipy's zeta(2, x) is the trigamma function psi'(x).
        curvature = 0.5 * n * (1.0 / nu - 0.5 * float(zeta(2.0, half)))
        return 0.5 * n * (math.log(half) - float(digamma(half))) + 0.5 * n + theta, curvature

    size = max(math.ceil(math.log(b_nu / a_nu) / math.log1p(math.sqrt(8.0 * NU_TABLE_GAP / n))) + 1, 3)
    return TiltedFamily.tabulate(lambda nu, theta: nu_log_weight(nu, n, -theta), slope, np.geomspace(a_nu, b_nu, size))


def nu_target(p: NuTargetParams) -> WeightedTarget:
    """Weighted Uniform(a_nu, b_nu) target for the degrees of freedom: the
    member of nu_family(n, a_nu, b_nu) at theta = -A."""
    return nu_family(p.n, p.a_nu, p.b_nu).target(-p.A, f"nu(n={p.n}, A={p.A})")


def draw_nu_direct(p: NuTargetParams, rng: Rng, config: SamplerConfig = GIBBS_STEP_CONFIG):
    """One exact draw of nu; returns (nu, DirectDrawReport). The default
    config builds what the Gibbs step builds (member_sampler)."""
    report = member_sampler(nu_target(p), config).draw(rng)
    return report.x, report


def nu_direct_sample(p: NuTargetParams, n_draws: int, rng: Rng, config: SamplerConfig = SamplerConfig()):
    """Bulk exact draws of nu; returns (draws, aggregate report)."""
    sampler = DirectSampler(nu_target(p), config)
    return sampler.sample(n_draws, rng)


# -- rejection baseline with truncated-exponential proposal ----------------


def geweke_nu_star(p: NuTargetParams):
    """Proposal-rate root: (n/2)[log(nu/2) + 1 - psi(nu/2)] + 1/nu - A = 0.

    The left side is the slope of log w plus 1/nu. It decreases from +inf
    to n/2 - A, so a root exists exactly when A > n/2; otherwise the box's
    upper end is used and flagged. Since 1/(2x) < log x - psi(x) < 1/x, the
    root lies in [(n/2 + 1)/(A - n/2), (n + 1)/(A - n/2)], and
    concave_mode finds it there. Returns (nu_star, root_found).
    """
    excess = p.A - 0.5 * p.n
    if not excess > 0.0:
        return p.b_nu, False
    log_w_slope = nu_family(p.n, p.a_nu, p.b_nu).slope

    def slope(nu: float):
        g, h = log_w_slope(nu, -p.A)
        return g + 1.0 / nu, h - 1.0 / nu**2

    lo = (0.5 * p.n + 1.0) / excess
    return concave_mode(slope, lo, (p.n + 1.0) / excess, lo), True


def _geweke_log_ratio(nu, p: NuTargetParams, nu_star: float):
    """log acceptance ratio of the truncated-exponential rejection sampler."""
    const = nu_log_weight(nu_star, p.n, p.A) + 1.0
    return nu_log_weight(nu, p.n, p.A) + np.asarray(nu, dtype=float) / nu_star - const


def _trunc_exp_quantile(u, alpha: float, lo: float, hi: float):
    """Inverse CDF of Exp(alpha) truncated to [lo, hi]."""
    span = -math.expm1(-alpha * (hi - lo))
    return lo - np.log1p(-np.asarray(u, dtype=float) * span) / alpha


def draw_nu_geweke(p: NuTargetParams, rng: Rng):
    """Rejection sampling with an Exp(1/nu_star) proposal on [a_nu, b_nu].

    Returns (nu, n_rejected).
    """
    nu_star, _found = geweke_nu_star(p)
    alpha = 1.0 / nu_star
    rejected = 0
    while True:
        cand = float(_trunc_exp_quantile(rng.generator.uniform(), alpha, p.a_nu, p.b_nu))
        log_omega = math.log(rng.generator.uniform())
        if log_omega < float(_geweke_log_ratio(cand, p, nu_star)):
            return cand, rejected
        rejected += 1


def geweke_sample_many(p: NuTargetParams, n_draws: int, rng: Rng):
    """Vectorized version of draw_nu_geweke; returns (draws, n_rejected).

    Rejections are counted exactly as the scalar loop would: candidates
    after the one completing the batch are discarded uncounted.
    """
    nu_star, _found = geweke_nu_star(p)
    alpha = 1.0 / nu_star
    out = np.empty(n_draws, dtype=float)
    filled = 0
    rejected = 0
    while filled < n_draws:
        m = min(max(12 * (n_draws - filled), 1024), 2_000_000)
        cand = _trunc_exp_quantile(rng.generator.uniform(size=m), alpha, p.a_nu, p.b_nu)
        accept = np.log(rng.generator.uniform(size=m)) < _geweke_log_ratio(cand, p, nu_star)
        acc_idx = np.flatnonzero(accept)
        take = min(acc_idx.size, n_draws - filled)
        if take:
            out[filled : filled + take] = cand[acc_idx[:take]]
            last = acc_idx[take - 1]
            rejected += int(last + 1 - take)
            filled += take
        else:
            rejected += m
    return out, rejected


# -- conjugate updates -----------------------------------------------------


def draw_beta_t(data: TregData, state: TregState, hyper: TregHyper, rng: Rng) -> np.ndarray:
    xw = data.X / state.s[:, None]
    omega = data.X.T @ xw + np.eye(data.d) / hyper.sigma_beta2
    return rng.mvn_precision(omega, xw.T @ data.y)


def draw_sigma2_t(data: TregData, state: TregState, hyper: TregHyper, rng: Rng) -> float:
    shape = hyper.a_sigma + 0.5 * data.n * state.nu
    rate = hyper.b_sigma + 0.5 * state.nu * float(np.sum(1.0 / state.s))
    return float(rng.gamma(shape, rate))


def draw_s(data: TregData, state: TregState, hyper: TregHyper, rng: Rng) -> np.ndarray:
    resid = data.y - data.X @ state.beta
    rate = 0.5 * state.nu * state.sigma2 + 0.5 * resid**2
    return np.asarray(rng.inverse_gamma(0.5 * (state.nu + 1.0), rate, size=data.n))


# -- full sampler ----------------------------------------------------------


def treg_gibbs_run(
    data: TregData,
    hyper: TregHyper,
    iters: int,
    burnin: int,
    thin: int,
    nu_method: str,
    rng: Rng,
    config: SamplerConfig = GIBBS_STEP_CONFIG,
    init: TregState | None = None,
) -> ChainOutput:
    """Gibbs scan beta, s, sigma^2, nu for `iters` iterations.

    Saves beta, sigma^2, and nu every `thin`-th state after `burnin`;
    extras carry per-iteration nu rejection counts and the nu candidates
    thinned per iteration (0 for Geweke's sampler).
    """
    if nu_method not in ("direct", "geweke"):
        raise DomainError(f"unknown nu method {nu_method!r}")
    state = init or TregState(
        beta=np.linalg.lstsq(data.X, data.y, rcond=None)[0],
        sigma2=1.0,
        s=np.ones(data.n),
        nu=min(max(5.0, hyper.a_nu * 2.0), hyper.b_nu),
    )
    names = [f"beta_{j}" for j in range(data.d)] + ["sigma2", "nu"]
    thinned = []

    def scan() -> int:
        state.beta = draw_beta_t(data, state, hyper, rng)
        state.s = draw_s(data, state, hyper, rng)
        state.sigma2 = draw_sigma2_t(data, state, hyper, rng)
        p = NuTargetParams(
            n=data.n,
            A=max(compute_A(state.s, state.sigma2), 0.5 * data.n),
            a_nu=hyper.a_nu,
            b_nu=hyper.b_nu,
        )
        if nu_method == "direct":
            state.nu, report = draw_nu_direct(p, rng, config)
            thinned.append(report.n_thinned)
            return report.n_rejected
        state.nu, rejects = draw_nu_geweke(p, rng)
        thinned.append(0)
        return rejects

    def row() -> np.ndarray:
        return np.concatenate((state.beta, [state.sigma2, state.nu]))

    chain = run_chain(scan, row, names, iters, burnin, thin, "nu_rejects", {"nu_method": nu_method})
    chain.extras["nu_thinned"] = np.array(thinned, dtype=int)
    return chain


# -- synthetic data and basis ----------------------------------------------


@dataclass(frozen=True)
class TregSynthetic:
    r: np.ndarray
    mu: np.ndarray
    y: np.ndarray


def mean_curve(r, phi1: float = 0.746, phi2: float = 274.7):
    """mu(r) = r (1 - phi1 exp(-phi2 / r)); continuous limit mu(0) = 0."""
    r = np.asarray(r, dtype=float)
    with np.errstate(divide="ignore"):
        out = np.where(r > 0, r * (1.0 - phi1 * np.exp(-phi2 / np.maximum(r, 1e-300))), 0.0)
    return out if out.ndim else float(out)


def treg_synthetic(
    n: int,
    rng: Rng,
    nu: float = 2.0,
    sigma: float = 1.25,
) -> TregSynthetic:
    """Velocity-style curve data with heavy-tailed noise."""
    if n < 1:
        raise DomainError("n must be >= 1")
    r = rng.generator.uniform(0.0, 10.0, size=n)
    mu = mean_curve(r)
    y = mu + sigma * rng.generator.standard_t(nu, size=n)
    return TregSynthetic(r=r, mu=mu, y=y)


class CubicBasis:
    """Cubic B-spline basis with internal knots at empirical quantiles.

    Columns: n_internal_knots + 4, no separate intercept column. Points
    outside the training range are clamped to it.
    """

    def __init__(self, r_train, n_internal_knots: int):
        r = np.asarray(r_train, dtype=float)
        if n_internal_knots < 0:
            raise DomainError("n_internal_knots must be >= 0")
        lo, hi = float(np.min(r)), float(np.max(r))
        if not lo < hi:
            raise DomainError("basis requires non-constant r values")
        if n_internal_knots:
            qs = np.linspace(0.0, 1.0, n_internal_knots + 2)[1:-1]
            internal = np.quantile(r, qs)
        else:
            internal = np.empty(0)
        self.lo = lo
        self.hi = hi
        self.knots = np.concatenate(([lo] * 4, internal, [hi] * 4))

    @property
    def n_columns(self) -> int:
        return self.knots.size - 4

    def design(self, r) -> np.ndarray:
        # Imported here: scipy.interpolate also loads scipy.optimize, which
        # nothing else in the package needs.
        from scipy.interpolate import BSpline

        r = np.clip(np.asarray(r, dtype=float), self.lo, self.hi)
        return np.asarray(BSpline.design_matrix(r, self.knots, 3).todense())


def cubic_basis(r, n_internal_knots: int) -> np.ndarray:
    """Design matrix of a cubic B-spline basis built on r itself."""
    return CubicBasis(r, n_internal_knots).design(r)
