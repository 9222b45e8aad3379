"""Gibbs sampler for a CAR mixed-effects model with an exact rho step.

Model: y = X beta + S eta + eps, eps ~ N(0, sigma^2 I), and spatial effects
eta ~ N(0, tau^2 (D - rho A)^{-1}) for adjacency A with row-sum diagonal D.
beta, eta, sigma^2, tau^2 have conjugate conditionals; the dependence
parameter rho has the nonstandard conditional

    f(rho | rest) propto prod_i (1 - rho lambda_i)^{1/2}
                         * exp{rho eta' A eta / (2 tau^2)} on [0, 1],

with lambda_i the eigenvalues of D^{-1} A. That is a weighted Uniform(0,1)
target, so the direct sampler draws rho exactly; a truncated-normal
Metropolis-Hastings step is included as a baseline.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import ndtr, ndtri

from .chains import ChainOutput
from .errors import DomainError
from .rngstats import Rng, sym_eigenvalues
from .sampler import DirectDrawReport, DirectSampler, SamplerConfig
from .search import BisectionSpec, bisect
from .target import UniformBase, WeightedTarget

__all__ = [
    "CarData",
    "CarHyper",
    "CarState",
    "CarPrecomp",
    "car_eigen_precompute",
    "rho_target",
    "RHO_SAMPLER_CONFIG",
    "draw_beta_car",
    "draw_eta",
    "draw_sigma2_car",
    "draw_tau2",
    "draw_rho_direct",
    "draw_rho_mh",
    "car_gibbs_run",
    "car_synthetic",
    "lattice_adjacency",
    "car_dump_csv",
    "car_load_csv",
]

# Largest representable rho: D - rho A stays nonsingular strictly below 1.
RHO_MAX = 1.0 - 1e-12


def _validate_adjacency(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError("adjacency matrix must be square")
    bad = np.argwhere((a != 0.0) & (a != 1.0))
    if bad.size:
        i, j = bad[0]
        raise DomainError(f"adjacency entries must be 0/1; found {a[i, j]} at ({i}, {j})")
    if np.any(np.diag(a) != 0.0):
        i = int(np.argmax(np.diag(a) != 0.0))
        raise DomainError(f"adjacency diagonal must be zero; area {i} has a self loop")
    bad = np.argwhere(a != a.T)
    if bad.size:
        i, j = bad[0]
        raise DomainError(f"adjacency must be symmetric; mismatch at ({i}, {j})")
    if np.any(a.sum(axis=1) == 0.0):
        i = int(np.argmax(a.sum(axis=1) == 0.0))
        raise DomainError(f"area {i} has no neighbors")
    return a


@dataclass
class CarData:
    """Observed outcomes with design matrices and the area graph."""

    y: np.ndarray
    X: np.ndarray
    S: np.ndarray
    A: np.ndarray
    D: np.ndarray = field(init=False)

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float).ravel()
        self.X = np.atleast_2d(np.asarray(self.X, dtype=float))
        self.S = np.atleast_2d(np.asarray(self.S, dtype=float))
        self.A = _validate_adjacency(self.A)
        n = self.y.size
        if self.X.shape[0] != n or self.S.shape[0] != n:
            raise DomainError("X and S must have one row per outcome")
        if self.S.shape[1] != self.A.shape[0]:
            raise DomainError("S column count must match the number of areas")
        if not (np.all(np.isfinite(self.y)) and np.all(np.isfinite(self.X))):
            raise DomainError("y and X must be finite")
        self.D = self.A.sum(axis=1)

    @property
    def n(self) -> int:
        return self.y.size

    @property
    def d(self) -> int:
        return self.X.shape[1]

    @property
    def k(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class CarHyper:
    sigma_beta2: float = 1000.0
    m_sigma: float = 1000.0
    m_tau: float = 1000.0

    def __post_init__(self):
        if min(self.sigma_beta2, self.m_sigma, self.m_tau) <= 0:
            raise DomainError("hyperparameters must be positive")


@dataclass
class CarState:
    beta: np.ndarray
    eta: np.ndarray
    sigma2: float
    tau2: float
    rho: float

    def __post_init__(self):
        self.beta = np.asarray(self.beta, dtype=float).ravel()
        self.eta = np.asarray(self.eta, dtype=float).ravel()
        if self.sigma2 <= 0 or self.tau2 <= 0:
            raise DomainError("variances must be positive")
        if not 0.0 <= self.rho < 1.0:
            raise DomainError("rho must lie in [0, 1)")


@dataclass(frozen=True)
class CarPrecomp:
    """Eigenvalues of D^{-1} A, fixed for the whole run."""

    eigenvalues: np.ndarray


def car_eigen_precompute(a: np.ndarray, d_row_sums: np.ndarray) -> np.ndarray:
    """Eigenvalues of D^{-1} A, descending.

    D^{-1} A is similar to the symmetric D^{-1/2} A D^{-1/2}, so a
    symmetric eigensolver yields its (all-real) spectrum.
    """
    d_inv_sqrt = 1.0 / np.sqrt(np.asarray(d_row_sums, dtype=float))
    sym = d_inv_sqrt[:, None] * np.asarray(a, dtype=float) * d_inv_sqrt[None, :]
    return sym_eigenvalues(sym)


def _rho_log_w(eigenvalues: np.ndarray, drift: float):
    lam = np.asarray(eigenvalues, dtype=float)

    def log_w(rho):
        rho = np.asarray(rho, dtype=float)
        t = np.maximum(1.0 - rho[..., None] * lam, 0.0)
        with np.errstate(divide="ignore"):
            out = 0.5 * np.sum(np.log(t), axis=-1) + rho * drift
        return out if out.ndim else float(out)

    return log_w


def rho_target(eigenvalues: np.ndarray, eta_a_eta: float, tau2: float) -> WeightedTarget:
    """Weighted Uniform(0,1) target for the dependence parameter.

    log w(rho) = (1/2) sum log(1 - rho lambda_i) + rho eta'A eta / (2 tau^2).
    The eigen-sum term is concave and the drift linear, so the derivative
    has at most one root; the mode is that root or a boundary.
    """
    if tau2 <= 0:
        raise DomainError("tau2 must be positive")
    lam = np.asarray(eigenvalues, dtype=float)
    drift = float(eta_a_eta) / (2.0 * tau2)
    log_w = _rho_log_w(lam, drift)

    def deriv(rho: float) -> float:
        return float(-0.5 * np.sum(lam / (1.0 - rho * lam)) + drift)

    if deriv(0.0) <= 0.0:
        x_mode = 0.0
    elif deriv(RHO_MAX) >= 0.0:
        x_mode = RHO_MAX
    else:
        spec = BisectionSpec(
            x_lo=0.0,
            x_hi=RHO_MAX,
            predicate=lambda r: deriv(r) < 0.0,
            tolerance=1e-13,
        )
        x_mode = float(bisect(spec).x)
    return WeightedTarget(
        log_w=log_w,
        x_mode=x_mode,
        log_c=float(log_w(np.asarray(x_mode))),
        base=UniformBase(0.0, 1.0),
        name="car-rho",
    )


# -- conjugate updates -----------------------------------------------------


def draw_beta_car(data: CarData, state: CarState, hyper: CarHyper, rng: Rng) -> np.ndarray:
    resid = data.y - data.S @ state.eta
    omega = data.X.T @ data.X / state.sigma2 + np.eye(data.d) / hyper.sigma_beta2
    return rng.mvn_precision(omega, data.X.T @ resid / state.sigma2)


def draw_eta(data: CarData, state: CarState, hyper: CarHyper, rng: Rng) -> np.ndarray:
    resid = data.y - data.X @ state.beta
    prior_prec = (np.diag(data.D) - state.rho * data.A) / state.tau2
    omega = data.S.T @ data.S / state.sigma2 + prior_prec
    return rng.mvn_precision(omega, data.S.T @ resid / state.sigma2)


def draw_sigma2_car(data: CarData, state: CarState, hyper: CarHyper, rng: Rng) -> float:
    resid = data.y - data.X @ state.beta - data.S @ state.eta
    return rng.inverse_gamma_trunc(0.5 * data.n, 0.5 * float(resid @ resid), hyper.m_sigma)


def draw_tau2(data: CarData, state: CarState, hyper: CarHyper, rng: Rng) -> float:
    quad = float(state.eta @ (np.diag(data.D) - state.rho * data.A) @ state.eta)
    return rng.inverse_gamma_trunc(0.5 * data.k, 0.5 * quad, hyper.m_tau)


# -- rho updates -----------------------------------------------------------


# rho has a continuous base, so the descent window needs no search: it
# ends at u = 1 and starts where w at the two support ends puts it. Equal
# spacing costs one vectorized P(A_u) evaluation regardless of knot count,
# so a dense grid is cheap.
RHO_SAMPLER_CONFIG = SamplerConfig(n_init_knots=200, knot_method="equal")


def draw_rho_direct(
    precomp: CarPrecomp,
    state: CarState,
    data: CarData,
    rng: Rng,
    config: SamplerConfig = RHO_SAMPLER_CONFIG,
):
    """Exact draw of rho from its conditional; returns (rho, report)."""
    eta_a_eta = float(state.eta @ data.A @ state.eta)
    target = rho_target(precomp.eigenvalues, eta_a_eta, state.tau2)
    sampler = DirectSampler(target, config)
    report = sampler.draw(rng)
    return min(report.x, RHO_MAX), report


def draw_rho_mh(
    state: CarState,
    precomp: CarPrecomp,
    data: CarData,
    sigma_prop: float,
    rng: Rng,
):
    """One truncated-normal MH transition for rho; returns (rho, accepted).

    The acceptance ratio is min{1, w(rho*)/w(rho)} with no correction for
    the proposal's truncation, matching the baseline being reproduced;
    this slightly biases the stationary law near the boundaries.
    """
    if sigma_prop <= 0:
        raise DomainError("sigma_prop must be positive")
    eta_a_eta = float(state.eta @ data.A @ state.eta)
    log_w = _rho_log_w(precomp.eigenvalues, eta_a_eta / (2.0 * state.tau2))
    lo = float(ndtr((0.0 - state.rho) / sigma_prop))
    hi = float(ndtr((1.0 - state.rho) / sigma_prop))
    u = rng.generator.uniform(lo, hi)
    cand = state.rho + sigma_prop * float(ndtri(u))
    cand = min(max(cand, 0.0), RHO_MAX)
    log_ratio = float(log_w(np.asarray(cand))) - float(log_w(np.asarray(state.rho)))
    if log_ratio >= 0.0 or math.log(rng.generator.uniform()) < log_ratio:
        return cand, True
    return state.rho, False


# -- full sampler ----------------------------------------------------------


def car_gibbs_run(
    data: CarData,
    hyper: CarHyper,
    iters: int,
    burnin: int,
    thin: int,
    rho_method: str,
    rng: Rng,
    config: SamplerConfig | None = None,
    sigma_prop: float = 0.05,
    init: CarState | None = None,
) -> ChainOutput:
    """Gibbs scan beta, eta, sigma^2, tau^2, rho for `iters` iterations.

    Saves every `thin`-th state after `burnin`; extras carry the
    per-iteration rho rejection counts (direct) or MH rejection flags.
    """
    if iters < 0 or burnin < 0 or thin < 1:
        raise DomainError("need iters >= 0, burnin >= 0, thin >= 1")
    if rho_method not in ("direct", "mh"):
        raise DomainError(f"unknown rho method {rho_method!r}")
    if config is None:
        config = RHO_SAMPLER_CONFIG
    precomp = CarPrecomp(car_eigen_precompute(data.A, data.D))
    state = init or CarState(
        beta=np.zeros(data.d),
        eta=np.zeros(data.k),
        sigma2=min(1.0, hyper.m_sigma / 2.0),
        tau2=min(1.0, hyper.m_tau / 2.0),
        rho=0.5,
    )
    names = (
        [f"beta_{j}" for j in range(data.d)]
        + [f"eta_{i}" for i in range(data.k)]
        + ["sigma2", "tau2", "rho"]
    )
    saved = []
    rho_rejects = np.zeros(iters, dtype=int)
    for it in range(iters):
        state.beta = draw_beta_car(data, state, hyper, rng)
        state.eta = draw_eta(data, state, hyper, rng)
        state.sigma2 = draw_sigma2_car(data, state, hyper, rng)
        state.tau2 = draw_tau2(data, state, hyper, rng)
        if rho_method == "direct":
            state.rho, report = draw_rho_direct(precomp, state, data, rng, config)
            rho_rejects[it] = report.n_rejected
        else:
            state.rho, accepted = draw_rho_mh(state, precomp, data, sigma_prop, rng)
            rho_rejects[it] = 0 if accepted else 1
        if it >= burnin and (it - burnin) % thin == 0:
            saved.append(
                np.concatenate((state.beta, state.eta, [state.sigma2, state.tau2, state.rho]))
            )
    draws = np.asarray(saved) if saved else np.empty((0, len(names)))
    return ChainOutput(
        names=names,
        draws=draws,
        burnin=burnin,
        thin=thin,
        extras={"rho_rejects": rho_rejects, "rho_method": rho_method},
    )


# -- data construction -----------------------------------------------------


def lattice_adjacency(grid_side: int) -> np.ndarray:
    """Rook adjacency of a grid_side x grid_side lattice."""
    if grid_side < 2:
        raise DomainError("grid_side must be >= 2")
    k = grid_side * grid_side
    a = np.zeros((k, k))
    for r in range(grid_side):
        for c in range(grid_side):
            i = r * grid_side + c
            if c + 1 < grid_side:
                a[i, i + 1] = a[i + 1, i] = 1.0
            if r + 1 < grid_side:
                a[i, i + grid_side] = a[i + grid_side, i] = 1.0
    return a


def car_synthetic(
    grid_side: int,
    beta,
    sigma2: float,
    tau2: float,
    rho: float,
    rng: Rng,
    n_rep: int = 4,
) -> CarData:
    """Lattice data generated from the model, n_rep observations per area.

    Replicates within an area share the spatial effect, so the observation
    and spatial variances are separately identified; with a single
    observation per area they are confounded and the chains for sigma^2
    and tau^2 mix between near-degenerate explanations.
    """
    if sigma2 <= 0 or tau2 <= 0 or not 0.0 <= rho < 1.0:
        raise DomainError("need sigma2, tau2 > 0 and rho in [0, 1)")
    if n_rep < 1:
        raise DomainError("n_rep must be >= 1")
    a = lattice_adjacency(grid_side)
    k = a.shape[0]
    n = k * n_rep
    beta = np.asarray(beta, dtype=float).ravel()
    cols = [np.ones(n)]
    for _ in range(beta.size - 1):
        cols.append(rng.generator.standard_normal(n))
    x = np.column_stack(cols)
    s = np.repeat(np.eye(k), n_rep, axis=0)
    d_row = a.sum(axis=1)
    eta = rng.mvn_precision((np.diag(d_row) - rho * a) / tau2, np.zeros(k))
    y = x @ beta + s @ eta + rng.generator.standard_normal(n) * math.sqrt(sigma2)
    return CarData(y=y, X=x, S=s, A=a)


def car_dump_csv(data: CarData, out_dir) -> None:
    """Write y.csv (area, y), x.csv, and adjacency.csv (edge list).

    Requires each row of S to assign its observation to exactly one area
    (a 0/1 indicator row), which is how the synthetic generator and the
    CSV loader structure their data.
    """
    s = data.S
    if not (np.all((s == 0.0) | (s == 1.0)) and np.all(s.sum(axis=1) == 1.0)):
        raise DomainError("car_dump_csv requires one-hot area-indicator rows in S")
    areas = np.argmax(s, axis=1)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "y.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["area", "y"])
        for area, v in zip(areas, data.y):
            w.writerow([int(area), repr(float(v))])
    with open(out / "x.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([f"x_{j}" for j in range(data.d)])
        for row in data.X:
            w.writerow([repr(float(v)) for v in row])
    edges = np.argwhere(np.triu(data.A) > 0)
    with open(out / "adjacency.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["i", "j"])
        for i, j in edges:
            w.writerow([int(i), int(j)])


def car_load_csv(y_path, x_path, adjacency_path) -> CarData:
    """Read data written by car_dump_csv.

    The area count comes from the largest index in the edge list; every
    area must appear there since isolated areas are invalid anyway.
    """
    with open(y_path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["area", "y"]:
        raise DomainError(f"{y_path}: expected 'area,y' columns")
    areas = np.array([int(r[0]) for r in rows[1:]])
    y = np.array([float(r[1]) for r in rows[1:]])
    with open(x_path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise DomainError(f"{x_path}: empty design file")
    x = np.array([[float(v) for v in r] for r in rows[1:]])
    with open(adjacency_path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["i", "j"]:
        raise DomainError(f"{adjacency_path}: expected 'i,j' edge list header")
    edges = []
    for line_no, r in enumerate(rows[1:], start=2):
        i, j = int(r[0]), int(r[1])
        if i == j:
            raise DomainError(f"{adjacency_path}:{line_no}: self loop at area {i}")
        if i < 0 or j < 0:
            raise DomainError(f"{adjacency_path}:{line_no}: negative area index")
        edges.append((i, j))
    if not edges:
        raise DomainError(f"{adjacency_path}: no edges")
    k = max(max(i, j) for i, j in edges) + 1
    a = np.zeros((k, k))
    for i, j in edges:
        a[i, j] = a[j, i] = 1.0
    if areas.size and (areas.min() < 0 or areas.max() >= k):
        raise DomainError(f"{y_path}: area index out of range for k={k}")
    s = np.zeros((y.size, k))
    s[np.arange(y.size), areas] = 1.0
    return CarData(y=y, X=x, S=s, A=a)
