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

Cost per iteration. S is held as each outcome's area index, so S'S =
diag(counts), S'r is a bincount and S eta is eta[area]; A is held as a
sparse CSR array and an edge list, so no k x k array is formed, and the
quadratic forms eta'A eta and eta'(D - rho A) eta come from the edge
list. The eta conditional is then a Gaussian Markov random field whose
precision diag(counts)/sigma^2 + (D - rho A)/tau^2 has the band of A: it
is factored by a band LU and drawn in O(k b^2) for k areas at bandwidth
b (Rue 2001, fast sampling of Gaussian Markov random fields), b =
grid_side on a lattice. The precision is strictly diagonally dominant
for 0 <= rho < 1, so the LU's partial pivoting swaps no rows, and its U
is the Cholesky factor up to a diagonal scale. (LAPACK's band Cholesky
would do too, but at this bandwidth it makes one threaded rank-1 update
per row, which costs more in thread overhead than in flops.) The areas
are factored in reverse Cuthill-McKee order where that strictly narrows
the band, and in their own order otherwise. An iteration costs
O(n d + k b^2) outside the rho step. car_synthetic draws its prior eta
by the same band LU, and the spectrum below comes from the same band by
a banded eigensolver, so neither the data nor a chain depends on the
BLAS thread count.

In the rho step log w = F(rho) + theta rho, with F fixed by the data and
concave, and theta = eta'A eta / (2 tau^2): the rho conditionals are one
TiltedFamily (``rho_family``). The step draws from its tilt bucket's
cached cells, which the family built from bounds on log w at about 1,200
points of its table of F, with no O(k) term, and it searches no mode:
only each candidate's accept test evaluates log w, at O(k) a point. X'X,
the spectrum of D^{-1} A and the rho family are computed once per data
set, the last two on first use. `CarData` holds all of this, and is
frozen so none of it can go stale.
"""
from __future__ import annotations

import csv
import math
import sys
from dataclasses import InitVar, dataclass, field
from functools import cached_property, partial
from pathlib import Path

import numpy as np
from scipy.linalg import eigvals_banded
from scipy.linalg.lapack import dgbtrf, dtbtrs
from scipy.sparse import coo_array, csr_array, issparse, triu
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.special import ndtr, ndtri

from .chains import ChainOutput, run_chain
from .errors import DomainError, NotPositiveDefiniteError
from .rngstats import Rng
from .sampler import GIBBS_STEP_CONFIG, SamplerConfig, member_sampler
# bisect is not called here, but stays importable from this module:
# perfbench/spans.py wraps it by name.
from .search import bisect  # noqa: F401
from .target import TiltedFamily, TiltedMember

__all__ = [
    "CarData",
    "CarHyper",
    "CarState",
    "car_eigen_precompute",
    "rho_log_weight",
    "rho_family",
    "rho_target",
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

# The rho table's grid has spacing min(1 - rho, RHO_GRID_FLAT) /
# RHO_GRID_PER_EFOLD: even in rho up to 1 - RHO_GRID_FLAT, then
# RHO_GRID_PER_EFOLD points per e-fold of 1 - rho, dense where F bends.
RHO_GRID_FLAT = 0.1
RHO_GRID_PER_EFOLD = 1024


def _validate_adjacency(a) -> csr_array:
    """A, dense or sparse, as a CSR array with sorted indices and only its 1 entries stored.

    Raises DomainError unless A is square, 0/1, symmetric, free of self
    loops and free of isolated areas. Duplicate sparse entries add up.
    """
    if not issparse(a):
        a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError("adjacency matrix must be square")
    a = csr_array(a, dtype=float, copy=True)
    a.sum_duplicates()
    a.eliminate_zeros()
    entries = a.tocoo()
    i, j, v = entries.row, entries.col, entries.data
    bad = np.flatnonzero(v != 1.0)
    if bad.size:
        e = bad[0]
        raise DomainError(f"adjacency entries must be 0/1; found {v[e]} at ({i[e]}, {j[e]})")
    if np.any(i == j):
        raise DomainError(f"adjacency diagonal must be zero; area {i[np.argmax(i == j)]} has a self loop")
    mismatch = (a != a.T).tocoo()
    if mismatch.nnz:
        raise DomainError(f"adjacency must be symmetric; mismatch at ({mismatch.row[0]}, {mismatch.col[0]})")
    degrees = np.diff(a.indptr)
    if np.any(degrees == 0):
        raise DomainError(f"area {int(np.argmax(degrees == 0))} has no neighbors")
    return a


def _adjacency_from_edges(k: int, i, j) -> csr_array:
    """The k x k adjacency of the undirected edges (i[e], j[e]), each listed once."""
    ones = np.ones(2 * len(i))
    return coo_array((ones, (np.r_[i, j], np.r_[j, i])), shape=(k, k)).tocsr()


def _band_layout(a: csr_array):
    """(edges, order, band of A in that order) of a validated A, for the band LU and spectrum.

    edges holds the (m, 2) area pairs i < j in row-major order. order[p]
    is the area factored at position p: reverse Cuthill-McKee
    where it strictly narrows the band, else the areas' own order. The
    band is A's 0/1 pattern in LAPACK general-band storage for dgbtrf with
    b sub- and b superdiagonals, b the bandwidth: shape (3b + 1, k),
    band[2b + p - q, q] = A at positions (p, q) for |p - q| <= b, a zero
    diagonal row 2b, and b zero rows on top that the factor's fill-in would
    use. Rows 2b to 3b are then the lower band in symmetric band storage.
    It is Fortran-ordered, so a scaled copy goes to LAPACK as it is, and
    boolean, so it costs a byte an entry.
    """
    k, upper = a.shape[0], triu(a, k=1, format="coo")
    i, j = upper.row, upper.col
    order = reverse_cuthill_mckee(a, symmetric_mode=True)
    pos = np.empty(k, dtype=int)
    pos[order] = np.arange(k)
    if not np.max(np.abs(pos[i] - pos[j])) < np.max(j - i):
        order = pos = np.arange(k)
    lo, hi = np.minimum(pos[i], pos[j]), np.maximum(pos[i], pos[j])
    width = int(np.max(hi - lo))
    band = np.zeros((3 * width + 1, k), dtype=bool, order="F")
    band[2 * width - (hi - lo), hi] = True
    band[2 * width + (hi - lo), lo] = True
    return np.column_stack((i, j)), order, band


def _band_gmrf_draw(order, a_band, diag, off, linear, rng: Rng) -> np.ndarray:
    """Draw from N(Omega^{-1} b, Omega^{-1}), Omega = diag(diag) + off A, by a band LU in order.

    a_band is A's band from _band_layout, and b = linear. Omega must be
    symmetric and strictly diagonally dominant: then partial pivoting swaps
    no rows, Omega = L U with L unit lower and U = diag(u) L', and
    R = diag(u)^{-1/2} U is the Cholesky factor. The draw is
    U^{-1}(L^{-1} b + diag(u)^{1/2} z) = Omega^{-1} b + R^{-1} z, with z the
    k standard normals drawn from rng. A row swap or a pivot u_i <= 0
    raises NotPositiveDefiniteError.
    """
    k, b = order.size, (a_band.shape[0] - 1) // 3
    band = a_band * off
    band[2 * b] = diag[order]
    lu, piv, info = dgbtrf(band, b, b, overwrite_ab=1)
    u = lu[2 * b]
    if info != 0 or np.any(piv != np.arange(k)) or not np.all(u > 0.0):
        raise NotPositiveDefiniteError("precision matrix is not positive definite")
    half, _ = dtbtrs(lu[2 * b :], linear[order], uplo="L", diag="U")  # L in lower band storage
    half += np.sqrt(u) * rng.generator.standard_normal(k)
    out = np.empty(k)
    out[order], _ = dtbtrs(lu[b : 2 * b + 1], half)  # U in upper band storage
    return out


@dataclass(frozen=True)
class CarData:
    """Observed outcomes with design matrices and the area graph.

    ``area`` holds each outcome's area index, an integer in [0, k): it is
    the model's S, whose row i is the indicator of area[i], so S eta is
    eta[area]. Everything the Gibbs scan derives from S and A is computed
    here once: the row sums D, the outcomes per area, the edge list, the
    factor order with the band of A in it, X'X, and (on first use) the
    spectrum of D^{-1} A and the rho family. ``A`` may be passed dense or
    sparse; it is kept as a CSR array, so no k x k array is stored.
    ``layout`` optionally gives _band_layout(A) where the caller has it.
    """

    y: np.ndarray
    X: np.ndarray
    area: np.ndarray  # area index of each outcome
    A: csr_array
    D: np.ndarray = field(init=False)
    counts: np.ndarray = field(init=False)  # outcomes per area
    edges: np.ndarray = field(init=False)  # (m, 2) area pairs, i < j
    order: np.ndarray = field(init=False)  # area at each position of the factor order
    a_band: np.ndarray = field(init=False)  # general band of A in that order, for dgbtrf
    xtx: np.ndarray = field(init=False)  # X'X
    layout: InitVar[tuple | None] = None

    def __post_init__(self, layout):
        y = np.asarray(self.y, dtype=float).ravel()
        x = np.atleast_2d(np.asarray(self.X, dtype=float))
        a = _validate_adjacency(self.A)
        if x.shape[0] != y.size:
            raise DomainError("X must have one row per outcome")
        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(x))):
            raise DomainError("y and X must be finite")
        area, k = np.asarray(self.area), a.shape[0]
        if area.shape != y.shape:
            raise DomainError(f"area must hold one index per outcome: shape {area.shape} for {y.size} outcomes")
        valid = np.isin(area, np.arange(k))
        if not np.all(valid):
            i = int(np.argmin(valid))
            raise DomainError(f"outcome {i} has area {area[i]}, not an integer in [0, {k})")
        area = area.astype(int)
        edges, order, a_band = _band_layout(a) if layout is None else layout
        values = dict(
            y=y, X=x, A=a, D=a.sum(axis=1), area=area,
            counts=np.bincount(area, minlength=k).astype(float),
            edges=edges, order=order, a_band=a_band, xtx=x.T @ x,
        )
        for name, value in values.items():
            object.__setattr__(self, name, value)  # the one place the frozen fields are set

    @property
    def n(self) -> int:
        return self.y.size

    @property
    def d(self) -> int:
        return self.X.shape[1]

    @property
    def k(self) -> int:
        return self.A.shape[0]

    @property
    def bandwidth(self) -> int:
        return (self.a_band.shape[0] - 1) // 3

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of D^{-1} A, descending, from the band kept at set-up; computed on first use, then kept."""
        return _band_spectrum(self.order, self.a_band, self.D)

    @cached_property
    def rho_family(self) -> TiltedFamily:
        """rho_family of the spectrum, with its table of F; computed on first use, then kept."""
        return rho_family(self.eigenvalues)

    def eta_a_eta(self, eta: np.ndarray) -> float:
        """eta' A eta from the edge list: twice the sum of eta_i eta_j over edges."""
        return 2.0 * float(eta[self.edges[:, 0]] @ eta[self.edges[:, 1]])


@dataclass(frozen=True)
class CarHyper:
    sigma_beta2: float = 1000.0
    m_sigma: float = 1000.0
    m_tau: float = 1000.0

    def __post_init__(self):
        # inf bounds are allowed (no truncation); NaN fails the comparison.
        if not all(v > 0 for v in (self.sigma_beta2, self.m_sigma, self.m_tau)):
            raise DomainError(f"hyperparameters must be positive numbers: {self}")


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
        if not all(v > 0 for v in (self.sigma2, self.tau2)):
            raise DomainError("variances must be positive")
        if not 0.0 <= self.rho < 1.0:
            raise DomainError("rho must lie in [0, 1)")


def car_eigen_precompute(a, d_row_sums: np.ndarray) -> np.ndarray:
    """Eigenvalues of D^{-1} A, descending, capped at 1 (see _band_spectrum); A dense or sparse."""
    _, order, band = _band_layout(_validate_adjacency(a))
    return _band_spectrum(order, band, d_row_sums)


def _band_spectrum(order, band, d_row_sums) -> np.ndarray:
    """Eigenvalues of D^{-1} A, descending, capped at 1, from A's band in order (_band_layout's).

    D^{-1} A is similar to the symmetric D^{-1/2} A D^{-1/2}, so a
    symmetric eigensolver yields its (all-real) spectrum. It runs on the
    lower band of that matrix in order, b + 1 rows of k, in O(k^2 b) time
    (the reduction to tridiagonal form) with no k x k array. D^{-1} A is
    row-stochastic, so its largest eigenvalue is exactly 1, and it is set
    to 1: the solver can round it below, or above, which would put
    log(1 - rho lambda) at -inf just below rho = 1. Any other eigenvalue
    that rounds above 1 is capped at 1.
    """
    k, b = order.size, (band.shape[0] - 1) // 3
    d_inv_sqrt = 1.0 / np.sqrt(np.asarray(d_row_sums, dtype=float)[order])
    # lower[r, q] holds positions (q + r, q); the clip only touches entries past the corner, which are 0.
    below = np.minimum(np.arange(k) + np.arange(b + 1)[:, None], k - 1)
    lower = band[2 * b :] * d_inv_sqrt * d_inv_sqrt[below]
    eig = np.minimum(eigvals_banded(lower, lower=True)[::-1], 1.0)
    eig[0] = 1.0
    return eig


def rho_log_weight(rho, theta: float, eigenvalues: np.ndarray):
    """log w(rho) = (1/2) sum log(1 - rho lambda_i) + theta rho, vectorized."""
    rho, lam = np.asarray(rho, dtype=float), np.asarray(eigenvalues, dtype=float)
    t = np.maximum(1.0 - rho[..., None] * lam, 0.0)
    with np.errstate(divide="ignore"):
        out = 0.5 * np.log(t).sum(axis=-1) + rho * theta
    return out if out.ndim else float(out)


def rho_family(eigenvalues: np.ndarray) -> TiltedFamily:
    """The rho conditionals of one spectrum, rho_log_weight for each theta,
    with F tabulated here from 0 through the largest double below 1 to 1,
    where F is -inf. The mode search stops at RHO_MAX. Its slope at 0,
    theta - tr(D^-1 A) / 2 with a trace of 0, is off by the float sum's
    rounding, at most k eps as |lambda| <= 1: that is the search's slack,
    so theta <= 0 gives mode 0."""
    lam = np.asarray(eigenvalues, dtype=float)
    log_w = partial(rho_log_weight, eigenvalues=lam)

    def slope(rho, theta):
        ratio = lam / (1.0 - rho * lam)
        return -0.5 * float(ratio.sum()) + theta, -0.5 * float(ratio @ ratio)

    flat = np.arange(0.0, 1.0 - RHO_GRID_FLAT, RHO_GRID_FLAT / RHO_GRID_PER_EFOLD)
    below_one = np.nextafter(1.0, 0.0)
    folds = np.arange(math.ceil(RHO_GRID_PER_EFOLD * math.log(RHO_GRID_FLAT / (1.0 - below_one))) + 1)
    near_one = np.minimum(1.0 - RHO_GRID_FLAT * np.exp(-folds / RHO_GRID_PER_EFOLD), below_one)
    x = np.unique(np.concatenate((flat, near_one, [1.0])))
    return TiltedFamily.tabulate(log_w, slope, x, mode_hi=RHO_MAX, slack=lam.size * sys.float_info.epsilon)


def rho_target(
    eigenvalues: np.ndarray,
    eta_a_eta: float,
    tau2: float,
    family: TiltedFamily | None = None,
) -> TiltedMember:
    """Weighted Uniform(0,1) target for the dependence parameter: the member
    of ``family`` at theta = eta'A eta / (2 tau^2).

    log w(rho) = (1/2) sum log(1 - rho lambda_i) + rho eta'A eta / (2 tau^2).
    The target reads bounds on log w from the family's one table at theta
    (``log_w_bounds``), at the points used, never formed in full.
    ``family`` is rho_family(eigenvalues), built here when not given. Raises
    DomainError unless 0 < tau2 < inf and theta is finite; its mode, found
    on first read, raises DomainError where it lies past RHO_MAX.
    """
    if not 0.0 < tau2 < math.inf:
        raise DomainError(f"tau2 must be positive and finite, not {tau2!r}")
    drift = float(eta_a_eta) / (2.0 * tau2)
    if not math.isfinite(drift):
        raise DomainError(f"the drift eta_a_eta / (2 tau2) is not finite: eta_a_eta = {eta_a_eta!r}, tau2 = {tau2!r}")
    return TiltedMember(family or rho_family(eigenvalues), drift, "car-rho")


# -- conjugate updates -----------------------------------------------------


def draw_beta_car(data: CarData, state: CarState, hyper: CarHyper, rng: Rng) -> np.ndarray:
    resid = data.y - state.eta[data.area]
    omega = data.xtx / state.sigma2 + np.eye(data.d) / hyper.sigma_beta2
    return rng.mvn_precision(omega, data.X.T @ resid / state.sigma2)


def draw_eta(data: CarData, state: CarState, hyper: CarHyper, rng: Rng) -> np.ndarray:
    """Draw eta from N(Omega^{-1} b, Omega^{-1}) by a band LU in data.order.

    Omega = diag(counts)/sigma^2 + (D - rho A)/tau^2 and b = S'r/sigma^2 with
    r = y - X beta. For 0 <= rho < 1, Omega is symmetric and strictly
    diagonally dominant (row i holds D_i/tau^2 or more on the diagonal and
    rho D_i/tau^2 off it, with D_i >= 1), which _band_gmrf_draw needs. In
    the identity order the draw is the dense one, up to round-off.
    """
    resid = data.y - data.X @ state.beta
    linear = np.bincount(data.area, weights=resid, minlength=data.k) / state.sigma2
    diag = data.counts / state.sigma2 + data.D / state.tau2
    return _band_gmrf_draw(data.order, data.a_band, diag, -state.rho / state.tau2, linear, rng)


def draw_sigma2_car(data: CarData, state: CarState, hyper: CarHyper, rng: Rng) -> float:
    resid = data.y - data.X @ state.beta - state.eta[data.area]
    return rng.inverse_gamma_trunc(0.5 * data.n, 0.5 * float(resid @ resid), hyper.m_sigma)


def draw_tau2(data: CarData, state: CarState, hyper: CarHyper, rng: Rng) -> float:
    eta = state.eta
    quad = float(data.D @ (eta * eta)) - state.rho * data.eta_a_eta(eta)
    return rng.inverse_gamma_trunc(0.5 * data.k, 0.5 * quad, hyper.m_tau)


# -- rho updates -----------------------------------------------------------


def draw_rho_direct(
    data: CarData,
    state: CarState,
    rng: Rng,
    config: SamplerConfig = GIBBS_STEP_CONFIG,
):
    """Exact draw of rho from its conditional; returns (rho, report)."""
    target = rho_target(data.eigenvalues, data.eta_a_eta(state.eta), state.tau2, data.rho_family)
    report = member_sampler(target, config).draw(rng)
    return min(report.x, RHO_MAX), report


def draw_rho_mh(
    data: CarData,
    state: CarState,
    rng: Rng,
    sigma_prop: float,
):
    """One truncated-normal MH transition for rho; returns (rho, accepted).

    The acceptance ratio is min{1, w(rho*)/w(rho)} with no correction for
    the proposal's truncation, matching the baseline being reproduced;
    this slightly biases the stationary law near the boundaries.
    """
    if sigma_prop <= 0:
        raise DomainError("sigma_prop must be positive")
    theta = data.eta_a_eta(state.eta) / (2.0 * state.tau2)
    log_w = partial(rho_log_weight, theta=theta, eigenvalues=data.eigenvalues)
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
    config: SamplerConfig = GIBBS_STEP_CONFIG,
    sigma_prop: float = 0.05,
    init: CarState | None = None,
) -> ChainOutput:
    """Gibbs scan beta, eta, sigma^2, tau^2, rho for `iters` iterations.

    Saves every `thin`-th state after `burnin`; extras carry the
    per-iteration rho rejection counts (direct) or MH rejection flags, and
    the rho candidates thinned per iteration (0 for MH).
    """
    if rho_method not in ("direct", "mh"):
        raise DomainError(f"unknown rho method {rho_method!r}")
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

    thinned = []

    def scan() -> int:
        state.beta = draw_beta_car(data, state, hyper, rng)
        state.eta = draw_eta(data, state, hyper, rng)
        state.sigma2 = draw_sigma2_car(data, state, hyper, rng)
        state.tau2 = draw_tau2(data, state, hyper, rng)
        if rho_method == "direct":
            state.rho, report = draw_rho_direct(data, state, rng, config)
            thinned.append(report.n_thinned)
            return report.n_rejected
        state.rho, accepted = draw_rho_mh(data, state, rng, sigma_prop)
        thinned.append(0)
        return 0 if accepted else 1

    def row() -> np.ndarray:
        return np.concatenate((state.beta, state.eta, [state.sigma2, state.tau2, state.rho]))

    chain = run_chain(scan, row, names, iters, burnin, thin, "rho_rejects", {"rho_method": rho_method})
    chain.extras["rho_thinned"] = np.array(thinned, dtype=int)
    return chain


# -- data construction -----------------------------------------------------


def lattice_adjacency(grid_side: int) -> csr_array:
    """Rook adjacency of a grid_side x grid_side lattice, as a CSR array."""
    if grid_side < 2:
        raise DomainError("grid_side must be >= 2")
    cell = np.arange(grid_side * grid_side).reshape(grid_side, grid_side)
    i = np.r_[cell[:, :-1].ravel(), cell[:-1, :].ravel()]  # right, then down
    j = np.r_[cell[:, 1:].ravel(), cell[1:, :].ravel()]
    return _adjacency_from_edges(cell.size, i, j)


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
    area = np.repeat(np.arange(k), n_rep)
    # The prior precision (D - rho A)/tau^2 is draw_eta's with no outcomes and b = 0.
    layout = _band_layout(a)
    eta = _band_gmrf_draw(layout[1], layout[2], a.sum(axis=1) / tau2, -rho / tau2, np.zeros(k), rng)
    y = x @ beta + eta[area] + rng.generator.standard_normal(n) * math.sqrt(sigma2)
    return CarData(y=y, X=x, area=area, A=a, layout=layout)


def car_dump_csv(data: CarData, out_dir) -> None:
    """Write y.csv (area, y), x.csv, and adjacency.csv (edge list)."""
    out = Path(out_dir)
    write_csv(out / "y.csv", ["area", "y"], zip(data.area, data.y))
    write_csv(out / "x.csv", [f"x_{j}" for j in range(data.d)], data.X)
    write_csv(out / "adjacency.csv", ["i", "j"], data.edges)


def csv_cell(v) -> str:
    """A value as write_csv writes it: floats by repr, so they read back exactly."""
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_csv(path: Path, header, rows) -> None:
    """Write a header and rows of values to path, making its directory if needed."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([csv_cell(v) for v in row])


def read_csv(path, kinds=float, header=None) -> tuple[list[str], list[list]]:
    """(header, rows) of a CSV file; kinds[j] parses cell j, or kinds every cell if it is one type.

    A header other than ``header``, no rows after the header, a row of another
    width or a cell that does not parse raises DomainError naming the file,
    and the line for a row.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        first = next(reader, [])
        if header is not None and first != header:
            raise DomainError(f"{path}: expected header '{','.join(header)}'")
        kinds = kinds if isinstance(kinds, tuple) else (kinds,) * len(first)
        rows = []
        for row in reader:
            try:
                if len(row) != len(kinds):
                    raise ValueError(f"expected {len(kinds)} cells, found {len(row)}")
                rows.append([kind(cell) for kind, cell in zip(kinds, row)])
            except ValueError as exc:
                raise DomainError(f"{path}:{reader.line_num}: {exc}") from None
    if not rows:
        raise DomainError(f"{path}: no data rows")
    return first, rows


def car_load_csv(y_path, x_path, adjacency_path) -> CarData:
    """Read data written by car_dump_csv.

    The area count comes from the largest index in the edge list; every
    area must appear there since isolated areas are invalid anyway.
    """
    _, outcomes = read_csv(y_path, (int, float), header=["area", "y"])
    header, x = read_csv(x_path)
    if not header:  # a blank first line, then blank rows
        raise DomainError(f"{x_path}: empty design file")
    _, edges = read_csv(adjacency_path, (int, int), header=["i", "j"])
    for line_no, (i, j) in enumerate(edges, start=2):
        if i == j:
            raise DomainError(f"{adjacency_path}:{line_no}: self loop at area {i}")
        if i < 0 or j < 0:
            raise DomainError(f"{adjacency_path}:{line_no}: negative area index")
    k = max(max(i, j) for i, j in edges) + 1
    for line_no, (area, _) in enumerate(outcomes, start=2):
        if not 0 <= area < k:
            raise DomainError(f"{y_path}:{line_no}: area index {area} out of range for k={k}")
    # An edge may be listed twice or both ways round; it is one edge.
    i, j = np.unique(np.sort(np.array(edges), axis=1), axis=0).T
    a = _adjacency_from_edges(k, i, j)
    area = np.array([r[0] for r in outcomes], dtype=int)
    y = np.array([r[1] for r in outcomes], dtype=float)
    return CarData(y=y, X=np.array(x), area=area, A=a)
