from __future__ import annotations

import dataclasses
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular
from scipy.sparse import coo_array, csr_array, csr_matrix

import stepdirect.car
from stepdirect.car import (
    RHO_MAX,
    CarData,
    CarHyper,
    CarState,
    car_dump_csv,
    car_eigen_precompute,
    car_gibbs_run,
    car_load_csv,
    car_synthetic,
    draw_beta_car,
    draw_eta,
    draw_rho_direct,
    draw_rho_mh,
    draw_sigma2_car,
    draw_tau2,
    lattice_adjacency,
    rho_family,
    rho_target,
)
from stepdirect.errors import DomainError, NotPositiveDefiniteError
from stepdirect.rngstats import Rng
from stepdirect.sampler import GIBBS_STEP_CONFIG, DirectSampler, rejection_bound
from stepdirect.stepfn import level_envelope
from stepdirect.target import TiltedGrid, TiltedMember, WeightedTarget, concave_mode


def cycle_adjacency(k: int) -> np.ndarray:
    a = np.zeros((k, k))
    for i in range(k):
        a[i, (i + 1) % k] = 1.0
        a[(i + 1) % k, i] = 1.0
    return a


def path_adjacency(k: int) -> np.ndarray:
    a = cycle_adjacency(k)
    a[0, k - 1] = a[k - 1, 0] = 0.0
    return a


def random_adjacency(k: int, p: float, seed: int) -> np.ndarray:
    """Each pair an edge with probability p, plus a path so no area is isolated."""
    upper = np.triu(Rng(seed).generator.uniform(size=(k, k)) < p, 1).astype(float)
    return np.maximum(upper + upper.T, path_adjacency(k))


def dense_eta_draw(data: CarData, state: CarState, rng: Rng) -> np.ndarray:
    """Reference eta draw with dense S and A, factored in the data's order.

    Omega = S'S/sigma^2 + (D - rho A)/tau^2 and b = S'(y - X beta)/sigma^2,
    drawn by Rng.mvn_precision; the banded draw must match it to round-off.
    """
    s = np.eye(data.k)[data.area]
    resid = data.y - data.X @ state.beta
    omega = s.T @ s / state.sigma2 + (np.diag(data.D) - state.rho * data.A.toarray()) / state.tau2
    linear = s.T @ resid / state.sigma2
    p = data.order
    eta = np.empty(data.k)
    eta[p] = rng.mvn_precision(omega[np.ix_(p, p)], linear[p])
    return eta


def relabeled(data: CarData, labels) -> CarData:
    """The same data with area i renamed labels[i]."""
    a = np.zeros((data.k, data.k))
    a[np.ix_(labels, labels)] = data.A.toarray()
    return CarData(y=data.y, X=data.X, area=labels[data.area], A=a)


def assert_draws_match_dense(data: CarData, state: CarState, seed: int) -> None:
    band = draw_eta(data, state, CarHyper(), Rng(seed))
    dense = dense_eta_draw(data, state, Rng(seed))
    assert np.linalg.norm(band - dense) <= 1e-12 * np.linalg.norm(dense)


@st.composite
def connected_graphs(draw):
    """Adjacency of a random spanning tree plus extra edges, with random labels."""
    k = draw(st.integers(min_value=2, max_value=30))
    edges = {(draw(st.integers(min_value=0, max_value=v - 1)), v) for v in range(1, k)}
    pairs = st.tuples(st.integers(min_value=0, max_value=k - 1), st.integers(min_value=0, max_value=k - 1))
    edges |= {(i, j) for i, j in draw(st.lists(pairs, max_size=2 * k)) if i != j}
    labels = draw(st.permutations(range(k)))
    a = np.zeros((k, k))
    for i, j in edges:
        a[labels[i], labels[j]] = a[labels[j], labels[i]] = 1.0
    return a


def rho_quadrature_cdf(eigenvalues, drift, grid_size=200_001):
    """High-resolution trapezoid CDF of the rho conditional."""
    rho = np.linspace(0.0, 1.0 - 1e-9, grid_size)
    log_f = 0.5 * np.sum(np.log(1.0 - rho[:, None] * eigenvalues), axis=1) + rho * drift
    f = np.exp(log_f - log_f.max())
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (f[1:] + f[:-1]) * np.diff(rho))))
    return rho, cdf / cdf[-1]


class TestLattice:
    def test_shape_and_degrees(self):
        a = lattice_adjacency(3).toarray()
        assert a.shape == (9, 9)
        deg = a.sum(axis=1)
        assert set(deg) == {2.0, 3.0, 4.0}
        assert np.array_equal(a, a.T)

    def test_too_small_rejected(self):
        with pytest.raises(DomainError):
            lattice_adjacency(1)


class TestAdjacencyValidation:
    def base(self, a):
        k = a.shape[0]
        return CarData(y=np.zeros(k), X=np.ones((k, 1)), area=np.arange(k), A=a)

    def test_accepts_lattice(self):
        self.base(lattice_adjacency(2))

    def test_rejects_self_loop(self):
        a = lattice_adjacency(2).toarray()
        a[0, 0] = 1.0
        with pytest.raises(DomainError):
            self.base(a)

    def test_rejects_asymmetric(self):
        a = lattice_adjacency(2).toarray()
        a[0, 1] = 0.0
        with pytest.raises(DomainError):
            self.base(a)

    def test_rejects_nonbinary(self):
        a = lattice_adjacency(2).toarray()
        a[0, 1] = a[1, 0] = 0.5
        with pytest.raises(DomainError):
            self.base(a)

    def test_rejects_isolated_area(self):
        a = np.zeros((3, 3))
        a[0, 1] = a[1, 0] = 1.0
        with pytest.raises(DomainError):
            self.base(a)

    def test_sparse_input_matches_dense(self):
        dense = random_adjacency(12, 0.3, seed=5)
        want = self.base(dense)
        assert isinstance(want.A, csr_array)
        for a in (csr_array(dense), coo_array(dense), csr_matrix(dense)):
            got = self.base(a)
            assert isinstance(got.A, csr_array)
            np.testing.assert_array_equal(got.A.toarray(), dense)
            for name in ("D", "edges", "order", "a_band"):
                np.testing.assert_array_equal(getattr(got, name), getattr(want, name))

    def test_sparse_stored_zero_is_no_edge_and_duplicates_add_up(self):
        i, j = [0, 1, 1, 2, 0, 2], [1, 0, 2, 1, 2, 0]
        with_zero = coo_array(([1.0, 1.0, 1.0, 1.0, 0.0, 0.0], (i, j)), shape=(3, 3))
        np.testing.assert_array_equal(self.base(with_zero).edges, [[0, 1], [1, 2]])
        twice = coo_array((np.ones(6), (i[:4] + [0, 1], j[:4] + [1, 0])), shape=(3, 3))
        with pytest.raises(DomainError, match=re.escape("found 2.0 at (0, 1)")):
            self.base(twice)

    def test_nonsquare_rejected(self):
        with pytest.raises(DomainError, match="square"):
            self.base(np.ones((2, 3)))


class TestHyper:
    def test_nan_rejected_inf_allowed(self):
        for name in ("sigma_beta2", "m_sigma", "m_tau"):
            with pytest.raises(DomainError, match="must be positive"):
                CarHyper(**{name: math.nan})
            with pytest.raises(DomainError, match="must be positive"):
                CarHyper(**{name: 0.0})
        assert CarHyper(m_sigma=math.inf, m_tau=math.inf).m_tau == math.inf

    @pytest.mark.parametrize("name", ["sigma2", "tau2"])
    def test_state_rejects_nan_variance(self, name):
        # As in CarHyper: a NaN in a chain's init fails here, not later in
        # the conjugate draws as a matrix that is not positive definite.
        state = dict(beta=np.zeros(2), eta=np.zeros(4), sigma2=0.5, tau2=1.0, rho=0.5)
        with pytest.raises(DomainError, match="must be positive"):
            CarState(**state | {name: math.nan})


class TestAreaIndicator:
    @pytest.mark.parametrize(
        "area, message",
        [
            ([0, 1, -1, 3], "outcome 2 has area -1,"),
            ([0, 1, 4, 3], "outcome 2 has area 4,"),
            ([0, 1, 1.5, 3], "outcome 2 has area 1.5,"),
            ([0, 1, np.nan, 3], "outcome 2 has area nan,"),
            ([0, 1, 2], r"one index per outcome: shape \(3,\) for 4 outcomes"),
        ],
        ids=["negative", "k", "fraction", "nan", "wrong_length"],
    )
    def test_rejects_bad_area(self, area, message):
        with pytest.raises(DomainError, match=message):
            CarData(y=np.zeros(4), X=np.ones((4, 1)), area=area, A=cycle_adjacency(4))

    def test_keeps_areas_and_counts(self):
        data = CarData(y=np.zeros(4), X=np.ones((4, 1)), area=[3, 0, 3, 1], A=cycle_adjacency(4))
        np.testing.assert_array_equal(data.area, [3, 0, 3, 1])
        assert data.area.dtype.kind == "i"
        np.testing.assert_array_equal(data.counts, [1.0, 1.0, 0.0, 2.0])
        with pytest.raises(dataclasses.FrozenInstanceError):
            data.area = np.zeros(4, dtype=int)


class TestBandedEta:
    """The banded eta draw against the dense one, with the same Rng."""

    STATE = dict(beta=[1.0, 0.5], sigma2=0.5, tau2=1.3, rho=0.9)

    def state(self, data, seed):
        eta = Rng(seed).generator.standard_normal(data.k)
        return CarState(eta=eta, **self.STATE)

    def test_lattice_keeps_identity_order(self):
        data = car_synthetic(6, [1.0, 0.5], 0.5, 1.0, 0.9, Rng(20), n_rep=3)
        np.testing.assert_array_equal(data.order, np.arange(data.k))
        assert data.bandwidth == 6
        assert_draws_match_dense(data, self.state(data, 21), 22)

    def test_cycle(self):
        k = 6
        area = np.repeat(np.arange(k), 2)
        x = np.column_stack((np.ones(2 * k), Rng(23).generator.standard_normal(2 * k)))
        data = CarData(y=Rng(24).generator.standard_normal(2 * k), X=x, area=area, A=cycle_adjacency(k))
        assert_draws_match_dense(data, self.state(data, 25), 26)

    def test_shuffled_lattice_through_csv_gets_its_band_back(self, tmp_path):
        data = car_synthetic(20, [1.0, 0.5], 0.5, 1.0, 0.9, Rng(27), n_rep=2)
        shuffled = relabeled(data, np.random.default_rng(0).permutation(data.k))
        i, j = shuffled.edges.T
        assert np.max(j - i) == 384
        car_dump_csv(shuffled, tmp_path)
        loaded = car_load_csv(tmp_path / "y.csv", tmp_path / "x.csv", tmp_path / "adjacency.csv")
        assert loaded.bandwidth == 20
        assert not np.array_equal(loaded.order, np.arange(loaded.k))
        assert_draws_match_dense(loaded, self.state(loaded, 28), 29)

    @pytest.mark.parametrize(
        "a, areas, min_band",
        [
            (lattice_adjacency(6), np.arange(0, 36, 2), 6),
            (path_adjacency(30), np.array([7]), 1),
            (cycle_adjacency(9), np.array([0, 0, 4]), 2),
            (lattice_adjacency(33), np.arange(0, 33 * 33, 3), 33),
            (random_adjacency(64, 0.5, seed=31), np.arange(0, 64, 5), 32),
        ],
        ids=["lattice-6", "path-30", "cycle-9", "lattice-33", "random-64"],
    )
    def test_near_one_rho_with_empty_areas(self, a, areas, min_band):
        # At rho = 0.999 an area with no outcome has Omega_ii = D_i / tau^2
        # against off-diagonals summing to 0.999 D_i / tau^2: the LU's
        # smallest dominance margin. From b = 32 on, dgbtrf takes its
        # blocked path.
        gen = Rng(30).generator
        area = np.repeat(areas, 2)
        x = np.column_stack((np.ones(area.size), gen.standard_normal(area.size)))
        data = CarData(y=gen.standard_normal(area.size), X=x, area=area, A=a)
        assert data.bandwidth >= min_band
        assert np.sum(data.counts == 0.0) >= data.k // 2
        for sigma2, tau2 in ((0.5, 1.3), (4.0, 0.2)):
            state = CarState(beta=[1.0, 0.5], eta=np.zeros(data.k), sigma2=sigma2, tau2=tau2, rho=0.999)
            assert_draws_match_dense(data, state, 32)

    @pytest.mark.parametrize("rho", [1.2, 1.5, -3.0])
    def test_precision_not_positive_definite_refused(self, rho):
        data = CarData(y=np.zeros(1), X=np.ones((1, 1)), area=[0], A=lattice_adjacency(4))
        state = CarState(beta=[0.0], eta=np.zeros(data.k), sigma2=1000.0, tau2=1.0, rho=0.5)
        state.rho = rho  # outside [0, 1), past CarState's check
        omega = np.diag(data.counts / state.sigma2 + data.D / state.tau2) - rho * data.A.toarray() / state.tau2
        assert np.linalg.eigvalsh(omega)[0] < 0.0
        with pytest.raises(NotPositiveDefiniteError):
            draw_eta(data, state, CarHyper(), Rng(0))

    @settings(max_examples=60, deadline=None)
    @given(a=connected_graphs())
    def test_general_band_rebuilds_adjacency(self, a):
        data = CarData(y=np.zeros(1), X=np.ones((1, 1)), area=[0], A=a)
        k, b, band = data.k, data.bandwidth, data.a_band
        assert band.shape == (3 * b + 1, k)
        p, q = np.nonzero(np.abs(np.subtract.outer(np.arange(k), np.arange(k))) <= b)
        rebuilt = np.zeros((k, k))
        rebuilt[p, q] = band[2 * b + p - q, q]
        np.testing.assert_array_equal(rebuilt, a[np.ix_(data.order, data.order)])
        # Nothing else is stored: the fill-in rows, the diagonal row and
        # the corners outside the matrix are zero, and b is tight.
        assert band.sum() == a.sum()
        assert np.any(band[b]) and np.any(band[3 * b])
        # The edge list is in the row-major order of the dense upper triangle,
        # so eta'A eta sums its terms in that order.
        np.testing.assert_array_equal(data.edges, np.argwhere(np.triu(a) > 0))
        np.testing.assert_array_equal(data.D, a.sum(axis=1))

    @settings(max_examples=60, deadline=None)
    @given(
        a=connected_graphs(),
        rho=st.floats(min_value=0.0, max_value=0.99),
        sigma2=st.floats(min_value=0.2, max_value=5.0),
        tau2=st.floats(min_value=0.2, max_value=5.0),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_random_graphs_match_dense(self, a, rho, sigma2, tau2, seed):
        k = a.shape[0]
        gen = Rng(seed).generator
        area = gen.integers(0, k, size=2 * k)  # some areas may have no outcome
        data = CarData(y=gen.standard_normal(2 * k), X=np.ones((2 * k, 1)), area=area, A=a)
        state = CarState(beta=[0.3], eta=gen.standard_normal(k), sigma2=sigma2, tau2=tau2, rho=rho)
        eta = state.eta

        scale = np.abs(eta) @ a @ np.abs(eta)
        assert data.eta_a_eta(eta) == pytest.approx(eta @ a @ eta, rel=0.0, abs=1e-12 * scale)
        hyper = CarHyper()
        quad = eta @ (np.diag(data.D) - rho * a) @ eta
        dense_tau2 = Rng(seed).inverse_gamma_trunc(0.5 * k, 0.5 * quad, hyper.m_tau)
        assert draw_tau2(data, state, hyper, Rng(seed)) == pytest.approx(dense_tau2, rel=1e-12)
        assert_draws_match_dense(data, state, seed)


def dense_spectrum(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of D^{-1} A, descending and capped at 1, by a dense symmetric eigensolver."""
    d_inv_sqrt = 1.0 / np.sqrt(a.sum(axis=1))
    return np.minimum(np.linalg.eigvalsh(d_inv_sqrt[:, None] * a * d_inv_sqrt[None, :])[::-1], 1.0)


def shuffled_lattice(side: int) -> np.ndarray:
    a = lattice_adjacency(side).toarray()
    labels = np.random.default_rng(0).permutation(a.shape[0])
    out = np.zeros_like(a)
    out[np.ix_(labels, labels)] = a
    return out


class TestEigenPrecompute:
    def test_row_stochastic_spectrum(self):
        a = lattice_adjacency(4)
        eig = car_eigen_precompute(a, a.sum(axis=1))
        assert eig[0] == pytest.approx(1.0, abs=1e-10)
        assert eig.min() >= -1.0 - 1e-10
        assert np.all(np.diff(eig) <= 1e-12)

    @pytest.mark.parametrize(
        "a",
        [lattice_adjacency(4), lattice_adjacency(6), lattice_adjacency(20), shuffled_lattice(20)],
        ids=["lattice-4", "lattice-6", "lattice-20", "shuffled-20"],
    )
    def test_banded_spectrum_matches_dense(self, a):
        dense = a.toarray() if hasattr(a, "toarray") else a
        eig = car_eigen_precompute(a, dense.sum(axis=1))
        assert np.max(np.abs(eig - dense_spectrum(dense))) <= 1e-14
        # Dense and sparse adjacency give the same spectrum, bit for bit.
        assert np.array_equal(car_eigen_precompute(dense, dense.sum(axis=1)), eig)
        assert np.array_equal(car_eigen_precompute(csr_array(dense), dense.sum(axis=1)), eig)


class TestRhoTarget:
    def test_log_weight_formula(self):
        a = cycle_adjacency(4)
        eig = car_eigen_precompute(a, a.sum(axis=1))
        target = rho_target(eig, eta_a_eta=3.0, tau2=2.0)
        rho = 0.4
        ref = 0.5 * np.sum(np.log(1.0 - rho * eig)) + rho * 3.0 / 4.0
        assert target.log_w(np.asarray(rho)) == pytest.approx(ref, rel=1e-12)

    def test_mode_maximizes(self):
        a = lattice_adjacency(4)
        eig = car_eigen_precompute(a, a.sum(axis=1))
        target = rho_target(eig, eta_a_eta=40.0, tau2=1.0)
        grid = np.linspace(1e-6, RHO_MAX, 4001)
        assert target.log_c >= target.log_w(grid).max() - 1e-9

    def test_tau2_validation(self):
        with pytest.raises(DomainError):
            rho_target(np.array([1.0, -1.0]), 1.0, 0.0)

    @pytest.mark.parametrize("drift", [1e12, 1e13, 8e14])
    def test_mode_past_rho_max_raises(self, drift):
        # On the 6x6 lattice w still rises at RHO_MAX at these tilts, so the
        # mode lies past it: the first read of the target's mode or log c,
        # and a Gibbs step at that tilt, raise DomainError naming theta and
        # mode_hi before any envelope is built, so no RuntimeWarning (an
        # error under Tier-1) from its knot table can escape. A member's
        # repr reads no mode.
        data = car_synthetic(6, [1.0, 0.5], 0.5, 1.0, 0.9, Rng(70), n_rep=4)
        family = data.rho_family
        assert family.slope(RHO_MAX, drift)[0] > 0.0
        match = rf"theta = {drift!r}.*mode_hi = {RHO_MAX!r}"
        with pytest.raises(DomainError, match=match):
            rho_target(data.eigenvalues, 2.0 * drift, 1.0, family).x_mode
        member = TiltedMember(family, drift, "car-rho")
        assert repr(member) == f"TiltedMember(name='car-rho', theta={drift!r})"
        assert "x_mode" not in vars(member)
        with pytest.raises(DomainError, match=match):
            member.log_c
        eta = np.ones(data.k)
        state = CarState(beta=np.zeros(2), eta=eta, sigma2=0.5, tau2=data.eta_a_eta(eta) / (2.0 * drift), rho=0.5)
        with pytest.raises(DomainError, match=match):
            draw_rho_direct(data, state, Rng(1))

    @pytest.mark.parametrize(
        "eta_a_eta, tau2, named",
        [(math.inf, 1.0, "eta_a_eta = inf"), (-math.inf, 1.0, "eta_a_eta = -inf"), (math.nan, 1.0, "eta_a_eta = nan"),
         (1e308, 1e-300, "tau2 = 1e-300"), (1.0, math.inf, "tau2"), (1.0, math.nan, "tau2")],
    )
    def test_non_finite_inputs_raise_at_once(self, eta_a_eta, tau2, named):
        # A non-finite drift fails here, naming its input, not as a sampler
        # stall after 10^6 rejections.
        with pytest.raises(DomainError, match=re.escape(named)):
            rho_target(np.array([1.0, -1.0]), eta_a_eta, tau2)

    def test_direct_draws_match_quadrature(self):
        a = cycle_adjacency(4)
        eig = car_eigen_precompute(a, a.sum(axis=1))
        drift = 4.0
        target = rho_target(eig, eta_a_eta=2.0 * drift, tau2=1.0)
        draws, _ = DirectSampler(target, GIBBS_STEP_CONFIG).sample(80_000, Rng(2))
        rho, cdf = rho_quadrature_cdf(eig, drift)
        qs = np.linspace(0.05, 0.95, 19)
        edges = np.interp(qs, cdf, rho)
        emp = np.histogram(draws, bins=np.concatenate(([0.0], edges, [1.0])))[0] / draws.size
        exact = np.diff(np.concatenate(([0.0], qs, [1.0])))
        assert 0.5 * np.abs(emp - exact).sum() < 0.010


# Relative rounding of log w, which a chord of the table can miss it by next to a grid point.
ROUNDING = 1e-12


def assert_brackets(lo, log_w, hi):
    """lo <= log w <= hi, lo up to ROUNDING."""
    assert np.all((lo <= log_w) | np.isclose(lo, log_w, rtol=ROUNDING, atol=ROUNDING))
    assert np.all(log_w <= hi)


class FullGrid:
    """The table written out in full under one tilt, F + theta rho and its
    upper bounds f_up + theta rho, each one array read by np.interp: the
    representation that TiltedGrid avoids, kept as a reference."""

    def __init__(self, table: TiltedGrid, theta: float):
        self.x = table.x
        self.values = table.f + table.x * theta
        self.up = table.f_up + table.x * theta

    def bounds(self, x):
        return np.interp(x, self.x, self.values), np.interp(x, self.x, self.up)


class RecordingReader:
    """A log_w_bounds reader that keeps each (points, lo, hi) it reads."""

    def __init__(self, read):
        self.read, self.reads = read, []

    def __call__(self, x):
        lo, hi = self.read(x)
        self.reads.append((x, lo, hi))
        return lo, hi


def rho_slope(lam, drift):
    """rho_target's slope: the first and second derivatives of log w."""

    def slope(r):
        ratio = lam / (1.0 - r * lam)
        return -0.5 * float(np.sum(ratio)) + drift, -0.5 * float(ratio @ ratio)

    return slope


def _lattice_family(side: int):
    a = lattice_adjacency(side)
    eig = car_eigen_precompute(a, a.sum(axis=1))
    return eig, rho_family(eig)


LATTICE_FAMILIES = {side: _lattice_family(side) for side in (6, 12, 20)}


def check_table_bounds(eig, table, drift, seed):
    """TiltedGrid.bounds under tilt drift has lo <= log w <= hi, lo up to
    the rounding of log w and equal to it at grid points, at random rho in
    [0, 1), at grid points, on the last steps next to rho = 1 and below
    rho = 1e-4."""
    rng = np.random.default_rng(seed)
    log_w = rho_target(eig, 2.0 * drift, 1.0).log_w
    on_grid = table.x[np.append(rng.integers(0, table.x.size, 200), np.arange(table.x.size - 12, table.x.size))]
    near_one = table.x[-12] + (1.0 - table.x[-12]) * rng.uniform(size=100)
    small = np.concatenate((1e-4 * rng.uniform(size=50), 10.0 ** rng.uniform(-300.0, -4.0, 50)))
    for x in (on_grid, rng.uniform(size=200), near_one, small):
        lo, hi = table.bounds(x, drift)
        assert_brackets(lo, log_w(x), hi)
    assert np.array_equal(table.bounds(on_grid, drift)[0], log_w(on_grid))


class TestRhoTable:
    """Level knots read from the data's rho table instead of calling log_w."""

    @settings(max_examples=40, deadline=None)
    @given(
        a=connected_graphs(),
        drifts=st.lists(
            st.tuples(st.floats(min_value=-20.0, max_value=60.0), st.floats(min_value=0.1, max_value=5.0)),
            min_size=8,
            max_size=8,
        ),
    )
    def test_tabulated_envelope(self, a, drifts):
        eig = car_eigen_precompute(a, a.sum(axis=1))
        family = rho_family(eig)
        table = family.table
        bounds, plain_bounds = [], []
        for eta_a_eta, tau2 in drifts:
            target = rho_target(eig, eta_a_eta, tau2, family)
            tilted = target.log_w_bounds(table.x)[0]
            assert np.array_equal(tilted, target.log_w(table.x))
            assert table.peak(eta_a_eta / (2.0 * tau2)) == np.argmax(tilted)
            envelope = level_envelope(target)
            kt = envelope.table
            assert np.array_equal(kt.log_probs, target.base.log_prob(kt.x1, kt.x2))
            # Levels are compared in u: w / c at each window's interior ends
            # is at or below its knot.
            for ends in (kt.x1, kt.x2):
                inside = (ends > 0.0) & (ends < 1.0)
                assert np.all(np.exp(target.log_w(ends[inside]) - target.log_c) <= kt.knots[inside])
            bounds.append(rejection_bound(envelope))
            plain = WeightedTarget(target.log_w, target.x_mode, target.log_c, target.base)
            plain_bounds.append(rejection_bound(level_envelope(plain)))
        # The table's upper bounds raise the cells by at most ~1e-5 nats,
        # and its knots come from the levels of both bounds, so that each
        # piece keeps the lower bound it has without the table; with the
        # upper-bound levels alone the rejection bound doubled.
        assert sum(bounds) <= 1.05 * sum(plain_bounds)
        assert max(b / p for b, p in zip(bounds, plain_bounds)) <= 1.25

    def test_table_built_on_first_rho_step_only(self, monkeypatch):
        # One rho family, and so one table, per data set, however many chains.
        calls = []
        family = stepdirect.car.rho_family
        monkeypatch.setattr(stepdirect.car, "rho_family", lambda lam: calls.append(lam) or family(lam))
        data = car_synthetic(3, beta=[1.0], sigma2=0.5, tau2=1.0, rho=0.5, rng=Rng(19), n_rep=2)
        assert not calls
        car_gibbs_run(data, CarHyper(), 5, 0, 1, "direct", Rng(20))
        car_gibbs_run(data, CarHyper(), 5, 0, 1, "direct", Rng(21))
        assert len(calls) == 1

    @settings(max_examples=30, deadline=None)
    @given(
        lattice=st.sampled_from([6, 12, 20]),
        drift=st.floats(min_value=-50.0, max_value=5000.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_bounds_on_lattice_tables(self, lattice, drift, seed):
        eig, family = LATTICE_FAMILIES[lattice]
        check_table_bounds(eig, family.table, drift, seed)

    @settings(max_examples=30, deadline=None)
    @given(
        a=connected_graphs(),
        drift=st.floats(min_value=-50.0, max_value=5000.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_bounds_on_random_graph_tables(self, a, drift, seed):
        eig = car_eigen_precompute(a, a.sum(axis=1))
        check_table_bounds(eig, rho_family(eig).table, drift, seed)

    def test_table_must_be_concave(self):
        # One point raised by 1e-6 makes the slope of f rise there.
        table = LATTICE_FAMILIES[6][1].table
        bumped = table.f.copy()
        bumped[5000] += 1e-6
        with pytest.raises(DomainError, match="concave"):
            TiltedGrid(table.x, bumped)
        for i in (0, 5000):
            broken = table.f.copy()
            broken[i] = -np.inf
            with pytest.raises(DomainError, match="finite"):
                TiltedGrid(table.x, broken)

    def test_derived_arrays_are_not_arguments(self):
        # flat_tilts and f_up come from (x, f) alone: an f_up passed in
        # unchecked could put hi below log w and the draws off, silently.
        table = LATTICE_FAMILIES[6][1].table
        with pytest.raises(TypeError):
            TiltedGrid(table.x, table.f, table.flat_tilts, table.f_up)
        with pytest.raises(TypeError):
            TiltedGrid(table.x, table.f, f_up=table.f_up - 1.0)

    def test_level_envelope_reads_only_the_table_at_40x40(self, monkeypatch):
        # From 40x40 up a level cell next to the mode can be narrower than
        # the table's spacing; the envelope still calls no log_w.
        data = car_synthetic(40, [1.0, 0.5], 0.5, 1.0, 0.9, Rng(4, 1), n_rep=4)
        targets = []
        make_target = stepdirect.car.rho_target
        monkeypatch.setattr(stepdirect.car, "rho_target", lambda *a: targets.append(make_target(*a)) or targets[-1])
        car_gibbs_run(data, CarHyper(), 20, 0, 1, "direct", Rng(5, 2))
        assert len(targets) == 20

        def no_log_w(x):
            raise AssertionError("the level envelope called log_w")

        for target in targets:
            target.log_w = no_log_w
            level_envelope(target)

    @pytest.mark.parametrize("side", [4, 5, 8, 10])
    def test_finite_below_one(self, side):
        # eigvalsh can round the Perron root of D^-1 A above 1 on these
        # lattices; capped at 1, F stays finite at every grid point below 1.
        a = lattice_adjacency(side)
        eig = car_eigen_precompute(a, a.sum(axis=1))
        assert eig[0] <= 1.0
        table = rho_family(eig).table
        assert np.all(np.isfinite(table.f[table.x < 1.0]))

    def test_grid_spans_the_support(self):
        eig = car_eigen_precompute(lattice_adjacency(4), lattice_adjacency(4).sum(axis=1))
        table = rho_family(eig).table
        grid, log_f = table.x, table.f
        # The table holds no tilt: its members pass theta to each read.
        assert [f.name for f in dataclasses.fields(table)] == ["x", "f", "flat_tilts", "f_up", "chords"]
        assert grid[0] == 0.0 and grid[-1] == 1.0 and grid[-2] == np.nextafter(1.0, 0.0)
        assert np.all(np.diff(grid) > 0.0)
        assert np.array_equal(log_f, rho_target(eig, 0.0, 1.0).log_w(grid))
        # The flat tilts are the table's discrete slopes, negated (NaN where
        # F is -inf at both ends of a step, as it may be next to rho = 1).
        with np.errstate(invalid="ignore"):
            slopes = np.diff(log_f) / np.diff(grid)
        assert np.array_equal(table.flat_tilts, -slopes, equal_nan=True)

    @settings(max_examples=60, deadline=None)
    @given(
        lattice=st.sampled_from([6, 12]),
        eta_a_eta=st.floats(min_value=-50.0, max_value=3000.0),
        tau2=st.floats(min_value=0.05, max_value=10.0),
    )
    @example(lattice=6, eta_a_eta=-5.0, tau2=1.0)
    @example(lattice=12, eta_a_eta=3000.0, tau2=0.05)
    def test_tilted_reads_match_full_array(self, lattice, eta_a_eta, tau2):
        eig, family = LATTICE_FAMILIES[lattice]
        table = family.table
        drift = eta_a_eta / (2.0 * tau2)
        target = rho_target(eig, eta_a_eta, tau2, family)
        # The member reads the family's table at its tilt, float for float.
        for got, want in zip(target.log_w_bounds(table.x), table.bounds(table.x, drift)):
            assert np.array_equal(got, want)
        # Every point the level envelope reads has lo <= log w <= hi, lo up
        # to the rounding of log w.
        recording = target.log_w_bounds = RecordingReader(target.log_w_bounds)
        envelope = level_envelope(target)
        assert recording.reads
        for x, lo, hi in recording.reads:
            assert_brackets(lo, target.log_w(x), hi)
        # The cells are those read from the table and its upper bounds
        # written out in full under the tilt: the same points, and the same
        # levels up to the rounding of the tilt's sum.
        full = FullGrid(table, drift)
        target.log_w_bounds = full.bounds
        ref = level_envelope(target)
        assert np.array_equal(envelope.bounds, ref.bounds)
        for name in ("heights", "cdf", "log_w"):
            assert np.allclose(getattr(envelope, name), getattr(ref, name), rtol=1e-9, atol=0.0), name
        # The mode search starts at the full array's argmax, so it ends at
        # the same mode, except that a slope at 0 within the rounding of the
        # spectrum's sum gives 0 exactly.
        start = int(np.argmax(full.values))
        assert table.peak(drift) == start
        mode = concave_mode(rho_slope(eig, drift), 0.0, RHO_MAX, float(table.x[start]))
        assert target.x_mode == mode or (target.x_mode == 0.0 and mode < 1e-14)


class TestConjugateDraws:
    @staticmethod
    @pytest.fixture(scope="class")
    def setup():
        rng = Rng(3, 0)
        data = car_synthetic(3, beta=[1.0, 0.5], sigma2=0.5, tau2=1.0, rho=0.5, rng=rng, n_rep=2)
        state = CarState(
            beta=np.array([1.0, 0.5]),
            eta=rng.generator.standard_normal(data.k) * 0.3,
            sigma2=0.5,
            tau2=1.0,
            rho=0.5,
        )
        return data, state, CarHyper()

    def test_beta_draw_reads_the_kept_gram_matrix(self, setup):
        # X'X is formed once per data set; the draw is the one from X'X formed afresh.
        data, state, hyper = setup
        assert np.array_equal(data.xtx, data.X.T @ data.X)
        resid = data.y - state.eta[data.area]
        omega = data.X.T @ data.X / state.sigma2 + np.eye(data.d) / hyper.sigma_beta2
        want = Rng(5).mvn_precision(omega, data.X.T @ resid / state.sigma2)
        assert np.array_equal(draw_beta_car(data, state, hyper, Rng(5)), want)

    def test_beta_mean_matches_normal_equations(self, setup):
        data, state, hyper = setup
        rng = Rng(4)
        draws = np.array([draw_beta_car(data, state, hyper, rng) for _ in range(4000)])
        resid = data.y - np.eye(data.k)[data.area] @ state.eta
        omega = data.X.T @ data.X / state.sigma2 + np.eye(data.d) / hyper.sigma_beta2
        mean = np.linalg.solve(omega, data.X.T @ resid / state.sigma2)
        se = np.sqrt(np.diag(np.linalg.inv(omega)) / 4000)
        assert np.all(np.abs(draws.mean(axis=0) - mean) < 5 * se)

    def test_eta_mean_matches_normal_equations(self, setup):
        data, state, hyper = setup
        rng = Rng(5)
        draws = np.array([draw_eta(data, state, hyper, rng) for _ in range(4000)])
        resid = data.y - data.X @ state.beta
        prec = (np.diag(data.D) - state.rho * data.A.toarray()) / state.tau2
        s = np.eye(data.k)[data.area]
        omega = s.T @ s / state.sigma2 + prec
        mean = np.linalg.solve(omega, s.T @ resid / state.sigma2)
        se = np.sqrt(np.diag(np.linalg.inv(omega)) / 4000)
        assert np.all(np.abs(draws.mean(axis=0) - mean) < 5 * se)

    def test_variance_draw_means(self, setup):
        data, state, hyper = setup
        rng = Rng(6)
        resid = data.y - data.X @ state.beta - np.eye(data.k)[data.area] @ state.eta
        shape, rate = 0.5 * data.n, 0.5 * float(resid @ resid)
        draws = np.array([draw_sigma2_car(data, state, hyper, rng) for _ in range(20_000)])
        assert draws.mean() == pytest.approx(rate / (shape - 1.0), rel=0.05)

        quad = float(state.eta @ (np.diag(data.D) - state.rho * data.A.toarray()) @ state.eta)
        shape, rate = 0.5 * data.k, 0.5 * quad
        draws = np.array([draw_tau2(data, state, hyper, rng) for _ in range(20_000)])
        assert draws.mean() == pytest.approx(rate / (shape - 1.0), rel=0.05)


class TestRhoSteps:
    @staticmethod
    @pytest.fixture(scope="class")
    def setup():
        rng = Rng(7, 0)
        data = car_synthetic(4, beta=[1.0], sigma2=0.5, tau2=1.0, rho=0.7, rng=rng, n_rep=2)
        state = CarState(
            beta=np.array([1.0]),
            eta=rng.generator.standard_normal(data.k) * 0.5,
            sigma2=0.5,
            tau2=1.0,
            rho=0.5,
        )
        return data, state

    def test_direct_in_range(self, setup):
        data, state = setup
        rho, report = draw_rho_direct(data, state, Rng(8))
        assert 0.0 <= rho <= RHO_MAX
        assert report.n_rejected >= 0

    def test_mh_in_range_and_deterministic(self, setup):
        data, state = setup
        r1 = draw_rho_mh(data, state, Rng(9), 0.05)
        r2 = draw_rho_mh(data, state, Rng(9), 0.05)
        assert r1 == r2
        assert 0.0 <= r1[0] <= RHO_MAX

    def test_mh_validates_proposal_sd(self, setup):
        data, state = setup
        with pytest.raises(DomainError):
            draw_rho_mh(data, state, Rng(0), 0.0)


class TestGibbsRun:
    def test_spectrum_computed_once_per_data(self, monkeypatch):
        # One eigensolve per data set, on the band CarData laid out at set-up:
        # A is not validated or laid out again.
        calls, layouts = [], []
        spectrum, layout = stepdirect.car._band_spectrum, stepdirect.car._band_layout
        monkeypatch.setattr(stepdirect.car, "_band_spectrum", lambda *args: calls.append(args) or spectrum(*args))
        monkeypatch.setattr(stepdirect.car, "_band_layout", lambda a: layouts.append(a) or layout(a))
        data = car_synthetic(3, beta=[1.0], sigma2=0.5, tau2=1.0, rho=0.5, rng=Rng(16), n_rep=2)
        set_up = len(layouts)
        car_gibbs_run(data, CarHyper(), 5, 0, 1, "direct", Rng(17))
        car_gibbs_run(data, CarHyper(), 5, 0, 1, "mh", Rng(18))
        assert len(calls) == 1 and len(layouts) == set_up
        assert np.array_equal(data.eigenvalues, car_eigen_precompute(data.A, data.D))

    def test_shapes_and_extras(self):
        data = car_synthetic(3, beta=[1.0, 0.5], sigma2=0.5, tau2=1.0, rho=0.5, rng=Rng(10), n_rep=2)
        out = car_gibbs_run(data, CarHyper(), iters=30, burnin=10, thin=2, rho_method="direct", rng=Rng(11))
        assert out.n_saved == 10
        assert out.names[-1] == "rho"
        assert out.extras["rho_rejects"].size == 30
        assert np.all((out.column("rho") >= 0) & (out.column("rho") < 1))

    def test_thinned_counts(self):
        # The direct step thins some candidates with no read of log w, and
        # counts them apart from its rejections; MH thins none.
        data = car_synthetic(6, [1.0, 0.5], 0.5, 1.0, 0.9, Rng(70), n_rep=4)
        direct = car_gibbs_run(data, CarHyper(), 200, 0, 1, "direct", Rng(71))
        mh = car_gibbs_run(data, CarHyper(), 20, 0, 1, "mh", Rng(71))
        assert direct.extras["rho_thinned"].shape == (200,) and direct.extras["rho_thinned"].sum() > 0
        assert list(mh.extras["rho_thinned"]) == [0] * 20

    def test_unknown_method_rejected(self):
        data = car_synthetic(2, beta=[1.0], sigma2=0.5, tau2=1.0, rho=0.5, rng=Rng(12))
        with pytest.raises(DomainError):
            car_gibbs_run(data, CarHyper(), 10, 0, 1, "slice", Rng(0))

    def test_negative_iters_rejected(self):
        data = car_synthetic(2, beta=[1.0], sigma2=0.5, tau2=1.0, rho=0.5, rng=Rng(13))
        with pytest.raises(DomainError):
            car_gibbs_run(data, CarHyper(), -1, 0, 1, "direct", Rng(0))


class TestSyntheticAndCsv:
    def test_synthetic_shapes(self):
        data = car_synthetic(3, beta=[1.0, 0.5, -0.2], sigma2=0.5, tau2=1.0, rho=0.5, rng=Rng(14), n_rep=3)
        assert data.k == 9 and data.n == 27 and data.d == 3
        assert np.eye(data.k)[data.area].sum() == data.n

    def test_synthetic_validation(self):
        with pytest.raises(DomainError):
            car_synthetic(3, beta=[1.0], sigma2=0.0, tau2=1.0, rho=0.5, rng=Rng(0))
        with pytest.raises(DomainError):
            car_synthetic(3, beta=[1.0], sigma2=1.0, tau2=1.0, rho=1.0, rng=Rng(0))
        with pytest.raises(DomainError):
            car_synthetic(3, beta=[1.0], sigma2=1.0, tau2=1.0, rho=0.5, rng=Rng(0), n_rep=0)

    def test_prior_eta_is_the_dense_r_inverse_z(self):
        # car_synthetic draws X's random column, then z for eta, then the
        # noise, from one stream; eta is R^{-1} z with R'R = (D - rho A)/tau^2.
        side, beta, sigma2, tau2, rho, n_rep = 20, [1.0, 0.5], 0.5, 1.3, 0.9, 2
        data = car_synthetic(side, beta, sigma2, tau2, rho, Rng(40), n_rep=n_rep)
        a = lattice_adjacency(side).toarray()
        k = a.shape[0]
        gen = Rng(40).generator
        x1, z, noise = gen.standard_normal(k * n_rep), gen.standard_normal(k), gen.standard_normal(k * n_rep)
        r = np.linalg.cholesky((np.diag(a.sum(axis=1)) - rho * a) / tau2).T
        eta = solve_triangular(r, z, lower=False)
        np.testing.assert_array_equal(data.X[:, 1], x1)
        want = data.X @ beta + eta[data.area] + noise * math.sqrt(sigma2)
        assert np.max(np.abs(data.y - want)) <= 1e-13 * np.max(np.abs(eta))

    def test_set_up_allocates_no_k_by_k_array(self):
        # One 1600 x 1600 float array is 20.5 MB; the band LU's working
        # arrays at bandwidth 40 come to about 2 MB.
        car_synthetic(3, [1.0, 0.5], 0.5, 1.0, 0.9, Rng(41))  # imports and caches outside the trace
        tracemalloc.start()
        try:
            data = car_synthetic(40, [1.0, 0.5], 0.5, 1.0, 0.9, Rng(41), n_rep=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert data.k == 1600
        assert peak < 4e6

    def test_repeated_and_reversed_edges_are_one_edge(self, tmp_path):
        (tmp_path / "y.csv").write_text("area,y\n0,0.5\n1,1.5\n2,-0.5\n")
        (tmp_path / "x.csv").write_text("x_0\n1.0\n1.0\n1.0\n")
        (tmp_path / "adjacency.csv").write_text("i,j\n0,1\n1,0\n1,2\n1,2\n")
        data = car_load_csv(tmp_path / "y.csv", tmp_path / "x.csv", tmp_path / "adjacency.csv")
        np.testing.assert_array_equal(data.edges, [[0, 1], [1, 2]])
        np.testing.assert_array_equal(data.A.toarray(), [[0, 1, 0], [1, 0, 1], [0, 1, 0]])
        np.testing.assert_array_equal(data.D, [1.0, 2.0, 1.0])

    def test_csv_round_trip(self, tmp_path):
        data = car_synthetic(3, beta=[1.0, 0.5], sigma2=0.5, tau2=1.0, rho=0.5, rng=Rng(15), n_rep=2)
        car_dump_csv(data, tmp_path)
        loaded = car_load_csv(tmp_path / "y.csv", tmp_path / "x.csv", tmp_path / "adjacency.csv")
        np.testing.assert_allclose(loaded.y, data.y, rtol=1e-12)
        np.testing.assert_allclose(loaded.X, data.X, rtol=1e-12)
        np.testing.assert_array_equal(loaded.A.toarray(), data.A.toarray())
        np.testing.assert_array_equal(np.eye(loaded.k)[loaded.area], np.eye(data.k)[data.area])

    @pytest.mark.parametrize(
        "name, line, row, message",
        [
            ("y.csv", 3, "1.5,0.25", "invalid literal for int"),
            ("y.csv", 2, "1,x", "could not convert string to float"),
            ("x.csv", 4, "1.0", "expected 2 cells, found 1"),
            ("adjacency.csv", 2, "0,one", "invalid literal for int"),
        ],
        ids=["y_area_fraction", "y_value_text", "x_short_row", "adjacency_index_text"],
    )
    def test_malformed_cell_names_file_and_line(self, tmp_path, name, line, row, message):
        data = car_synthetic(3, beta=[1.0, 0.5], sigma2=0.5, tau2=1.0, rho=0.5, rng=Rng(15), n_rep=2)
        car_dump_csv(data, tmp_path)
        lines = (tmp_path / name).read_text().splitlines()
        lines[line - 1] = row
        (tmp_path / name).write_text("\n".join(lines) + "\n")
        with pytest.raises(DomainError, match=re.escape(f"{tmp_path / name}:{line}: ") + message):
            car_load_csv(tmp_path / "y.csv", tmp_path / "x.csv", tmp_path / "adjacency.csv")

    @pytest.mark.parametrize("name", ["y.csv", "x.csv", "adjacency.csv"])
    def test_header_only_file_has_no_data_rows(self, tmp_path, name):
        data = car_synthetic(3, beta=[1.0, 0.5], sigma2=0.5, tau2=1.0, rho=0.5, rng=Rng(15), n_rep=2)
        car_dump_csv(data, tmp_path)
        header = (tmp_path / name).read_text().splitlines()[0]
        (tmp_path / name).write_text(header + "\n")
        with pytest.raises(DomainError, match=re.escape(f"{tmp_path / name}: no data rows")):
            car_load_csv(tmp_path / "y.csv", tmp_path / "x.csv", tmp_path / "adjacency.csv")

    def test_blank_design_header_is_refused(self, tmp_path):
        # A blank first line parses as an empty header, and blank rows match
        # its width of 0, so read_csv alone would return a design of no columns.
        data = car_synthetic(3, beta=[1.0, 0.5], sigma2=0.5, tau2=1.0, rho=0.5, rng=Rng(15), n_rep=2)
        car_dump_csv(data, tmp_path)
        (tmp_path / "x.csv").write_text("\n" * (data.n + 1))
        with pytest.raises(DomainError, match="empty design file"):
            car_load_csv(tmp_path / "y.csv", tmp_path / "x.csv", tmp_path / "adjacency.csv")


THREAD_SCRIPT = """
import hashlib
from stepdirect.car import CarHyper, car_gibbs_run, car_synthetic
from stepdirect.rngstats import Rng

data = car_synthetic(20, [1.0, 0.5], 0.5, 1.0, 0.9, Rng(4, 1), n_rep=4)
chain = car_gibbs_run(data, CarHyper(), 150, 0, 1, "direct", Rng(4, 2))
for array in (data.y, data.X, data.eigenvalues, chain.draws, chain.extras["rho_rejects"]):
    print(hashlib.sha256(array.tobytes()).hexdigest())
"""


class TestBlasThreads:
    def test_data_and_chain_do_not_depend_on_the_thread_count(self):
        # Two processes, one after the other: OpenBLAS reads its thread
        # count when it loads, so each count needs a fresh interpreter.
        package_root = str(Path(stepdirect.car.__file__).parents[1])
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
            run = subprocess.run(
                [sys.executable, "-c", THREAD_SCRIPT], env=env, capture_output=True, text=True, check=True
            )
            outputs.append(run.stdout.split())
        assert len(outputs[0]) == 5
        assert outputs[0] == outputs[1]
