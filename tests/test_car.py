from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stepdirect.car
from stepdirect.car import (
    RHO_MAX,
    RHO_SAMPLER_CONFIG,
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
    rho_grid_table,
    rho_target,
)
from stepdirect.errors import DomainError
from stepdirect.rngstats import Rng
from stepdirect.sampler import DirectSampler, rejection_bound
from stepdirect.stepfn import build_step, level_knots


def cycle_adjacency(k: int) -> np.ndarray:
    a = np.zeros((k, k))
    for i in range(k):
        a[i, (i + 1) % k] = 1.0
        a[(i + 1) % k, i] = 1.0
    return a


def dense_eta_draw(data: CarData, state: CarState, rng: Rng) -> np.ndarray:
    """Reference eta draw with dense S and A, factored in the data's order.

    Omega = S'S/sigma^2 + (D - rho A)/tau^2 and b = S'(y - X beta)/sigma^2,
    drawn by Rng.mvn_precision; the banded draw must match it to round-off.
    """
    resid = data.y - data.X @ state.beta
    omega = data.S.T @ data.S / state.sigma2 + (np.diag(data.D) - state.rho * data.A) / state.tau2
    linear = data.S.T @ resid / state.sigma2
    p = data.order
    eta = np.empty(data.k)
    eta[p] = rng.mvn_precision(omega[np.ix_(p, p)], linear[p])
    return eta


def relabeled(data: CarData, labels) -> CarData:
    """The same data with area i renamed labels[i]."""
    a = np.zeros_like(data.A)
    a[np.ix_(labels, labels)] = data.A
    s = np.zeros_like(data.S)
    s[:, labels] = data.S
    return CarData(y=data.y, X=data.X, S=s, A=a)


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
        a = lattice_adjacency(3)
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
        return CarData(y=np.zeros(k), X=np.ones((k, 1)), S=np.eye(k), A=a)

    def test_accepts_lattice(self):
        self.base(lattice_adjacency(2))

    def test_rejects_self_loop(self):
        a = lattice_adjacency(2)
        a[0, 0] = 1.0
        with pytest.raises(DomainError):
            self.base(a)

    def test_rejects_asymmetric(self):
        a = lattice_adjacency(2)
        a[0, 1] = 0.0
        with pytest.raises(DomainError):
            self.base(a)

    def test_rejects_nonbinary(self):
        a = lattice_adjacency(2)
        a[0, 1] = a[1, 0] = 0.5
        with pytest.raises(DomainError):
            self.base(a)

    def test_rejects_isolated_area(self):
        a = np.zeros((3, 3))
        a[0, 1] = a[1, 0] = 1.0
        with pytest.raises(DomainError):
            self.base(a)


class TestAreaIndicator:
    @pytest.mark.parametrize("row", [[0.0, 1.0, 1.0, 0.0], [0.0, 0.5, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [0.0, 2.0, 0.0, 0.0]])
    def test_rejects_row_that_is_not_one_hot(self, row):
        s = np.eye(4)
        s[2] = row
        with pytest.raises(DomainError, match="row 2 of S"):
            CarData(y=np.zeros(4), X=np.ones((4, 1)), S=s, A=cycle_adjacency(4))

    def test_keeps_areas_and_counts(self):
        s = np.eye(4)[[3, 0, 3, 1]]
        data = CarData(y=np.zeros(4), X=np.ones((4, 1)), S=s, A=cycle_adjacency(4))
        np.testing.assert_array_equal(data.area, [3, 0, 3, 1])
        np.testing.assert_array_equal(data.counts, [1.0, 1.0, 0.0, 2.0])
        with pytest.raises(dataclasses.FrozenInstanceError):
            data.S = np.eye(4)


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
        s = np.repeat(np.eye(k), 2, axis=0)
        x = np.column_stack((np.ones(2 * k), Rng(23).generator.standard_normal(2 * k)))
        data = CarData(y=Rng(24).generator.standard_normal(2 * k), X=x, S=s, A=cycle_adjacency(k))
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
        data = CarData(y=gen.standard_normal(2 * k), X=np.ones((2 * k, 1)), S=np.eye(k)[area], A=a)
        state = CarState(beta=[0.3], eta=gen.standard_normal(k), sigma2=sigma2, tau2=tau2, rho=rho)
        eta = state.eta

        scale = np.abs(eta) @ a @ np.abs(eta)
        assert data.eta_a_eta(eta) == pytest.approx(eta @ a @ eta, rel=0.0, abs=1e-12 * scale)
        hyper = CarHyper()
        quad = eta @ (np.diag(data.D) - rho * a) @ eta
        dense_tau2 = Rng(seed).inverse_gamma_trunc(0.5 * k, 0.5 * quad, hyper.m_tau)
        assert draw_tau2(data, state, hyper, Rng(seed)) == pytest.approx(dense_tau2, rel=1e-12)
        assert_draws_match_dense(data, state, seed)


class TestEigenPrecompute:
    def test_row_stochastic_spectrum(self):
        a = lattice_adjacency(4)
        eig = car_eigen_precompute(a, a.sum(axis=1))
        assert eig[0] == pytest.approx(1.0, abs=1e-10)
        assert eig.min() >= -1.0 - 1e-10
        assert np.all(np.diff(eig) <= 1e-12)


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

    def test_direct_draws_match_quadrature(self):
        a = cycle_adjacency(4)
        eig = car_eigen_precompute(a, a.sum(axis=1))
        drift = 4.0
        target = rho_target(eig, eta_a_eta=2.0 * drift, tau2=1.0)
        draws, _ = DirectSampler(target, RHO_SAMPLER_CONFIG).sample(20_000, Rng(2))
        rho, cdf = rho_quadrature_cdf(eig, drift)
        qs = np.linspace(0.05, 0.95, 19)
        edges = np.interp(qs, cdf, rho)
        emp = np.histogram(draws, bins=np.concatenate(([0.0], edges, [1.0])))[0] / draws.size
        exact = np.diff(np.concatenate(([0.0], qs, [1.0])))
        assert 0.5 * np.abs(emp - exact).sum() < 0.015


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
        table = rho_grid_table(eig)
        bounds, plain_bounds = [], []
        for eta_a_eta, tau2 in drifts:
            target = rho_target(eig, eta_a_eta, tau2, table)
            grid_x, grid_log_w = target.grid
            assert np.array_equal(grid_log_w, target.log_w(grid_x))
            kt = level_knots(target)
            assert np.array_equal(kt.log_probs, target.base.log_prob(kt.x1, kt.x2))
            with np.errstate(divide="ignore"):
                thr = np.log(kt.knots) + target.log_c
            for ends in (kt.x1, kt.x2):
                inside = (ends > 0.0) & (ends < 1.0)
                assert np.all(target.log_w(ends[inside]) <= thr[inside])
            bounds.append(rejection_bound(build_step(kt)))
            plain_bounds.append(rejection_bound(build_step(level_knots(dataclasses.replace(target, grid=None)))))
        # One target's bound moves by a few percent when its level points
        # shift by a fraction of a cell, with or without the table; summed
        # over several drifts the table may loosen it by at most 5%.
        assert sum(bounds) <= 1.05 * sum(plain_bounds)
        assert max(b / p for b, p in zip(bounds, plain_bounds)) <= 1.25

    def test_table_built_on_first_rho_step_only(self, monkeypatch):
        calls = []
        table = stepdirect.car.rho_grid_table
        monkeypatch.setattr(stepdirect.car, "rho_grid_table", lambda lam: calls.append(lam) or table(lam))
        data = car_synthetic(3, beta=[1.0], sigma2=0.5, tau2=1.0, rho=0.5, rng=Rng(19), n_rep=2)
        assert not calls
        car_gibbs_run(data, CarHyper(), 5, 0, 1, "direct", Rng(20))
        car_gibbs_run(data, CarHyper(), 5, 0, 1, "direct", Rng(21))
        assert len(calls) == 1

    def test_grid_spans_the_support(self):
        eig = car_eigen_precompute(lattice_adjacency(4), lattice_adjacency(4).sum(axis=1))
        grid, log_f = rho_grid_table(eig)
        assert grid[0] == 0.0 and grid[-1] == 1.0 and grid[-2] == np.nextafter(1.0, 0.0)
        assert np.all(np.diff(grid) > 0.0)
        assert np.array_equal(log_f, rho_target(eig, 0.0, 1.0).log_w(grid))


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

    def test_beta_mean_matches_normal_equations(self, setup):
        data, state, hyper = setup
        rng = Rng(4)
        draws = np.array([draw_beta_car(data, state, hyper, rng) for _ in range(4000)])
        resid = data.y - data.S @ state.eta
        omega = data.X.T @ data.X / state.sigma2 + np.eye(data.d) / hyper.sigma_beta2
        mean = np.linalg.solve(omega, data.X.T @ resid / state.sigma2)
        se = np.sqrt(np.diag(np.linalg.inv(omega)) / 4000)
        assert np.all(np.abs(draws.mean(axis=0) - mean) < 5 * se)

    def test_eta_mean_matches_normal_equations(self, setup):
        data, state, hyper = setup
        rng = Rng(5)
        draws = np.array([draw_eta(data, state, hyper, rng) for _ in range(4000)])
        resid = data.y - data.X @ state.beta
        prec = (np.diag(data.D) - state.rho * data.A) / state.tau2
        omega = data.S.T @ data.S / state.sigma2 + prec
        mean = np.linalg.solve(omega, data.S.T @ resid / state.sigma2)
        se = np.sqrt(np.diag(np.linalg.inv(omega)) / 4000)
        assert np.all(np.abs(draws.mean(axis=0) - mean) < 5 * se)

    def test_variance_draw_means(self, setup):
        data, state, hyper = setup
        rng = Rng(6)
        resid = data.y - data.X @ state.beta - data.S @ state.eta
        shape, rate = 0.5 * data.n, 0.5 * float(resid @ resid)
        draws = np.array([draw_sigma2_car(data, state, hyper, rng) for _ in range(20_000)])
        assert draws.mean() == pytest.approx(rate / (shape - 1.0), rel=0.05)

        quad = float(state.eta @ (np.diag(data.D) - state.rho * data.A) @ state.eta)
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
        calls = []
        spectrum = stepdirect.car.car_eigen_precompute
        monkeypatch.setattr(stepdirect.car, "car_eigen_precompute", lambda a, d: calls.append(a) or spectrum(a, d))
        data = car_synthetic(3, beta=[1.0], sigma2=0.5, tau2=1.0, rho=0.5, rng=Rng(16), n_rep=2)
        car_gibbs_run(data, CarHyper(), 5, 0, 1, "direct", Rng(17))
        car_gibbs_run(data, CarHyper(), 5, 0, 1, "mh", Rng(18))
        assert len(calls) == 1

    def test_shapes_and_extras(self):
        data = car_synthetic(3, beta=[1.0, 0.5], sigma2=0.5, tau2=1.0, rho=0.5, rng=Rng(10), n_rep=2)
        out = car_gibbs_run(data, CarHyper(), iters=30, burnin=10, thin=2, rho_method="direct", rng=Rng(11))
        assert out.n_saved == 10
        assert out.names[-1] == "rho"
        assert out.extras["rho_rejects"].size == 30
        assert np.all((out.column("rho") >= 0) & (out.column("rho") < 1))

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
        assert data.S.sum() == data.n

    def test_synthetic_validation(self):
        with pytest.raises(DomainError):
            car_synthetic(3, beta=[1.0], sigma2=0.0, tau2=1.0, rho=0.5, rng=Rng(0))
        with pytest.raises(DomainError):
            car_synthetic(3, beta=[1.0], sigma2=1.0, tau2=1.0, rho=1.0, rng=Rng(0))
        with pytest.raises(DomainError):
            car_synthetic(3, beta=[1.0], sigma2=1.0, tau2=1.0, rho=0.5, rng=Rng(0), n_rep=0)

    def test_csv_round_trip(self, tmp_path):
        data = car_synthetic(3, beta=[1.0, 0.5], sigma2=0.5, tau2=1.0, rho=0.5, rng=Rng(15), n_rep=2)
        car_dump_csv(data, tmp_path)
        loaded = car_load_csv(tmp_path / "y.csv", tmp_path / "x.csv", tmp_path / "adjacency.csv")
        np.testing.assert_allclose(loaded.y, data.y, rtol=1e-12)
        np.testing.assert_allclose(loaded.X, data.X, rtol=1e-12)
        np.testing.assert_array_equal(loaded.A, data.A)
        np.testing.assert_array_equal(loaded.S, data.S)
