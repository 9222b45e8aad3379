from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import stepdirect.treg
from stepdirect.errors import DomainError
from stepdirect.rngstats import Rng
from stepdirect.sampler import GIBBS_STEP_CONFIG, SamplerConfig
from stepdirect.stepfn import level_envelope
from stepdirect.treg import (
    CubicBasis,
    NuTargetParams,
    TregData,
    TregHyper,
    TregState,
    _geweke_log_ratio,
    _trunc_exp_quantile,
    compute_A,
    cubic_basis,
    draw_beta_t,
    draw_nu_direct,
    draw_nu_geweke,
    draw_s,
    draw_sigma2_t,
    geweke_nu_star,
    geweke_sample_many,
    mean_curve,
    nu_direct_sample,
    nu_family,
    nu_log_weight,
    nu_target,
    treg_gibbs_run,
    treg_synthetic,
)


def nu_quadrature_cdf(p: NuTargetParams, grid_size: int = 10_001):
    # Log-spaced, as the density at large A is piled up next to a_nu.
    nu = np.geomspace(p.a_nu, p.b_nu, grid_size)
    log_f = nu_log_weight(nu, p.n, p.A)
    f = np.exp(log_f - log_f.max())
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (f[1:] + f[:-1]) * np.diff(nu))))
    return nu, cdf / cdf[-1]


class TestComputeA:
    def test_equality_at_matched_scales(self):
        # s_i = sigma^2 for all i gives exactly n/2.
        assert compute_A(np.full(7, 2.5), 2.5) == pytest.approx(3.5)

    def test_validation(self):
        with pytest.raises(DomainError):
            compute_A(np.array([1.0, -1.0]), 1.0)
        with pytest.raises(DomainError):
            compute_A(np.array([1.0]), 0.0)

    @settings(max_examples=100)
    @given(
        st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=20),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_lower_bound(self, s, sigma2):
        # log r + 1/r >= 1 for every r > 0, so A >= n/2 always.
        assert compute_A(np.array(s), sigma2) >= 0.5 * len(s) - 1e-9


class TestNuTarget:
    def test_params_validation(self):
        with pytest.raises(DomainError):
            NuTargetParams(n=10, A=4.0, a_nu=0.01, b_nu=200.0)
        with pytest.raises(DomainError):
            NuTargetParams(n=10, A=6.0, a_nu=1.0, b_nu=1.0)
        with pytest.raises(DomainError):
            NuTargetParams(n=0, A=6.0, a_nu=0.01, b_nu=200.0)

    @pytest.mark.parametrize("a_const", [math.nan, math.inf, -math.inf])
    def test_non_finite_a_rejected(self, a_const):
        # NaN would pass the A >= n/2 check, and A = inf would give log_c = -inf.
        with pytest.raises(DomainError, match="A must be finite"):
            NuTargetParams(n=10, A=a_const, a_nu=0.01, b_nu=200.0)

    def test_mode_matches_grid_argmax(self):
        rng = Rng(0).generator
        for _ in range(50):
            n = int(rng.integers(5, 400))
            a_const = 0.5 * n * math.exp(rng.uniform(0.0, 1.5))
            p = NuTargetParams(n=n, A=a_const, a_nu=0.01, b_nu=200.0)
            target = nu_target(p)
            grid = np.linspace(p.a_nu, p.b_nu, 20_001)
            log_w = nu_log_weight(grid, n, a_const)
            assert target.log_c >= log_w.max() - 1e-7
            assert abs(target.x_mode - grid[np.argmax(log_w)]) < 0.05 or (
                target.x_mode in (p.a_nu, p.b_nu)
            )

    @pytest.mark.parametrize("n, a_const", [(5, 3.5), (200, 101.0), (200, 400.0), (2000, 1100.0)])
    def test_direct_draws_match_quadrature(self, n, a_const):
        p = NuTargetParams(n=n, A=a_const, a_nu=0.01, b_nu=200.0)
        draws, _ = nu_direct_sample(p, 80_000, Rng(1), GIBBS_STEP_CONFIG)
        nu, cdf = nu_quadrature_cdf(p)
        qs = np.linspace(0.05, 0.95, 19)
        edges = np.interp(qs, cdf, nu)
        emp = np.histogram(draws, bins=np.concatenate(([p.a_nu], edges, [p.b_nu])))[0]
        exact = np.diff(np.concatenate(([0.0], qs, [1.0])))
        assert 0.5 * np.abs(emp / draws.size - exact).sum() < 0.010

    def test_scalar_draw(self):
        p = NuTargetParams(n=200, A=120.0, a_nu=0.01, b_nu=200.0)
        nu, report = draw_nu_direct(p, Rng(2))
        assert p.a_nu <= nu <= p.b_nu
        assert report.n_rejected >= 0

    def test_scalar_draw_defaults_to_the_gibbs_envelope(self):
        p = NuTargetParams(n=200, A=120.0, a_nu=0.01, b_nu=200.0)
        assert draw_nu_direct(p, Rng(3)) == draw_nu_direct(p, Rng(3), GIBBS_STEP_CONFIG)
        assert draw_nu_direct(p, Rng(3)) != draw_nu_direct(p, Rng(3), SamplerConfig())


class TestNuTable:
    """The nu family's table: bounds on log w, read instead of log w."""

    @pytest.mark.parametrize("n", [1, 5, 200, 10_000])
    def test_bounds_on_random_points(self, n):
        # Mirrors TestRhoTable.test_bounds_on_random_graph_tables: lo <= log w
        # <= hi, lo up to the rounding of log w and equal to it at grid
        # points, for A from n/2 to 100 n, at random points, next to both
        # ends of the box and at grid points.
        family = nu_family(n, 0.01, 200.0)
        table = family.table
        assert table.x[0] == 0.01 and table.x[-1] == 200.0
        rng = np.random.default_rng(n)
        on_grid = table.x[np.concatenate((rng.integers(0, table.x.size, 200), [0, 1, table.x.size - 1]))]
        near_ends = np.concatenate((0.01 + 1e-5 * rng.uniform(size=50), 200.0 - 2e-4 * rng.uniform(size=50)))
        points = (np.exp(rng.uniform(math.log(0.01), math.log(200.0), 500)), rng.uniform(0.01, 200.0, 500), near_ends)
        for a_const in 0.5 * n * np.geomspace(1.0, 200.0, 12):
            target = nu_target(NuTargetParams(n=n, A=float(a_const), a_nu=0.01, b_nu=200.0))
            for x in points + (on_grid,):
                lo, hi = target.log_w_bounds(x)
                # The member reads the family's table at theta = -A.
                want_lo, want_hi = table.bounds(x, -a_const)
                assert np.array_equal(lo, want_lo) and np.array_equal(hi, want_hi)
                log_w = nu_log_weight(x, n, a_const)
                assert np.all((lo <= log_w) | np.isclose(lo, log_w, rtol=1e-12, atol=1e-12))
                assert np.all(log_w <= hi)
            assert np.array_equal(target.log_w_bounds(on_grid)[0], nu_log_weight(on_grid, n, a_const))

    def test_tabulated_once_per_box(self):
        # A member reads its family's table, one per (n, a_nu, b_nu).
        p = NuTargetParams(n=37, A=30.0, a_nu=0.5, b_nu=50.0)
        table = nu_target(p).family.table
        assert nu_target(dataclasses.replace(p, A=90.0)).family.table is table
        assert nu_target(dataclasses.replace(p, b_nu=60.0)).family.table is not table

    def test_mode_at_b_nu_is_kept(self):
        # nu's mode_hi is inf, so the rho family's check that w has stopped
        # rising at mode_hi never fires: A = n/2 puts the mode at b_nu.
        target = nu_target(NuTargetParams(n=200, A=100.0, a_nu=0.01, b_nu=200.0))
        assert target.family.mode_hi == math.inf and target.x_mode == 200.0
        assert target.family.slope(200.0, -100.0)[0] > 0.0
        assert draw_nu_direct(NuTargetParams(n=200, A=100.0, a_nu=0.01, b_nu=200.0), Rng(2))[0] <= 200.0

    def test_level_envelope_reads_only_the_table(self, monkeypatch):
        # Mirrors TestRhoTable.test_level_envelope_reads_only_the_table_at_40x40.
        targets = []
        make_target = stepdirect.treg.nu_target
        monkeypatch.setattr(stepdirect.treg, "nu_target", lambda *a: targets.append(make_target(*a)) or targets[-1])
        draw_nu_direct(NuTargetParams(n=200, A=150.0, a_nu=0.01, b_nu=200.0), Rng(1))
        sim = treg_synthetic(200, Rng(1, 1))
        data = TregData(y=sim.y, X=CubicBasis(sim.r, 6).design(sim.r))
        treg_gibbs_run(data, TregHyper(), 20, 0, 1, "direct", Rng(1, 2))
        assert len(targets) == 21

        def no_log_w(x):
            raise AssertionError("the level envelope called log_w")

        for target in targets:
            target.log_w = no_log_w
            level_envelope(target)


class TestGewekeSampler:
    @staticmethod
    @pytest.fixture(scope="class")
    def p():
        return NuTargetParams(n=200, A=120.0, a_nu=0.01, b_nu=200.0)

    def test_rate_root_found(self, p):
        nu_star, found = geweke_nu_star(p)
        assert found and 0.0 < nu_star < p.b_nu

    def test_acceptance_ratio_bounded_by_one(self, p):
        nu_star, _ = geweke_nu_star(p)
        nus = Rng(3).generator.uniform(p.a_nu, p.b_nu, size=1000)
        ratios = _geweke_log_ratio(nus, p, nu_star)
        assert np.all(ratios <= 1e-9)
        # The ratio approaches 1 near the tuning point.
        assert _geweke_log_ratio(np.asarray(nu_star), p, nu_star) == pytest.approx(0.0, abs=1e-9)

    def test_trunc_exp_quantile(self):
        lo, hi, alpha = 0.5, 10.0, 0.7
        u = np.linspace(0.001, 0.999, 99)
        x = _trunc_exp_quantile(u, alpha, lo, hi)
        assert np.all((x >= lo) & (x <= hi))
        assert np.all(np.diff(x) > 0)
        # Median against the closed-form truncated exponential CDF.
        ref = stats.truncexpon(b=(hi - lo) * alpha, loc=lo, scale=1.0 / alpha)
        assert _trunc_exp_quantile(0.5, alpha, lo, hi) == pytest.approx(ref.ppf(0.5), rel=1e-9)

    def test_scalar_and_bulk_agree_with_direct(self, p):
        d1, _ = geweke_sample_many(p, 10_000, Rng(4))
        d2, _ = nu_direct_sample(p, 10_000, Rng(5), GIBBS_STEP_CONFIG)
        assert stats.ks_2samp(d1, d2).pvalue > 0.01

    def test_scalar_draw_in_box(self, p):
        nu, rejected = draw_nu_geweke(p, Rng(6))
        assert p.a_nu <= nu <= p.b_nu and rejected >= 0


class TestConjugateDraws:
    @staticmethod
    @pytest.fixture(scope="class")
    def setup():
        rng = Rng(7)
        n, d = 40, 3
        x = rng.generator.standard_normal((n, d))
        y = x @ np.array([1.0, -0.5, 0.25]) + rng.generator.standard_normal(n)
        data = TregData(y=y, X=x)
        state = TregState(beta=np.zeros(d), sigma2=1.0, s=np.full(n, 2.0), nu=4.0)
        return data, state, TregHyper()

    def test_beta_reduces_to_ridge_for_equal_scales(self, setup):
        data, state, hyper = setup
        rng = Rng(8)
        draws = np.array([draw_beta_t(data, state, hyper, rng) for _ in range(4000)])
        lam = 2.0 / hyper.sigma_beta2  # s_i = 2 for all i
        ridge = np.linalg.solve(data.X.T @ data.X + lam * np.eye(data.d), data.X.T @ data.y)
        omega = data.X.T @ data.X / 2.0 + np.eye(data.d) / hyper.sigma_beta2
        se = np.sqrt(np.diag(np.linalg.inv(omega)) / 4000)
        assert np.all(np.abs(draws.mean(axis=0) - ridge) < 5 * se)

    def test_sigma2_mean(self, setup):
        data, state, hyper = setup
        rng = Rng(9)
        shape = hyper.a_sigma + 0.5 * data.n * state.nu
        rate = hyper.b_sigma + 0.5 * state.nu * float(np.sum(1.0 / state.s))
        draws = np.array([draw_sigma2_t(data, state, hyper, rng) for _ in range(20_000)])
        assert draws.mean() == pytest.approx(shape / rate, rel=0.05)

    def test_s_single_observation_shape(self):
        data = TregData(y=np.array([1.0]), X=np.array([[1.0]]))
        state = TregState(beta=np.array([0.0]), sigma2=1.0, s=np.array([1.0]), nu=3.0)
        rng = Rng(10)
        draws = np.array([draw_s(data, state, TregHyper(), rng)[0] for _ in range(40_000)])
        # IG((nu+1)/2, nu sigma^2/2 + resid^2/2) with nu=3: shape 2, rate 2.
        assert draws.mean() == pytest.approx(2.0 / (2.0 - 1.0), rel=0.1)


class TestHyper:
    @pytest.mark.parametrize("name", ["sigma_beta2", "a_sigma", "b_sigma", "a_nu", "b_nu"])
    def test_nan_rejected(self, name):
        with pytest.raises(DomainError, match="must be positive"):
            TregHyper(**{name: math.nan})

    @pytest.mark.parametrize("name, value", [("sigma2", math.nan), ("nu", math.nan), ("s", [1.0, math.nan, 1.0])])
    def test_state_rejects_nan(self, name, value):
        # As in TregHyper: a NaN in a chain's init fails here, not later
        # as a nu target whose A is not finite.
        state = dict(beta=np.zeros(2), sigma2=1.0, s=np.ones(3), nu=5.0)
        with pytest.raises(DomainError, match="must be positive"):
            TregState(**state | {name: value})


class TestGibbsRun:
    def test_shapes_and_extras(self):
        sim = treg_synthetic(30, Rng(11))
        data = TregData(y=sim.y, X=cubic_basis(sim.r, 2))
        out = treg_gibbs_run(data, TregHyper(), iters=20, burnin=5, thin=3, nu_method="direct", rng=Rng(12))
        assert out.n_saved == 5
        assert out.names[-1] == "nu"
        assert out.extras["nu_rejects"].size == 20

    def test_thinned_counts(self):
        # The direct step thins some candidates with no read of log w, and
        # counts them apart from its rejections; Geweke's sampler thins none.
        sim = treg_synthetic(200, Rng(1, 1))
        data = TregData(y=sim.y, X=CubicBasis(sim.r, 6).design(sim.r))
        direct = treg_gibbs_run(data, TregHyper(), 200, 0, 1, "direct", Rng(1, 2))
        geweke = treg_gibbs_run(data, TregHyper(), 20, 0, 1, "geweke", Rng(1, 2))
        assert direct.extras["nu_thinned"].shape == (200,) and direct.extras["nu_thinned"].sum() > 0
        assert list(geweke.extras["nu_thinned"]) == [0] * 20

    def test_unknown_method_rejected(self):
        sim = treg_synthetic(10, Rng(13))
        data = TregData(y=sim.y, X=cubic_basis(sim.r, 0))
        with pytest.raises(DomainError):
            treg_gibbs_run(data, TregHyper(), 5, 0, 1, "slice", Rng(0))


class TestDataAndBasis:
    def test_data_validation(self):
        with pytest.raises(DomainError):
            TregData(y=np.ones(2), X=np.ones((3, 1)))
        with pytest.raises(DomainError):
            TregData(y=np.array([1.0, np.inf]), X=np.ones((2, 1)))

    def test_mean_curve_origin(self):
        assert mean_curve(0.0, 0.746, 274.7) == 0.0
        assert mean_curve(10.0, 0.746, 274.7) == pytest.approx(
            10.0 * (1.0 - 0.746 * math.exp(-27.47))
        )

    def test_synthetic_shapes(self):
        sim = treg_synthetic(25, Rng(14))
        assert sim.r.shape == sim.mu.shape == sim.y.shape == (25,)
        with pytest.raises(DomainError):
            treg_synthetic(0, Rng(0))

    def test_cubic_reproduction(self):
        r = np.linspace(0.0, 10.0, 60)
        y = 2.0 - r + 0.5 * r**2 - 0.03 * r**3
        x = cubic_basis(r, 0)
        coef, *_ = np.linalg.lstsq(x, y, rcond=None)
        assert np.max(np.abs(x @ coef - y)) < 1e-8

    def test_basis_column_count(self):
        basis = CubicBasis(np.linspace(0, 1, 20), 6)
        assert basis.n_columns == 10

    def test_constant_r_rejected(self):
        with pytest.raises(DomainError):
            CubicBasis(np.ones(10), 3)

    def test_design_is_smooth_on_fine_grid(self):
        basis = CubicBasis(np.linspace(0.0, 10.0, 50), 4)
        grid = np.linspace(0.0, 10.0, 2001)
        d = basis.design(grid)
        second = np.abs(np.diff(d, n=2, axis=0)).max()
        assert second < 1e-3  # bounded second differences on a fine grid

    def test_out_of_range_clamped(self):
        basis = CubicBasis(np.linspace(0.0, 1.0, 10), 0)
        row = basis.design(np.array([5.0]))
        np.testing.assert_allclose(row, basis.design(np.array([1.0])))
