"""End-to-end acceptance checks, one per headline claim.

Each test prints a single bracketed PASS/FAIL line (bypassing capture)
so the whole gate can be read off the terminal at a glance. The checks
run real workloads, so this module is much slower than the unit tests.
"""
from __future__ import annotations

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from stepdirect.car import (
    CarHyper,
    car_eigen_precompute,
    car_gibbs_run,
    car_synthetic,
    rho_target,
)
from stepdirect.chains import mc_standard_error
from stepdirect.cli import main as cli_main
from stepdirect.cmp import (
    CmpDecomposition,
    CmpParams,
    cmp_mismatch_demo,
    cmp_pmf_oracle,
    cmp_target,
)
from stepdirect.rngstats import Rng, summarize
from stepdirect.sampler import GIBBS_STEP_CONFIG, DirectSampler, SamplerConfig, build_sampler
from stepdirect.stepfn import (
    equal_spaced_knots,
    find_u_hi,
    find_u_lo,
    select_knots,
    step_logpdf_unnorm,
    total_rect_area,
)
from stepdirect.treg import (
    NuTargetParams,
    TregData,
    TregHyper,
    cubic_basis,
    geweke_sample_many,
    nu_direct_sample,
    nu_target,
    treg_gibbs_run,
    treg_synthetic,
)


def check(report, label: str, failures: list, detail: str) -> None:
    verdict = "PASS" if not failures else "FAIL"
    tail = detail if not failures else "; ".join(failures)
    report(f"[{label}] {verdict}: {tail}")
    assert not failures, f"{label}: " + "; ".join(failures)


def binned_tv(draws, edges, exact_probs) -> float:
    emp = np.histogram(draws, bins=edges)[0] / draws.size
    return 0.5 * float(np.abs(emp - exact_probs).sum())


def quantile_bins(oracle):
    """Four equal-probability integer bins from the oracle's quartiles."""
    qs = [oracle.quantile(p) for p in (0.25, 0.5, 0.75)]
    edges = np.array([-0.5] + [q + 0.5 for q in qs] + [np.inf])
    cdf = np.exp([oracle.log_cdf(q) for q in qs])
    exact = np.diff(np.concatenate(([0.0], cdf, [1.0])))
    return edges, exact


def cycle_adjacency(k: int) -> np.ndarray:
    a = np.zeros((k, k))
    for i in range(k):
        a[i, (i + 1) % k] = 1.0
        a[(i + 1) % k, i] = 1.0
    return a


def continuous_quadrature_edges(log_density, lo, hi, n_bins, grid_size=200_001):
    """Equal-probability bin edges for a 1-d density given in log form."""
    x = np.linspace(lo, hi, grid_size)
    log_f = log_density(x)
    f = np.exp(log_f - log_f.max())
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (f[1:] + f[:-1]) * np.diff(x))))
    cdf /= cdf[-1]
    qs = np.linspace(1.0 / n_bins, 1.0 - 1.0 / n_bins, n_bins - 1)
    return np.concatenate(([lo], np.interp(qs, cdf, x), [hi]))


CMP_NUS = (0.05, 0.5, 2.0, 5.0)
CMP_REJECT_REFS = (279, 86, 40, 27)


class TestCmpExactness:
    def test_empirical_pmf_matches_series_oracle(self, report):
        started = time.perf_counter()
        failures, tvs = [], []
        for nu in CMP_NUS:
            params = CmpParams(2.0, nu)
            draws, _ = DirectSampler(cmp_target(params)).sample(20_000, Rng(1))
            edges, exact = quantile_bins(cmp_pmf_oracle(params))
            tv = binned_tv(draws, edges, exact)
            tvs.append(tv)
            if tv >= 0.01:
                failures.append(f"nu={nu}: TV={tv:.4f} >= 0.01")
        elapsed = time.perf_counter() - started
        if elapsed >= 60.0:
            failures.append(f"took {elapsed:.1f}s >= 60s")
        check(
            report,
            "cmp exactness",
            failures,
            "TV " + ", ".join(f"{t:.4f}" for t in tvs) + f" in {elapsed:.1f}s",
        )


class TestCmpRejectionEconomy:
    def test_rejections_within_factor_three(self, report):
        failures, observed = [], []
        cfg = SamplerConfig(n_init_knots=10)
        for nu, ref in zip(CMP_NUS, CMP_REJECT_REFS):
            target = cmp_target(CmpParams(2.0, nu))
            for seed in (0, 1, 2):
                _, rep = DirectSampler(target, cfg).sample(20_000, Rng(seed))
                observed.append(rep.n_rejected)
                if not ref / 3 <= rep.n_rejected <= ref * 3:
                    failures.append(
                        f"nu={nu} seed={seed}: {rep.n_rejected} rejections vs reference {ref}"
                    )
        check(report, "cmp rejection economy", failures, f"counts {observed}")


class TestKnotDiagnostics:
    # (nu, n_intervals) -> per-method (reference area, tolerance factor,
    # two_sided). The geometric reference in the first case is beaten
    # outright by this implementation, so only the upper bound applies.
    CASES = {
        (0.5, 13): {
            "equal": (0.0754, 1.5, True),
            "geometric": (0.2468, 1.5, False),
            "arithmetic": (0.0570, 1.5, True),
        },
        (0.2, 20): {
            "equal": (4.561e-11, 100.0, True),
            "geometric": (1.007e-17, 100.0, True),
            "arithmetic": (1.743e-15, 100.0, True),
        },
    }

    def test_rectangle_areas_match_references(self, report):
        started = time.perf_counter()
        failures, details = [], []
        for (nu, n), refs in self.CASES.items():
            target = cmp_target(CmpParams(2.0, nu), CmpDecomposition.GEOMETRIC_LAMBDA)
            u_lo = find_u_lo(target)
            u_hi = find_u_hi(target, u_lo)
            for method, (ref, factor, two_sided) in refs.items():
                if method == "equal":
                    table = equal_spaced_knots(target, u_lo, u_hi, n)
                else:
                    table = select_knots(target, u_lo, u_hi, n, method)
                area = total_rect_area(table)
                details.append(f"{method}(nu={nu})={area:.3g}")
                if area > ref * factor or (two_sided and area < ref / factor):
                    failures.append(
                        f"nu={nu} {method}: area {area:.3g} vs reference {ref:.3g}"
                    )
        elapsed = time.perf_counter() - started
        if elapsed >= 10.0:
            failures.append(f"took {elapsed:.1f}s >= 10s")
        check(report, "knot diagnostics", failures, "; ".join(details))


class TestNormalizerSpotValues:
    def test_known_constants(self, report):
        failures = []
        log_z_poisson = cmp_pmf_oracle(CmpParams(2.0, 1.0)).log_z
        if abs(log_z_poisson - 2.0) > 1e-10:
            failures.append(f"log Z(2,1) = {log_z_poisson!r}")
        demo = cmp_mismatch_demo()
        if abs(demo.log_z - 780.515) > 0.01:
            failures.append(f"log Z(2,0.075) = {demo.log_z:.4f}")
        if (demo.mu_base_q025, demo.mu_base_q975) != (261, 38_075):
            failures.append(
                f"base quantiles ({demo.mu_base_q025}, {demo.mu_base_q975})"
            )
        check(
            report,
            "normalizer spot values",
            failures,
            f"log Z(2,1)={log_z_poisson:.12f}, log Z(2,0.075)={demo.log_z:.3f}, "
            f"base quantiles ({demo.mu_base_q025}, {demo.mu_base_q975})",
        )


def _registered_targets():
    """Representative targets spanning all three applications."""
    entries = []
    for nu in (0.5, 2.0, 5.0):
        entries.append(
            (f"cmp nu={nu}", cmp_target(CmpParams(2.0, nu)), SamplerConfig(n_init_knots=10))
        )
    entries.append(
        (
            "cmp nu=0.2 series base",
            cmp_target(CmpParams(2.0, 0.2), CmpDecomposition.GEOMETRIC_LAMBDA),
            SamplerConfig(n_init_knots=20),
        )
    )
    eig = car_eigen_precompute(cycle_adjacency(6), np.full(6, 2.0))
    for eta_a_eta, tau2 in ((2.0, 1.0), (12.0, 0.5)):
        entries.append(
            (
                f"rho drift={eta_a_eta / (2 * tau2)}",
                rho_target(eig, eta_a_eta, tau2),
                GIBBS_STEP_CONFIG,
            )
        )
    for a_const in (120.0, 400.0):
        entries.append(
            (
                f"nu A={a_const}",
                nu_target(NuTargetParams(n=200, A=a_const, a_nu=0.01, b_nu=200.0)),
                GIBBS_STEP_CONFIG,
            )
        )
    return entries


class TestEnvelopeProperties:
    def test_domination_monotonicity_and_bound(self, report):
        started = time.perf_counter()
        failures = []
        rng = Rng(42)
        for name, target, cfg in _registered_targets():
            step, diag = build_sampler(target, cfg)
            u = rng.generator.uniform(size=1000)
            log_h = np.array([step_logpdf_unnorm(step, v) for v in u])
            log_p = np.asarray(target.log_prob_Au(u), dtype=float)
            if not np.all(log_h >= log_p - 1e-8):
                failures.append(f"{name}: envelope dips below P(A_u)")

            u_lo, u_hi = diag.u_lo, diag.u_hi
            for kind in ("arithmetic", "geometric"):
                areas = [
                    total_rect_area(select_knots(target, u_lo, u_hi, n, kind))
                    for n in range(1, 13)
                ]
                if not all(b <= a + 1e-15 for a, b in zip(areas, areas[1:])):
                    failures.append(f"{name}: {kind} area sequence increases")

            sampler = DirectSampler(target, replace(cfg, adapt=False))
            bound = sampler.rejection_bound()
            if bound > 0.5:
                # A frozen envelope would make almost no progress here; let
                # it adapt, which only lowers the realized rejection rate.
                sampler = DirectSampler(target, cfg)
            n_draws = 10_000
            _, rep = sampler.sample(n_draws, Rng(7))
            trials = n_draws + rep.n_rejected
            sigma = math.sqrt(max(bound * (1.0 - bound), 1e-12) / trials)
            frac = rep.n_rejected / trials
            if frac > bound + 3.0 * sigma:
                failures.append(f"{name}: rejection {frac:.4f} above bound {bound:.4f}")
        elapsed = time.perf_counter() - started
        if elapsed >= 120.0:
            failures.append(f"took {elapsed:.1f}s >= 120s")
        check(
            report,
            "envelope properties",
            failures,
            f"{len(_registered_targets())} targets checked in {elapsed:.1f}s",
        )


class TestNuSamplerCrossValidation:
    GEWEKE_REFS = {101.0: 841_390, 120.0: 1_049_358, 200.0: 1_173_088, 400.0: 1_273_444}

    def test_direct_vs_rejection_baseline(self, report):
        started = time.perf_counter()
        failures, details = [], []
        stream = 0
        for a_const, ref in self.GEWEKE_REFS.items():
            p = NuTargetParams(n=200, A=a_const, a_nu=0.01, b_nu=200.0)
            direct_draws = None
            for n_knots in (5, 20, 50, 100):
                cfg = SamplerConfig(n_init_knots=n_knots)
                draws, rep = nu_direct_sample(p, 100_000, Rng(0, stream), cfg)
                stream += 1
                if rep.n_rejected >= 2000:
                    failures.append(
                        f"A={a_const} N={n_knots}: {rep.n_rejected} rejections >= 2000"
                    )
                direct_draws = draws
            gw_draws, gw_rejected = geweke_sample_many(p, 100_000, Rng(0, stream))
            stream += 1
            if not ref / 2 <= gw_rejected <= ref * 2:
                failures.append(
                    f"A={a_const}: baseline rejections {gw_rejected} vs reference {ref}"
                )
            pvalue = stats.ks_2samp(direct_draws[::10], gw_draws[::10]).pvalue
            details.append(f"A={a_const}: KS p={pvalue:.2f}, baseline rejects {gw_rejected}")
            if pvalue <= 0.01:
                failures.append(f"A={a_const}: KS p={pvalue:.4f} <= 0.01")
        elapsed = time.perf_counter() - started
        if elapsed >= 300.0:
            failures.append(f"took {elapsed:.1f}s >= 300s")
        check(
            report,
            "nu sampler cross-validation",
            failures,
            "; ".join(details) + f"; {elapsed:.1f}s",
        )


class TestRhoStepExactness:
    def test_draws_match_quadrature_and_gibbs_rejects_few(self, report):
        failures = []
        eig = car_eigen_precompute(cycle_adjacency(4), np.full(4, 2.0))
        eta = np.array([0.8, -0.3, 0.5, -1.0])
        tau2 = 1.0
        a = cycle_adjacency(4)
        eta_a_eta = float(eta @ a @ eta)
        drift = eta_a_eta / (2.0 * tau2)
        target = rho_target(eig, eta_a_eta, tau2)
        draws, _ = DirectSampler(target, GIBBS_STEP_CONFIG).sample(100_000, Rng(9))

        def log_density(rho):
            return 0.5 * np.sum(np.log(1.0 - rho[:, None] * eig), axis=1) + rho * drift

        edges = continuous_quadrature_edges(log_density, 0.0, 1.0 - 1e-9, 20)
        exact = np.full(20, 0.05)
        tv = binned_tv(draws, edges, exact)
        if tv >= 0.01:
            failures.append(f"TV {tv:.4f} >= 0.01 vs quadrature")

        data = car_synthetic(6, [1.0, 0.5], 0.5, 1.0, 0.9, Rng(70), n_rep=4)
        chain = car_gibbs_run(data, CarHyper(), 2000, 0, 1, "direct", Rng(71))
        rejects = int(chain.extras["rho_rejects"].sum())
        frac = rejects / (2000 + rejects)
        if frac >= 0.01:
            failures.append(f"Gibbs rejection fraction {frac:.4f} >= 1%")
        check(
            report,
            "rho step exactness",
            failures,
            f"TV={tv:.4f}, Gibbs rejection fraction {frac:.4%}",
        )


class TestCalibration:
    N_REPS = 20
    MIN_COVERED = 16  # 80 percent of the replications

    def test_coverage_and_method_agreement(self, report):
        started = time.perf_counter()
        failures, details = [], []

        # CAR: the dependence parameter truth is drawn fresh from its prior
        # each replication; an exact sampler then covers at the nominal rate.
        car_cov = {"rho": 0, "tau2": 0, "sigma2": 0}
        first_car_data = None
        for rep in range(self.N_REPS):
            rng = Rng(500 + rep)
            rho_true = float(rng.generator.uniform())
            data = car_synthetic(6, [1.0, 0.5], 0.5, 1.0, rho_true, rng, n_rep=4)
            if rep == 0:
                first_car_data = data
            chain = car_gibbs_run(data, CarHyper(), 1200, 400, 1, "direct", Rng(600 + rep))
            for name, truth in (("rho", rho_true), ("tau2", 1.0), ("sigma2", 0.5)):
                s = summarize(chain.column(name))
                if s.q025 <= truth <= s.q975:
                    car_cov[name] += 1
        for name, count in car_cov.items():
            if count < self.MIN_COVERED:
                failures.append(f"car {name}: covered {count}/{self.N_REPS}")
        details.append(
            "car coverage " + ", ".join(f"{k}={v}/{self.N_REPS}" for k, v in car_cov.items())
        )

        # t-regression: truths nu=2, sigma=1.25 from the generator defaults.
        treg_cov = {"nu": 0, "sigma2": 0}
        first_treg_data = None
        for rep in range(self.N_REPS):
            sim = treg_synthetic(200, Rng(700 + rep))
            data = TregData(y=sim.y, X=cubic_basis(sim.r, 6))
            if rep == 0:
                first_treg_data = data
            chain = treg_gibbs_run(data, TregHyper(), 1200, 400, 1, "direct", Rng(800 + rep))
            for name, truth in (("nu", 2.0), ("sigma2", 1.25**2)):
                s = summarize(chain.column(name))
                if s.q025 <= truth <= s.q975:
                    treg_cov[name] += 1
        for name, count in treg_cov.items():
            if count < self.MIN_COVERED:
                failures.append(f"treg {name}: covered {count}/{self.N_REPS}")
        details.append(
            "treg coverage " + ", ".join(f"{k}={v}/{self.N_REPS}" for k, v in treg_cov.items())
        )

        # Method agreement on one dataset: direct vs the textbook baselines.
        direct = car_gibbs_run(first_car_data, CarHyper(), 4000, 1000, 1, "direct", Rng(900))
        mh = car_gibbs_run(first_car_data, CarHyper(), 4000, 1000, 1, "mh", Rng(901))
        for name in ("rho", "tau2", "sigma2"):
            d, m = direct.column(name), mh.column(name)
            gap = abs(d.mean() - m.mean())
            tol = 3.0 * math.hypot(mc_standard_error(d), mc_standard_error(m))
            if gap > tol:
                failures.append(f"car {name}: direct vs MH gap {gap:.4f} > {tol:.4f}")

        direct = treg_gibbs_run(first_treg_data, TregHyper(), 4000, 1000, 1, "direct", Rng(902))
        base = treg_gibbs_run(first_treg_data, TregHyper(), 4000, 1000, 1, "geweke", Rng(903))
        for name in ("nu", "sigma2"):
            d, b = direct.column(name), base.column(name)
            gap = abs(d.mean() - b.mean())
            tol = 3.0 * math.hypot(mc_standard_error(d), mc_standard_error(b))
            if gap > tol:
                failures.append(f"treg {name}: direct vs baseline gap {gap:.4f} > {tol:.4f}")

        elapsed = time.perf_counter() - started
        if elapsed >= 900.0:
            failures.append(f"took {elapsed:.1f}s >= 900s")
        check(
            report,
            "calibration",
            failures,
            "; ".join(details) + f"; methods agree; {elapsed:.1f}s",
        )


class TestCliDeterminism:
    def test_reruns_are_byte_identical(self, report, tmp_path):
        failures = []
        runs = {
            "cmp": ["cmp-sample", "--nu", "0.5", "--n-draws", "5000", "--seed", "11"],
            "treg": [
                "treg", "--n", "60", "--n-internal-knots", "3",
                "--iters", "200", "--burnin", "50", "--seed", "12",
            ],
        }
        for label, args in runs.items():
            out_a, out_b = tmp_path / f"{label}_a", tmp_path / f"{label}_b"
            code_a = cli_main(args + ["--out", str(out_a)])
            code_b = cli_main(args + ["--out", str(out_b)])
            if code_a != 0 or code_b != 0:
                failures.append(f"{label}: nonzero exit ({code_a}, {code_b})")
                continue
            names_a = sorted(p.name for p in out_a.iterdir())
            names_b = sorted(p.name for p in out_b.iterdir())
            if names_a != names_b:
                failures.append(f"{label}: file lists differ")
                continue
            for name in names_a:
                if (out_a / name).read_bytes() != (out_b / name).read_bytes():
                    failures.append(f"{label}: {name} differs between reruns")
        check(
            report,
            "cli determinism",
            failures,
            f"{len(runs)} subcommands byte-identical across reruns",
        )
