"""The benchmark's workloads: inputs from a seed, one closed-loop chunk, checks.

Each workload drives only the public library API and looks every entry
point up on its module at call time, so the wrappers in ``spans`` see the
calls. An op is one Gibbs iteration (``treg-nu``, ``car-lattice``) or one
exact draw (``cmp-bulk``). A chunk is a fixed number of ops; the next
chunk starts only after the previous one has returned. ``chunk`` does the
work that is timed, ``check`` validates its output outside the timing.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

import stepdirect.car as car
import stepdirect.cmp as cmp
import stepdirect.sampler as sampler
import stepdirect.treg as treg
from stepdirect.rngstats import Rng


def quantile_bins(oracle):
    """Four equal-probability integer bins from the oracle's quartiles.

    The same bins as the CMP exactness check of the acceptance gate.
    """
    qs = [oracle.quantile(p) for p in (0.25, 0.5, 0.75)]
    edges = np.array([-0.5] + [q + 0.5 for q in qs] + [np.inf])
    cdf = np.exp([oracle.log_cdf(q) for q in qs])
    exact = np.diff(np.concatenate(([0.0], cdf, [1.0])))
    return edges, exact


def binned_tv(draws, edges, exact_probs) -> float:
    emp = np.histogram(draws, bins=edges)[0] / draws.size
    return 0.5 * float(np.abs(emp - exact_probs).sum())


@dataclass
class Tally:
    """Ops attempted and failed, with the first failure for the log."""

    attempted: int = 0
    failed: int = 0
    first_error: str = ""

    def fail(self, n: int, why: str) -> None:
        self.failed += n
        if not self.first_error:
            self.first_error = why


# -- Gibbs workloads ---------------------------------------------------------


@dataclass
class GibbsState:
    data: object
    hyper: object
    chain: object  # TregState / CarState, advanced in place by each chunk
    rng: Rng


class Gibbs:
    """A chunk continues one chain: the run function mutates the state it is given."""

    eta_flops = 0.0

    def out_of_range(self, st: GibbsState, out):
        """Per saved iteration: whether the sampled parameter left its support."""
        raise NotImplementedError

    def check(self, st: GibbsState, out, tally: Tally) -> None:
        bad = ~np.all(np.isfinite(out.draws), axis=1) | self.out_of_range(st, out)
        if np.any(bad):
            tally.fail(int(bad.sum()), f"{int(bad.sum())} iterations left a value non-finite or out of range")

    def finish(self, st, tally: Tally) -> None:
        pass

    def targets(self, st) -> list:
        return []


class TregNu(Gibbs):
    """Robust-t regression with the direct nu step: a new 200-knot envelope per iteration."""

    name = "treg-nu"
    chunk_ops = 25
    setup_reps = 5

    def setup(self, seed: int) -> GibbsState:
        sim = treg.treg_synthetic(200, Rng(seed, 1))
        data = treg.TregData(y=sim.y, X=treg.CubicBasis(sim.r, 6).design(sim.r))
        hyper = treg.TregHyper()
        # The start treg_gibbs_run uses when given no init; passing it
        # explicitly lets successive chunks continue one chain.
        chain = treg.TregState(
            beta=np.linalg.lstsq(data.X, data.y, rcond=None)[0],
            sigma2=1.0,
            s=np.ones(data.n),
            nu=min(max(5.0, hyper.a_nu * 2.0), hyper.b_nu),
        )
        return GibbsState(data, hyper, chain, Rng(seed, 2))

    def chunk(self, st: GibbsState):
        return treg.treg_gibbs_run(st.data, st.hyper, self.chunk_ops, 0, 1, "direct", st.rng, init=st.chain)

    def out_of_range(self, st: GibbsState, out):
        nu = out.column("nu")
        return (nu < st.hyper.a_nu) | (nu > st.hyper.b_nu)


class CarLattice(Gibbs):
    """CAR mixed model on a 20x20 lattice (k = 400) with the direct rho step."""

    name = "car-lattice"
    grid_side = 20
    n_rep = 4
    chunk_ops = 10
    setup_reps = 3

    @property
    def eta_flops(self) -> float:
        """Computed from array sizes: S'S, the Cholesky factor, three triangular solves."""
        k = self.grid_side**2
        n = k * self.n_rep
        return n * k**2 + k**3 / 3.0 + 3.0 * k**2

    def setup(self, seed: int) -> GibbsState:
        data = car.car_synthetic(
            self.grid_side, [1.0, 0.5], 0.5, 1.0, 0.9, Rng(seed, 1), n_rep=self.n_rep
        )
        hyper = car.CarHyper()
        # car_gibbs_run repeats this for itself; it is part of what a user
        # pays before the first iteration.
        car.car_eigen_precompute(data.A, data.D)
        chain = car.CarState(
            beta=np.zeros(data.d),
            eta=np.zeros(data.k),
            sigma2=min(1.0, hyper.m_sigma / 2.0),
            tau2=min(1.0, hyper.m_tau / 2.0),
            rho=0.5,
        )
        return GibbsState(data, hyper, chain, Rng(seed, 2))

    def chunk(self, st: GibbsState):
        return car.car_gibbs_run(st.data, st.hyper, self.chunk_ops, 0, 1, "direct", st.rng, init=st.chain)

    def out_of_range(self, st: GibbsState, out):
        rho = out.column("rho")
        return (rho < 0.0) | (rho >= 1.0)


# -- bulk CMP generation -----------------------------------------------------


@dataclass
class CmpState:
    samplers: list  # one built DirectSampler per nu
    rng: Rng
    kept: list = field(init=False)  # draws kept for the TV check, per nu
    drawn: list = field(init=False)  # draws attempted, per nu

    def __post_init__(self):
        self.kept = [[] for _ in self.samplers]
        self.drawn = [0] * len(self.samplers)


class CmpBulk:
    """CMP(lam=2) at nu in {0.05, 0.5, 5}: one envelope build each, then sample(N) rounds."""

    name = "cmp-bulk"
    lam = 2.0
    nus = (0.05, 0.5, 5.0)
    draws_per_target = 10_000
    tv_draws = 200_000  # per nu; a fixed cap keeps memory independent of speed
    tv_limit = 0.01
    setup_reps = 3
    eta_flops = 0.0

    @property
    def chunk_ops(self) -> int:
        return self.draws_per_target * len(self.nus)

    def setup(self, seed: int) -> CmpState:
        samplers = [sampler.DirectSampler(cmp.cmp_target(cmp.CmpParams(self.lam, nu))) for nu in self.nus]
        return CmpState(samplers, Rng(seed, 2))

    def chunk(self, st: CmpState) -> list:
        out = []
        for built in st.samplers:
            # A fresh sampler on the built envelope, so every round does the
            # same work: adaptation starts again from the build each time.
            fresh = sampler.DirectSampler(built.target, built.config, step=built.step)
            out.append(fresh.sample(self.draws_per_target, st.rng))
        return out

    def check(self, st: CmpState, out: list, tally: Tally) -> None:
        n = self.draws_per_target
        for j, (draws, report) in enumerate(out):
            st.drawn[j] += n
            bad = ~np.isfinite(draws) | (draws < 0) | (draws != np.floor(draws))
            if report.n_draws != n or draws.size != n:
                tally.fail(n, f"nu={self.nus[j]}: asked for {n} draws, got {draws.size}")
            elif np.any(bad):
                tally.fail(int(bad.sum()), f"nu={self.nus[j]}: draw {draws[bad][0]!r} is not a count")
            room = self.tv_draws - sum(a.size for a in st.kept[j])
            if room > 0:
                st.kept[j].append(draws[:room].astype(np.int64))

    def targets(self, st: CmpState) -> list:
        return [s.target for s in st.samplers]

    def finish(self, st: CmpState, tally: Tally) -> None:
        """Binned TV against the series oracle; a failing nu fails all its draws."""
        for j, nu in enumerate(self.nus):
            if not st.kept[j]:
                continue
            edges, exact = quantile_bins(cmp.cmp_pmf_oracle(cmp.CmpParams(self.lam, nu)))
            tv = binned_tv(np.concatenate(st.kept[j]), edges, exact)
            print(f"check cmp nu={nu}: binned TV {tv:.5f} over {sum(a.size for a in st.kept[j])} draws")
            if not tv < self.tv_limit:
                tally.fail(st.drawn[j], f"nu={nu}: binned TV {tv:.4f} >= {self.tv_limit}")


WORKLOADS = {w.name: w for w in (TregNu(), CarLattice(), CmpBulk())}
