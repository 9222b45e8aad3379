"""Batch experiment harness writing CSV artifacts.

Every subcommand captures its full configuration (flags, seed, library
version) into config.txt in the output directory, and reruns with the same
configuration produce byte-identical files. Timing goes to stderr only so
it never perturbs the artifacts.
"""
from __future__ import annotations

import argparse
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from importlib import metadata
from pathlib import Path

import numpy as np

from . import car as car_mod
from . import cmp as cmp_mod
from . import treg as treg_mod
from .car import csv_cell, read_csv, write_csv
from .errors import DomainError, StepDirectError
from .rngstats import Rng, summarize
from .sampler import GIBBS_STEP_CONFIG, DirectSampler, SamplerConfig, build_sampler
from .stepfn import MIDPOINT_KINDS, knot_table_rows

__all__ = ["main"]


def _version() -> str:
    try:
        return metadata.version("stepdirect")
    except metadata.PackageNotFoundError:
        return "unknown"


def _write_config(out: Path, args: argparse.Namespace) -> None:
    out.mkdir(parents=True, exist_ok=True)
    # The output directory is where the run lands, not part of its
    # configuration; leaving it out keeps reruns into different
    # directories byte-identical.
    pairs = {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "out")}
    pairs["version"] = _version()
    with open(out / "config.txt", "w") as fh:
        for k, v in sorted(pairs.items()):
            fh.write(f"{k}={csv_cell(v)}\n")


def _write_chain(out: Path, args, chain, params, rejects_name: str):
    """Write draws.csv, summary.csv of ``params`` and diagnostics.csv.

    summary.csv keeps only its header when no draw was saved. Returns the
    per-iteration rejection counts stored under ``rejects_name``.
    """
    its = [args.burnin + i * args.thin for i in range(chain.n_saved)]
    write_csv(
        out / "draws.csv",
        ["iter"] + chain.names,
        [[it] + list(row) for it, row in zip(its, chain.draws)],
    )
    summaries = [(n, summarize(chain.column(n))) for n in (params if chain.n_saved else [])]
    write_csv(
        out / "summary.csv",
        ["param", "mean", "sd", "q025", "q975"],
        [[n, s.mean, s.sd, s.q025, s.q975] for n, s in summaries],
    )
    rejects = chain.extras[rejects_name]
    write_csv(out / "diagnostics.csv", ["iter", rejects_name], list(enumerate(rejects.tolist())))
    return rejects


# -- cmp subcommands -------------------------------------------------------


def cmd_cmp_sample(args, out: Path) -> int:
    params = cmp_mod.CmpParams(args.lam, args.nu)
    config = SamplerConfig(
        n_init_knots=args.n_knots, midpoint_kind=args.midpoint, omega=args.omega
    )
    rng = Rng(args.seed, 0)
    sampler = DirectSampler(cmp_mod.cmp_target(params), config)
    draws, report = sampler.sample(args.n_draws, rng)
    draws = draws.astype(int)
    oracle = cmp_mod.cmp_pmf_oracle(params)
    counts = np.bincount(draws, minlength=oracle.x_max + 1) if draws.size else np.zeros(
        oracle.x_max + 1
    )
    exact = np.zeros(counts.size)
    exact[: oracle.x_max + 1] = oracle.pmf[: counts.size]
    emp = counts / max(args.n_draws, 1)
    tv = 0.5 * float(np.sum(np.abs(emp - exact)))
    keep = (exact >= 1e-12) | (emp > 0)
    write_csv(
        out / "pmf.csv",
        ["x", "pmf_empirical", "pmf_exact"],
        [[x, emp[x], exact[x]] for x in np.flatnonzero(keep)],
    )
    write_csv(out / "draws.csv", ["x"], [[int(x)] for x in draws])
    diag = sampler.diagnostics
    write_csv(
        out / "report.csv",
        ["n_draws", "n_rejected", "knots_inserted", "u_lo", "u_hi", "rejection_bound", "tv"],
        [[report.n_draws, report.n_rejected, report.knots_inserted, diag.u_lo, diag.u_hi, diag.rejection_bound, tv]],
    )
    return 0


def cmd_cmp_step_diag(args, out: Path) -> int:
    if args.method == "equal":
        config = SamplerConfig(n_init_knots=args.n_knots, knot_method="equal", omega=args.omega)
    else:
        kind = "geometric" if args.method == "geom" else "arithmetic"
        config = SamplerConfig(n_init_knots=args.n_knots, midpoint_kind=kind, omega=args.omega)
    target = cmp_mod.cmp_target(cmp_mod.CmpParams(args.lam, args.nu))
    step, diag = build_sampler(target, config)
    write_csv(out / "knots.csv", ["j", "u", "log_prob", "rect_area"], knot_table_rows(step.table))
    write_csv(
        out / "report.csv",
        ["u_lo", "u_hi", "total_rect_area", "rejection_bound", "n_knots"],
        [[diag.u_lo, diag.u_hi, diag.rect_area, diag.rejection_bound, diag.n_knots]],
    )
    return 0


# -- car subcommand --------------------------------------------------------


def cmd_car(args, out: Path) -> int:
    hyper = car_mod.CarHyper(args.sigma_beta2, args.m_sigma, args.m_tau)
    if args.mode == "synthetic":
        data = car_mod.car_synthetic(
            args.grid_side,
            [args.true_beta0, args.true_beta1],
            args.true_sigma2,
            args.true_tau2,
            args.true_rho,
            Rng(args.seed, 1000),
            n_rep=args.n_rep,
        )
    else:
        data = car_mod.car_load_csv(args.y_csv, args.x_csv, args.adjacency_csv)
    chain = car_mod.car_gibbs_run(
        data,
        hyper,
        args.iters,
        args.burnin,
        args.thin,
        args.rho_method,
        Rng(args.seed, 0),
        config=replace(GIBBS_STEP_CONFIG, knot_method=args.knot_method, n_init_knots=args.n_knots),
        sigma_prop=args.sigma_prop,
    )
    params = [n for n in chain.names if not n.startswith("eta_")]
    rejects = _write_chain(out, args, chain, params, "rho_rejects")
    total = int(rejects.sum())
    frac = total / max(args.iters, 1)
    write_csv(
        out / "report.csv",
        ["rho_method", "iters", "total_rho_rejects", "rejects_per_iter"],
        [[args.rho_method, args.iters, total, frac]],
    )
    return 0


# -- treg subcommands ------------------------------------------------------


def cmd_treg(args, out: Path) -> int:
    hyper = treg_mod.TregHyper(
        sigma_beta2=args.sigma_beta2,
        a_sigma=args.a_sigma,
        b_sigma=args.b_sigma,
        a_nu=args.a_nu,
        b_nu=args.b_nu,
    )
    basis = None
    mu_true = None
    r = None
    if args.mode == "synthetic":
        sim = treg_mod.treg_synthetic(args.n, Rng(args.seed, 1000))
        r = sim.r
        basis = treg_mod.CubicBasis(r, args.n_internal_knots)
        data = treg_mod.TregData(y=sim.y, X=basis.design(r))
    else:
        header, body = read_csv(args.data_csv)
        mat = np.array(body)
        if header == ["y", "r"]:
            r = mat[:, 1]
            basis = treg_mod.CubicBasis(r, args.n_internal_knots)
            data = treg_mod.TregData(y=mat[:, 0], X=basis.design(r))
        elif header and header[0] == "y":
            data = treg_mod.TregData(y=mat[:, 0], X=mat[:, 1:])
        else:
            raise StepDirectError(f"{args.data_csv}: first column must be 'y'")
    chain = treg_mod.treg_gibbs_run(
        data,
        hyper,
        args.iters,
        args.burnin,
        args.thin,
        args.nu_method,
        Rng(args.seed, 0),
        config=replace(GIBBS_STEP_CONFIG, knot_method=args.knot_method, n_init_knots=args.n_knots),
    )
    rejects = _write_chain(out, args, chain, chain.names, "nu_rejects")
    write_csv(
        out / "report.csv",
        ["nu_method", "iters", "total_nu_rejects"],
        [[args.nu_method, args.iters, int(rejects.sum())]],
    )
    if basis is not None and chain.n_saved:
        _write_curve(out / "curve.csv", chain, basis, r, Rng(args.seed, 2000), args.mode == "synthetic")
    return 0


def _write_curve(path, chain, basis, r, rng: Rng, synthetic: bool) -> None:
    grid = np.linspace(float(np.min(r)), float(np.max(r)), 101)
    design = basis.design(grid)
    beta_cols = [n for n in chain.names if n.startswith("beta_")]
    betas = np.column_stack([chain.column(n) for n in beta_cols])
    mu_draws = design @ betas.T  # (grid, n_saved)
    sigma = np.sqrt(chain.column("sigma2"))
    nu = chain.column("nu")
    noise = rng.generator.standard_t(np.broadcast_to(nu, mu_draws.shape))
    ypred = mu_draws + sigma * noise
    mu_lo, mu_hi = np.quantile(mu_draws, [0.025, 0.975], axis=1)
    yp_lo, yp_hi = np.quantile(ypred, [0.025, 0.975], axis=1)
    mu_true = treg_mod.mean_curve(grid) if synthetic else np.full(grid.size, np.nan)
    write_csv(
        path,
        ["r", "mu_true", "mu_hat_q025", "mu_hat_q975", "ypred_q025", "ypred_q975"],
        list(zip(grid, mu_true, mu_lo, mu_hi, yp_lo, yp_hi)),
    )


def _list_flag(flag: str, text: str, kind) -> list:
    """A comma-separated list flag's entries, read by kind; DomainError names a bad one."""
    try:
        return [kind(v) for v in text.split(",") if v]
    except ValueError as exc:
        raise DomainError(f"{flag}: {exc}") from None


def cmd_nu_compare(args, out: Path) -> int:
    if args.threads is not None and args.threads < 1:
        raise DomainError(f"--threads must be at least 1, got {args.threads}")
    a_values = _list_flag("--a-values", args.a_values, float)
    n_values = _list_flag("--n-knots-values", args.n_knots_values, int)
    for a in a_values:
        if a < args.n / 2:
            raise StepDirectError(f"A = {a} is infeasible: must be >= n/2 = {args.n / 2}")
    cells = []
    stream = 0
    for a in a_values:
        p = treg_mod.NuTargetParams(n=args.n, A=a, a_nu=args.a_nu, b_nu=args.b_nu)
        for n_knots in n_values:
            cells.append(("direct", p, n_knots, stream))
            stream += 1
        cells.append(("geweke", p, 0, stream))
        stream += 1

    def run_cell(cell):
        method, p, n_knots, stream_id = cell
        rng = Rng(args.seed, stream_id)
        if method == "direct":
            _draws, report = treg_mod.nu_direct_sample(
                p, args.n_draws, rng, SamplerConfig(n_init_knots=n_knots)
            )
            return [p.A, "direct", n_knots, args.n_draws, report.n_rejected]
        _draws, rejected = treg_mod.geweke_sample_many(p, args.n_draws, rng)
        return [p.A, "geweke", "", args.n_draws, rejected]

    with ThreadPoolExecutor(max_workers=args.threads or 1) as pool:
        rows = list(pool.map(run_cell, cells))
    write_csv(out / "rejections.csv", ["A", "method", "n_knots", "n_draws", "n_rejected"], rows)
    return 0


# -- argument parsing ------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="stepdirect", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("cmp-sample", help="draw from a Conway-Maxwell Poisson target")
    p.add_argument("--lam", type=float, default=2.0)
    p.add_argument("--nu", type=float, default=0.5)
    p.add_argument("--n-draws", type=int, default=20000)
    p.add_argument("--n-knots", type=int, default=10)
    p.add_argument("--midpoint", choices=MIDPOINT_KINDS, default="hybrid")
    p.add_argument("--omega", type=float, default=0.5)
    _add_common(p)
    p.set_defaults(func=cmd_cmp_sample)

    p = sub.add_parser("cmp-step-diag", help="dump the step envelope's knot table")
    p.add_argument("--lam", type=float, default=2.0)
    p.add_argument("--nu", type=float, default=0.5)
    p.add_argument("--n-knots", type=int, default=13)
    p.add_argument("--method", choices=["equal", "geom", "arith"], default="geom")
    p.add_argument("--omega", type=float, default=0.5)
    _add_common(p)
    p.set_defaults(func=cmd_cmp_step_diag)

    p = sub.add_parser("car", help="run the CAR mixed-effects Gibbs sampler")
    p.add_argument("--mode", choices=["synthetic", "csv"], default="synthetic")
    p.add_argument("--grid-side", type=int, default=6)
    p.add_argument("--true-beta0", type=float, default=1.0)
    p.add_argument("--true-beta1", type=float, default=0.5)
    p.add_argument("--true-sigma2", type=float, default=0.05)
    p.add_argument("--true-tau2", type=float, default=0.25)
    p.add_argument("--true-rho", type=float, default=0.9)
    p.add_argument("--y-csv")
    p.add_argument("--x-csv")
    p.add_argument("--adjacency-csv")
    p.add_argument("--rho-method", choices=["direct", "mh"], default="direct")
    p.add_argument("--sigma-prop", type=float, default=0.05)
    p.add_argument("--n-knots", type=int, default=200, help="initial knots of the equal and greedy methods")
    p.add_argument("--knot-method", choices=["level", "equal", "greedy"], default="level")
    p.add_argument("--n-rep", type=int, default=4)
    p.add_argument("--iters", type=int, default=20000)
    p.add_argument("--burnin", type=int, default=5000)
    p.add_argument("--thin", type=int, default=1)
    p.add_argument("--sigma-beta2", type=float, default=1000.0)
    p.add_argument("--m-sigma", type=float, default=1000.0)
    p.add_argument("--m-tau", type=float, default=1000.0)
    _add_common(p)
    p.set_defaults(func=cmd_car)

    p = sub.add_parser("treg", help="run the t-errors regression Gibbs sampler")
    p.add_argument("--mode", choices=["synthetic", "csv"], default="synthetic")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--data-csv")
    p.add_argument("--n-internal-knots", type=int, default=6)
    p.add_argument("--nu-method", choices=["direct", "geweke"], default="direct")
    p.add_argument("--n-knots", type=int, default=200, help="initial knots of the equal and greedy methods")
    p.add_argument("--knot-method", choices=["level", "equal", "greedy"], default="level")
    p.add_argument("--iters", type=int, default=10000)
    p.add_argument("--burnin", type=int, default=5000)
    p.add_argument("--thin", type=int, default=1)
    p.add_argument("--sigma-beta2", type=float, default=100.0)
    p.add_argument("--a-sigma", type=float, default=1.0)
    p.add_argument("--b-sigma", type=float, default=1.0)
    p.add_argument("--a-nu", type=float, default=0.01)
    p.add_argument("--b-nu", type=float, default=200.0)
    _add_common(p)
    p.set_defaults(func=cmd_treg)

    p = sub.add_parser("nu-compare", help="rejection counts: direct sampler vs rejection baseline")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--a-values", default="101,120,200,400")
    p.add_argument("--n-knots-values", default="5,20,50,100")
    p.add_argument("--n-draws", type=int, default=100000)
    p.add_argument("--a-nu", type=float, default=0.01)
    p.add_argument("--b-nu", type=float, default=200.0)
    p.add_argument("--threads", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_nu_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        out = Path(args.out)
        _write_config(out, args)
        code = args.func(args, out)
    except StepDirectError as exc:
        print(f"stepdirect: error: {exc}", file=sys.stderr)
        return 3
    print(
        f"stepdirect {args.subcommand}: finished in {time.perf_counter() - started:.2f}s",
        file=sys.stderr,
    )
    return code


if __name__ == "__main__":
    sys.exit(main())
