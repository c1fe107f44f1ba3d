"""Command-line interface.

    netar net gen  --model sbm|er --nodes N [--blocks K] [--p P] --seed S -o FILE
    netar sim      --family pnar|nar --spec ... --theta b0,b1,b2 --net FILE
                   --T n [--burn-in 300] [--copula ...] [--sigma 1.0] --seed S -o FILE
    netar fit      --family pnar|nar --spec linear --net FILE --panel FILE -o FILE
    netar test score --family pnar|nar --alt drift --net FILE --panel FILE -o FILE
    netar test sup --family pnar|nar --alt stnar|tnar [--grid lo:hi:n|auto]
                   [--method davies|bootstrap|both] [--boot-reps 499]
                   [--agg sup|ave] --seed S --net FILE --panel FILE -o FILE
    netar mc run   --config study.json -o results.csv [--qq-out draws.csv]
                   [--threads k] [--format csv|json]
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np
import scipy

from . import __version__
from .dgp import CopulaSpec, SimConfig, simulate_count, simulate_gaussian
from .lintest import lm_test
from .model import ModelSpec, parse_spec
from .netgraph import gen_er, gen_sbm, load_edges, network_summary, save_edges
from .nuisance import run_profile_test
from .qmle import qmle_fit
from .studio import (StudyConfig, _parse_grid, emit_report, load_panel_csv,
                     run_mc_study, save_panel_csv, write_raw_draws)

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_COPULA_FORMS = "indep | gaussian-ar1:RHO | gaussian-exch:RHO"


def _domain(family: str) -> str:
    return "count" if family == "pnar" else "cont"


def _parse_theta(text: str):
    return tuple(float(v) for v in text.split(","))


def _parse_copula(text: str) -> CopulaSpec:
    if text == "indep":
        return CopulaSpec("identity")
    name, _, rho = text.partition(":")
    structure = {"gaussian-ar1": "ar1", "gaussian-exch": "exch"}.get(name)
    try:
        rho = float(rho)
    except ValueError:
        structure = None
    if structure is None:
        raise ValueError(f"unknown copula {text!r}; expected {_COPULA_FORMS}")
    return CopulaSpec(structure, rho)


def _write_json(payload: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _cmd_net(args) -> None:
    if args.model == "sbm":
        net = gen_sbm(args.nodes, args.blocks, args.seed)
    else:
        net = gen_er(args.nodes, args.p, args.seed)
    save_edges(net, args.out)
    print(json.dumps(network_summary(net)))


def _cmd_sim(args) -> None:
    domain = _domain(args.family)
    spec = parse_spec(args.spec, _parse_theta(args.theta), domain)
    net = load_edges(args.net)
    if domain == "count":
        cfg = SimConfig(T=args.T, burn_in=args.burn_in, seed=args.seed)
        panel = simulate_count(spec, net, _parse_copula(args.copula), cfg)
    else:
        cfg = SimConfig(T=args.T, burn_in=args.burn_in, seed=args.seed,
                        sigma=args.sigma)
        panel = simulate_gaussian(spec, net, cfg)
    save_panel_csv(panel, args.out)


def _cmd_fit(args) -> None:
    domain = _domain(args.family)
    net = load_edges(args.net)
    panel = load_panel_csv(args.panel, domain=domain)
    spec = parse_spec(args.spec, (1.0, 0.2, 0.2), domain)
    theta0 = _parse_theta(args.theta0) if args.theta0 else None
    _write_json(qmle_fit(panel, net, spec, theta0=theta0).to_dict(), args.out)


def _cmd_test_score(args) -> None:
    domain = _domain(args.family)
    if args.alt != "drift":
        raise SystemExit("the chi-square score test targets the drift alternative")
    net = load_edges(args.net)
    panel = load_panel_csv(args.panel, domain=domain)
    res = lm_test(panel, net, ModelSpec.drift((1.0, 0.2, 0.2), 0.0, domain))
    _write_json(res.to_dict(), args.out)


def _cmd_test_sup(args) -> None:
    domain = _domain(args.family)
    net = load_edges(args.net)
    panel = load_panel_csv(args.panel, domain=domain)
    res = run_profile_test(
        panel, net, args.alt, domain, grid=_parse_grid(args.grid),
        method=args.method, agg=args.agg, reps=args.boot_reps, seed=args.seed)
    _write_json(res.to_dict(), args.out)


def _run_meta(cfg: StudyConfig, args) -> dict:
    """Seed, versions, worker count and BLAS build and threads of an mc run."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # older numpy has no "dicts" mode
        blas = {}
    return {"base_seed": cfg.base_seed, "tool_version": __version__, "config": args.config,
            "workers": args.threads, "numpy_version": np.__version__,
            "scipy_version": scipy.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "blas_thread_env": {var: os.environ.get(var) for var in _BLAS_THREAD_VARS}}


def _cmd_mc(args) -> None:
    cfg = StudyConfig.from_json(args.config)
    rows, raw = run_mc_study(cfg, threads=args.threads)
    emit_report(rows, args.out, fmt=args.format, meta=_run_meta(cfg, args))
    if args.qq_out:
        write_raw_draws(raw, args.qq_out)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="netar", description=__doc__,
                                  formatter_class=argparse.RawDescriptionHelpFormatter)
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    p_net = sub.add_parser("net", help="network generation")
    net_sub = p_net.add_subparsers(dest="net_command", required=True)
    p_gen = net_sub.add_parser("gen", help="draw a random network")
    p_gen.add_argument("--model", choices=("sbm", "er"), required=True)
    p_gen.add_argument("--nodes", type=int, required=True)
    p_gen.add_argument("--blocks", type=int, default=2)
    p_gen.add_argument("--p", type=float, default=None)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("-o", "--out", required=True)
    p_gen.set_defaults(func=_cmd_net)

    p_sim = sub.add_parser("sim", help="simulate a panel")
    p_sim.add_argument("--family", choices=("pnar", "nar"), required=True)
    p_sim.add_argument("--spec", default="linear")
    p_sim.add_argument("--theta", required=True, help="b0,b1,b2")
    p_sim.add_argument("--net", required=True)
    p_sim.add_argument("--T", type=int, required=True)
    p_sim.add_argument("--burn-in", type=int, default=300, dest="burn_in")
    p_sim.add_argument("--copula", default="indep", help=_COPULA_FORMS)
    p_sim.add_argument("--sigma", type=float, default=1.0)
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("-o", "--out", required=True)
    p_sim.set_defaults(func=_cmd_sim)

    p_fit = sub.add_parser("fit", help="fit the linear null model")
    p_fit.add_argument("--family", choices=("pnar", "nar"), required=True)
    p_fit.add_argument("--spec", default="linear")
    p_fit.add_argument("--net", required=True)
    p_fit.add_argument("--panel", required=True)
    p_fit.add_argument("--theta0", default=None)
    p_fit.add_argument("-o", "--out", required=True)
    p_fit.set_defaults(func=_cmd_fit)

    p_test = sub.add_parser("test", help="linearity tests")
    test_sub = p_test.add_subparsers(dest="test_command", required=True)
    p_score = test_sub.add_parser("score", help="chi-square quasi-score test")
    p_score.add_argument("--family", choices=("pnar", "nar"), required=True)
    p_score.add_argument("--alt", default="drift")
    p_score.add_argument("--net", required=True)
    p_score.add_argument("--panel", required=True)
    p_score.add_argument("-o", "--out", required=True)
    p_score.set_defaults(func=_cmd_test_score)

    p_sup = test_sub.add_parser("sup", help="profiled test over a nuisance grid")
    p_sup.add_argument("--family", choices=("pnar", "nar"), required=True)
    p_sup.add_argument("--alt", choices=("stnar", "tnar"), required=True)
    p_sup.add_argument("--grid", default="auto", help="lo:hi:n or auto")
    p_sup.add_argument("--method", choices=("davies", "bootstrap", "both"),
                       default="both")
    p_sup.add_argument("--boot-reps", type=int, default=499, dest="boot_reps")
    p_sup.add_argument("--agg", choices=("sup", "ave"), default="sup")
    p_sup.add_argument("--seed", type=int, default=0)
    p_sup.add_argument("--net", required=True)
    p_sup.add_argument("--panel", required=True)
    p_sup.add_argument("-o", "--out", required=True)
    p_sup.set_defaults(func=_cmd_test_sup)

    p_mc = sub.add_parser("mc", help="Monte Carlo studies")
    mc_sub = p_mc.add_subparsers(dest="mc_command", required=True)
    p_run = mc_sub.add_parser("run", help="run a study configuration")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("-o", "--out", required=True)
    p_run.add_argument("--qq-out", default=None, dest="qq_out")
    p_run.add_argument("--threads", type=int, default=1)
    p_run.add_argument("--format", choices=("csv", "json"), default="csv")
    p_run.set_defaults(func=_cmd_mc)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.func(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
