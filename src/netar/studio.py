"""Monte Carlo harness, panel/network file IO and result reporting.

A study is a list of scenarios; each scenario fixes a network (drawn once
from its seed unless redraw_network is set), simulates S panels from its
data-generating model, fits the linear null and applies the configured
linearity test, then tabulates rejection rates per significance level
with their binomial Monte Carlo standard errors.  Replication r of
scenario s draws every random quantity from a stream keyed by
(base_seed, s, r), so results are independent of execution order and of
the worker-pool size.
"""

from __future__ import annotations

import csv
import json
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import __version__ as _version
from . import rng
from .dgp import (INIT_MODES, CopulaSpec, Panel, SimConfig, _resolve_init, simulate_count,
                  simulate_gaussian)
from .lintest import lm_test
from .model import ModelSpec
from .netgraph import Network, gen_er, gen_sbm
from .nuisance import GammaGrid, aggregate, default_grid, run_profile_test

__all__ = [
    "Scenario",
    "StudyConfig",
    "StudyRow",
    "run_mc_study",
    "load_panel_csv",
    "save_panel_csv",
    "emit_report",
    "write_raw_draws",
]


# accepted test settings (the default first); keys of the dict-valued fields
_TEST_VALUES = {"kind": ("chi2", "davies", "bootstrap"), "alt": ("stnar", "tnar"),
                "agg": ("sup", "ave")}
_NESTED_KEYS = {"network": {"model", "k", "p"}, "copula": {"structure", "rho"},
                "test": {"grid", "J", *_TEST_VALUES}}


@dataclass
class Scenario:
    """One Monte Carlo cell: network, DGP, test method and replication count."""

    name: str
    network: dict                  # {"model": "sbm"|"er", "k": int, "p": float|None}
    n: int
    t: int
    domain: str                    # "count" | "cont"
    dgp_family: str = "linear"     # data-generating family
    theta: tuple = (1.5, 0.4, 0.5)
    theta2: tuple = ()             # nonlinear DGP parameters (power studies)
    copula: dict = field(default_factory=lambda: {"structure": "identity", "rho": 0.0})
    sigma: float = 1.0
    burn_in: int = 300
    init: str = "default"          # continuous panels: see simulate_gaussian
    test: dict = field(default_factory=lambda: {"kind": "chi2"})
    reps: int = 500
    levels: tuple = (0.10, 0.05, 0.01)
    redraw_network: bool = False

    @staticmethod
    def from_dict(d: dict) -> "Scenario":
        known = {f for f in Scenario.__dataclass_fields__}
        extra = set(d) - known
        if extra:
            raise ValueError(f"unknown scenario fields: {sorted(extra)}")
        for key, allowed in _NESTED_KEYS.items():
            extra = set(d.get(key, {})) - allowed
            if extra:
                raise ValueError(f"unknown {key} fields: {sorted(extra)}")
        test = d.get("test", {})
        for key, allowed in _TEST_VALUES.items():
            if test.get(key, allowed[0]) not in allowed:
                raise ValueError(f"test {key} must be one of {allowed}, got {test[key]!r}")
        if test.get("kind") == "davies" and test.get("alt") == "tnar":
            raise ValueError("the Davies bound needs a smooth nuisance rate: "
                             "test the tnar alternative with kind 'bootstrap'")
        if not isinstance(test.get("J", 499), int) or test.get("J", 499) < 1:
            raise ValueError(f"test J must be a positive integer, got {test['J']!r}")
        _fixed_grid(test.get("grid", "auto"))
        if d.get("domain") in INIT_MODES:
            _resolve_init(d.get("init", "default"), d.get("n"), d["domain"])
        CopulaSpec(**d.get("copula", {}))
        d = dict(d)
        for key in ("theta", "theta2", "levels"):
            if key in d:
                d[key] = tuple(d[key])
        return Scenario(**d)


@dataclass
class StudyConfig:
    scenarios: list
    base_seed: int = 0

    @staticmethod
    def from_dict(d: dict) -> "StudyConfig":
        return StudyConfig(
            scenarios=[Scenario.from_dict(s) for s in d["scenarios"]],
            base_seed=int(d.get("base_seed", 0)))

    @staticmethod
    def from_json(path) -> "StudyConfig":
        with open(path) as fh:
            return StudyConfig.from_dict(json.load(fh))


@dataclass
class StudyRow:
    scenario: str
    level: float
    rejection_rate: float
    mc_se: float
    reps_used: int
    failures: int
    elapsed: float


def _dgp_spec(sc: Scenario) -> ModelSpec:
    return ModelSpec(sc.dgp_family, sc.domain, sc.theta, sc.theta2)


def _scenario_network(sc: Scenario, base_seed: int, s_idx: int, rep: int) -> Network:
    tag = rep if sc.redraw_network else 0
    seed = rng.mix_seed(base_seed, s_idx, 0xAE, tag)
    model = sc.network.get("model", "sbm")
    if model == "sbm":
        return gen_sbm(sc.n, int(sc.network.get("k", 2)), seed)
    if model == "er":
        return gen_er(sc.n, sc.network.get("p"), seed)
    raise ValueError(f"unknown network model {model!r}")


def _simulate(sc: Scenario, spec: ModelSpec, net: Network, seed: int) -> Panel:
    if sc.domain == "count":
        cop = CopulaSpec(sc.copula.get("structure", "identity"),
                         float(sc.copula.get("rho", 0.0)))
        cfg = SimConfig(T=sc.t, burn_in=sc.burn_in, seed=seed, init=sc.init)
        return simulate_count(spec, net, cop, cfg)
    cfg = SimConfig(T=sc.t, burn_in=sc.burn_in, seed=seed, sigma=sc.sigma,
                    init=sc.init)
    return simulate_gaussian(spec, net, cfg)


def _parse_grid(text: str) -> Optional[GammaGrid]:
    """'auto' (None: the family's default grid) or 'lo:hi:n', n points from lo to hi."""
    if text == "auto":
        return None
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be 'auto' or 'lo:hi:n', got {text!r}")
    lo, hi, num = parts
    return GammaGrid(np.linspace(float(lo), float(hi), int(num)))


def _fixed_grid(spec) -> Optional[GammaGrid]:
    """A test's grid entry: None for 'auto', else the grid it fixes."""
    if isinstance(spec, str):
        return _parse_grid(spec)
    if isinstance(spec, (list, tuple)):
        return GammaGrid(np.asarray(spec, dtype=float))
    raise ValueError(f"grid must be 'auto', 'lo:hi:n' or a list of points, got {spec!r}")


def _run_replication(sc: Scenario, net: Network, base_seed: int, s_idx: int,
                     rep: int):
    """One simulate-fit-test pass; returns (p_value, statistic)."""
    spec = _dgp_spec(sc)
    panel = _simulate(sc, spec, net, rng.mix_seed(base_seed, s_idx, rep))
    kind = sc.test.get("kind", "chi2")
    if kind == "chi2":
        alt = ModelSpec.drift(sc.theta, 0.0, sc.domain)
        res = lm_test(panel, net, alt)
        return res.p_value, res.statistic
    family = sc.test.get("alt", "stnar")
    grid = _fixed_grid(sc.test.get("grid", "auto"))
    if grid is None:
        grid = default_grid(family, panel=panel, net=net)
    if kind == "davies":
        res = run_profile_test(panel, net, family, sc.domain, grid=grid,
                               method="davies")
        return res.davies_p, res.g_sup
    if kind == "bootstrap":
        agg = sc.test.get("agg", "sup")
        res = run_profile_test(
            panel, net, family, sc.domain, grid=grid, method="bootstrap",
            agg=agg, reps=int(sc.test.get("J", 499)),
            seed=rng.mix_seed(base_seed, s_idx, rep, 0xB0))
        return res.boot_p, aggregate(res.profile, agg)
    raise ValueError(f"unknown test kind {kind!r}")


def _worker(args):
    sc, net, base_seed, s_idx, rep = args
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return rep, _run_replication(sc, net, base_seed, s_idx, rep), None
    except Exception as exc:  # noqa: BLE001 - failures are tabulated, not fatal
        return rep, None, f"{type(exc).__name__}: {exc}"


def run_mc_study(cfg: StudyConfig, threads: int = 1):
    """Run every scenario; returns (rows, raw) where raw maps scenario name
    to the per-replication statistic draws (for QQ-style diagnostics).

    Failed replications are excluded and counted; a scenario aborts if
    more than 1 percent of its replications fail.
    """
    for sc in cfg.scenarios:
        try:
            _dgp_spec(sc)
        except ValueError as exc:
            raise ValueError(f"scenario {sc.name!r}: {exc}") from None
    rows: list[StudyRow] = []
    raw: dict[str, np.ndarray] = {}
    for s_idx, sc in enumerate(cfg.scenarios):
        start = time.perf_counter()
        net = None if sc.redraw_network else _scenario_network(sc, cfg.base_seed, s_idx, 0)
        tasks = [(sc, net if net is not None
                  else _scenario_network(sc, cfg.base_seed, s_idx, r),
                  cfg.base_seed, s_idx, r) for r in range(sc.reps)]
        if threads > 1:
            with ProcessPoolExecutor(max_workers=threads) as pool:
                outs = list(pool.map(_worker, tasks, chunksize=4))
        else:
            outs = [_worker(task) for task in tasks]
        results = {rep: out for rep, out, err in outs if err is None}
        errors = [err for _, _, err in outs if err is not None]

        if len(errors) > max(1, sc.reps) * 0.01:
            raise RuntimeError(
                f"scenario {sc.name!r}: {len(errors)}/{sc.reps} replications "
                f"failed; first error: {errors[0]}")
        used = sorted(results)
        pvals = np.array([results[r][0] for r in used])
        stats = np.array([results[r][1] for r in used])
        raw[sc.name] = stats
        elapsed = time.perf_counter() - start
        for level in sc.levels:
            rate = float(np.mean(pvals <= level)) if used else float("nan")
            se = float(np.sqrt(rate * (1.0 - rate) / len(used))) if used else float("nan")
            rows.append(StudyRow(sc.name, float(level), rate, se,
                                 len(used), len(errors), elapsed))
    return rows, raw


# file formats ------------------------------------------------------------------

def load_panel_csv(path, domain: str = "cont") -> Panel:
    """Read a panel CSV: header of node labels, one row per time step."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(cell) for cell in row] for row in reader if row]
    values = np.asarray(rows, dtype=float).T
    if values.size == 0:
        raise ValueError(f"{path}: no observations")
    if len(header) != values.shape[0]:
        raise ValueError(f"{path}: header width does not match data width")
    panel = Panel(values, node_labels=list(header))
    if domain == "count" and not panel.is_count():
        raise ValueError(f"{path}: count panel has negative or non-integer cells")
    return panel


def save_panel_csv(panel: Panel, path, counts: Optional[bool] = None) -> None:
    counts = panel.is_count() if counts is None else counts
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(panel.labels())
        for row in panel.values.T:
            writer.writerow([int(v) if counts else repr(float(v)) for v in row])


def emit_report(rows, path, fmt: str = "csv", meta: Optional[dict] = None) -> None:
    """Write study rows with stable field order plus reproducibility metadata."""
    header = ["scenario", "level", "rejection_rate", "mc_se", "reps_used",
              "failures", "elapsed"]
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            if meta:
                writer.writerow([f"# {json.dumps(meta, sort_keys=True)}"])
            writer.writerow(header)
            for r in rows:
                writer.writerow([r.scenario, r.level, repr(r.rejection_rate),
                                 repr(r.mc_se), r.reps_used, r.failures,
                                 f"{r.elapsed:.3f}"])
    elif fmt == "json":
        payload = {
            "meta": {**(meta or {}), "tool_version": _version},
            "rows": [{k: getattr(r, k) for k in header} for r in rows],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=False)
            fh.write("\n")
    else:
        raise ValueError("format must be 'csv' or 'json'")


def write_raw_draws(raw: dict, path) -> None:
    """One (scenario, replication, statistic) row per draw."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scenario", "rep", "statistic"])
        for name in raw:
            for r, value in enumerate(raw[name]):
                writer.writerow([name, r, repr(float(value))])
