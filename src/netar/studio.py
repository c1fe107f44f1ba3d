"""Monte Carlo harness, panel/network file IO and result reporting.

A study is a list of scenarios, each checked and resolved once when it is
built.  A scenario fixes a network drawn once from its seed (with
redraw_network, each replication draws its own, so a study holds one per
worker), simulates S panels from its data-generating model, fits the
linear null and applies the configured linearity test, then tabulates
rejection rates per significance level with their binomial Monte Carlo
standard errors.  Replication r of scenario s draws every random quantity
from a stream keyed by (base_seed, s, r), so results are independent of
execution order and of the worker-pool size.
"""

from __future__ import annotations

import csv
import json
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from numbers import Integral
from typing import Optional

import numpy as np

from . import __version__ as _version
from . import rng
from .dgp import (CopulaSpec, Panel, SimConfig, _gaussian_start, _resolve_init,
                  simulate_count, simulate_gaussian)
from .lintest import lm_test
from .model import ModelSpec
from .netgraph import Network, gen_er, gen_sbm
from .nuisance import GammaGrid, default_grid, run_profile_test

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


# test settings with their defaults; accepted values; keys of the dict-valued fields
_TEST_DEFAULTS = {"kind": "chi2", "alt": "stnar", "agg": "sup", "J": 499, "grid": "auto"}
_TEST_VALUES = {"kind": ("chi2", "davies", "bootstrap"), "alt": ("stnar", "tnar"),
                "agg": ("sup", "ave")}
_NESTED_KEYS = {"network": {"model", "k", "p"}, "copula": {"structure", "rho"},
                "test": set(_TEST_DEFAULTS)}
_CONT_COPULA = "a dependent copula applies to count panels only: continuous noise is independent"


@dataclass(frozen=True)
class Scenario:
    """One Monte Carlo cell: network, DGP, test method and replication count.

    Building one checks every setting (a ValueError names the scenario) and
    resolves what replications read: ``_network`` (every network setting),
    ``_spec``, ``_copula``, ``_sim`` (no seed) and ``_test`` (every test
    setting; ``grid`` is None for "auto").
    """

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

    def __post_init__(self):
        try:
            self._resolve()
        except (TypeError, ValueError) as exc:
            raise ValueError(f"scenario {self.name!r}: {exc}") from None

    def _resolve(self) -> None:
        for key, allowed in _NESTED_KEYS.items():
            extra = set(getattr(self, key)) - allowed
            if extra:
                raise ValueError(f"unknown {key} fields: {sorted(extra)}")
        network = {"model": "sbm", "k": 2, "p": None, **self.network}
        if network["model"] not in ("sbm", "er"):
            raise ValueError(f"unknown network model {network['model']!r}")
        test = {**_TEST_DEFAULTS, **self.test}
        for key, allowed in _TEST_VALUES.items():
            if test[key] not in allowed:
                raise ValueError(f"test {key} must be one of {allowed}, got {test[key]!r}")
        if test["kind"] == "davies" and test["alt"] == "tnar":
            raise ValueError("the Davies bound needs a smooth nuisance rate: "
                             "test the tnar alternative with kind 'bootstrap'")
        if test["kind"] == "davies" and test["agg"] != "sup":
            raise ValueError("the Davies bound is for the supremum: "
                             "test the 'ave' functional with kind 'bootstrap'")
        for key, value in (("n", self.n), ("reps", self.reps), ("test J", test["J"])):
            if not isinstance(value, Integral) or value < 1:
                raise ValueError(f"{key} must be a positive integer, got {value!r}")
        k, p = network["k"], network["p"]
        if network["model"] == "sbm" and not (isinstance(k, Integral) and 1 <= k <= self.n):
            raise ValueError(f"network k must be an integer in [1, n={self.n}], got {k!r}")
        if network["model"] == "er" and p is not None and not 0.0 <= p <= 1.0:
            raise ValueError(f"network p must be None or lie in [0, 1], got {p!r}")
        if not self.levels or not all(0.0 < level < 1.0 for level in self.levels):
            raise ValueError(f"levels must lie in (0, 1), got {self.levels!r}")
        test["grid"] = _parse_grid(test["grid"])
        spec = ModelSpec(self.dgp_family, self.domain, self.theta, self.theta2)
        copula = CopulaSpec(self.copula.get("structure", "identity"),
                            float(self.copula.get("rho", 0.0)))
        copula.check_dimension(self.n)
        if self.domain == "cont" and not copula.is_independent:
            raise ValueError(_CONT_COPULA)
        init = _resolve_init(self.init, self.n, self.domain)
        if self.domain == "cont":
            _gaussian_start(spec, init)  # rejects a start the model cannot take
        sim = SimConfig(T=self.t, burn_in=self.burn_in, sigma=self.sigma, init=init)
        for key, value in (("_network", network), ("_spec", spec), ("_copula", copula),
                           ("_sim", sim), ("_test", test)):
            object.__setattr__(self, key, value)

    @staticmethod
    def from_dict(d: dict) -> "Scenario":
        extra = set(d) - set(Scenario.__dataclass_fields__)
        if extra:
            raise ValueError(f"scenario {d.get('name')!r}: unknown scenario fields: "
                             f"{sorted(extra)}")
        return Scenario(**{key: tuple(value) if key in ("theta", "theta2", "levels") else value
                           for key, value in d.items()})


@dataclass
class StudyConfig:
    scenarios: list
    base_seed: int = 0

    def __post_init__(self):
        seen = set()
        for sc in self.scenarios:  # raw draws are keyed by scenario name
            if sc.name in seen:
                raise ValueError(f"duplicate scenario name {sc.name!r}")
            seen.add(sc.name)

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


def _scenario_network(sc: Scenario, base_seed: int, s_idx: int, rep: int) -> Network:
    seed = rng.mix_seed(base_seed, s_idx, 0xAE, rep if sc.redraw_network else 0)
    if sc._network["model"] == "sbm":
        return gen_sbm(sc.n, sc._network["k"], seed)
    return gen_er(sc.n, sc._network["p"], seed)


def _simulate(sc: Scenario, net: Network, seed: int) -> Panel:
    cfg = replace(sc._sim, seed=seed)
    if sc.domain == "count":
        return simulate_count(sc._spec, net, sc._copula, cfg)
    return simulate_gaussian(sc._spec, net, cfg)


def _parse_grid(spec) -> Optional[GammaGrid]:
    """'auto' (None: the family's default), 'lo:hi:n' (n points from lo to hi) or the points."""
    if isinstance(spec, (list, tuple)):
        return GammaGrid(np.asarray(spec, dtype=float))
    if spec == "auto":
        return None
    parts = spec.split(":") if isinstance(spec, str) else ()
    if len(parts) != 3:
        raise ValueError(f"grid must be 'auto', 'lo:hi:n' or a list of points, got {spec!r}")
    lo, hi, num = parts
    return GammaGrid(np.linspace(float(lo), float(hi), int(num)))


def _run_replication(sc: Scenario, net: Optional[Network], base_seed: int, s_idx: int,
                     rep: int):
    """One simulate-fit-test pass on net, or on its own network if None;
    returns (p_value, statistic)."""
    if net is None:
        net = _scenario_network(sc, base_seed, s_idx, rep)
    panel = _simulate(sc, net, rng.mix_seed(base_seed, s_idx, rep))
    test = sc._test
    if test["kind"] == "chi2":
        res = lm_test(panel, net, ModelSpec.drift(sc.theta, 0.0, sc.domain))
        return res.p_value, res.statistic
    grid = test["grid"]
    if grid is None:
        grid = default_grid(test["alt"], panel=panel, net=net)
    res = run_profile_test(
        panel, net, test["alt"], sc.domain, grid=grid, method=test["kind"],
        agg=test["agg"], reps=test["J"], seed=rng.mix_seed(base_seed, s_idx, rep, 0xB0))
    if test["kind"] == "davies":
        return res.davies_p, res.g_sup
    return res.boot_p, res.g_sup if test["agg"] == "sup" else res.g_ave


def _worker(args):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return _run_replication(*args), None
    except Exception as exc:  # noqa: BLE001 - failures are tabulated, not fatal
        return None, (type(exc).__name__, str(exc))


def run_mc_study(cfg: StudyConfig, threads: int = 1):
    """Run every scenario; returns (rows, raw) where raw maps scenario name
    to each replication's statistic, NaN where it failed (QQ diagnostics).

    Failed replications are left out of the rates and counted; a scenario
    aborts if more than 1 percent fail, counting them by exception type with
    the first message of each.  threads is the worker count, a positive integer (1
    runs in this process).
    """
    if not isinstance(threads, Integral) or threads < 1:
        raise ValueError(f"threads must be a positive integer, got {threads!r}")
    rows: list[StudyRow] = []
    raw: dict[str, np.ndarray] = {}
    for s_idx, sc in enumerate(cfg.scenarios):
        start = time.perf_counter()
        net = None if sc.redraw_network else _scenario_network(sc, cfg.base_seed, s_idx, 0)
        tasks = [(sc, net, cfg.base_seed, s_idx, r) for r in range(sc.reps)]
        if threads > 1:
            with ProcessPoolExecutor(max_workers=threads) as pool:
                outs = list(pool.map(_worker, tasks, chunksize=4))  # in replication order
        else:
            outs = [_worker(task) for task in tasks]
        errors = [err for _, err in outs if err is not None]

        if len(errors) > sc.reps * 0.01:
            by_type: dict = {}          # type -> [count, first message], in replication order
            for kind, msg in errors:
                by_type.setdefault(kind, [0, msg])[0] += 1
            raise RuntimeError(
                f"scenario {sc.name!r}: {len(errors)}/{sc.reps} replications failed: "
                + "; ".join(f"{kind} x{n} (first: {msg})" for kind, (n, msg) in by_type.items()))
        pvals = np.array([out[0] for out, err in outs if err is None])
        raw[sc.name] = np.array([np.nan if err else out[1] for out, err in outs])
        elapsed = time.perf_counter() - start
        for level in sc.levels:
            rate = float(np.mean(pvals <= level))
            se = float(np.sqrt(rate * (1.0 - rate) / pvals.size))
            rows.append(StudyRow(sc.name, float(level), rate, se,
                                 pvals.size, len(errors), elapsed))
    return rows, raw


# file formats ------------------------------------------------------------------

def load_panel_csv(path, domain: str = "cont") -> Panel:
    """Read a panel CSV: header of node labels, one row per time step."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        rows = []
        for row in filter(None, reader):
            try:
                rows.append([float(cell) for cell in row])
            except ValueError as exc:
                raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
            if len(row) != len(header):
                raise ValueError(f"{path}, line {reader.line_num}: {len(row)} cells, "
                                 f"header has {len(header)}")
    values = np.asarray(rows, dtype=float).T
    if values.size == 0:
        raise ValueError(f"{path}: no observations")
    panel = Panel(values, node_labels=list(header))
    if domain == "count" and not panel.is_count():
        raise ValueError(f"{path}: count panel has negative or non-integer cells")
    return panel


def save_panel_csv(panel: Panel, path) -> None:
    """Write a panel CSV; a count panel (see Panel.is_count) as integers."""
    counts = panel.is_count()
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
    """One (scenario, replication, statistic) row per completed replication."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scenario", "rep", "statistic"])
        for name in raw:
            for r in np.flatnonzero(~np.isnan(raw[name])):
                writer.writerow([name, r, repr(float(raw[name][r]))])
