"""Workloads and the timed study cell.

Each workload is one Monte Carlo cell run through the public
``netar.studio.run_mc_study``.  A run repeats whole rounds, one study call
of ``round_reps`` replications each, until its time is up; round k of seed
s uses base seed ``round_seed(s, k)``, so a seed fixes every input.  The
first replication of a round is replication 0 of its study call, which
lets the output checks rebuild it.
"""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass

import numpy as np

from netar import studio

COUNT_NULL = (1.0, 0.3, 0.2)
CONT_NULL = (1.5, 0.4, 0.5)
SBM5 = {"model": "sbm", "k": 5}


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: dict       # netar.studio.Scenario fields except name and reps
    round_reps: int      # replications per study call
    threads: int = 1     # worker processes of run_mc_study


_AR1_CHI2 = dict(network=SBM5, n=200, t=300, burn_in=300, domain="count",
                 theta=COUNT_NULL, copula={"structure": "ar1", "rho": 0.5},
                 test={"kind": "chi2"})

WORKLOADS = {w.name: w for w in (
    Workload("pnar-ar1-chi2", _AR1_CHI2, round_reps=8),
    Workload("pnar-tnar-boot",
             dict(network=SBM5, n=500, t=400, burn_in=300, domain="count",
                  theta=COUNT_NULL, copula={"structure": "identity", "rho": 0.0},
                  test={"kind": "bootstrap", "alt": "tnar", "J": 499,
                        "agg": "sup", "grid": "auto"}),
             round_reps=4),
    Workload("nar-stnar-redraw",
             dict(network=SBM5, n=200, t=200, burn_in=0, domain="cont",
                  theta=CONT_NULL, init="stationary", redraw_network=True,
                  test={"kind": "davies", "alt": "stnar"}),
             round_reps=24),
    # chunks of 4 tasks, so 16 replications give each worker two chunks
    Workload("pnar-ar1-pool2", _AR1_CHI2, round_reps=16, threads=2),
)}


def round_seed(seed: int, k: int) -> int:
    """Base seed of round k; k = -1 is the warm-up study."""
    return seed * 2 ** 20 + k + 1


def study(workload: Workload, base_seed: int, reps: int) -> studio.StudyConfig:
    sc = studio.Scenario.from_dict(
        {"name": workload.name, "reps": reps, **workload.scenario})
    return studio.StudyConfig([sc], base_seed=base_seed)


def warm_up(workload: Workload, seed: int) -> None:
    """One serial replication: builds a network and fills the copula
    Cholesky cache, which forked pool workers inherit."""
    studio.run_mc_study(study(workload, round_seed(seed, -1), 1))


@dataclass
class Round:
    base_seed: int
    attempted: int
    failed: int
    wall: float          # seconds
    cpu: float           # user + system seconds of the process and its reaped workers
    rows: list           # netar.studio.StudyRow per level; empty if the round failed
    stats: np.ndarray    # statistic of each completed replication, by replication

    @property
    def completed(self) -> int:
        return self.attempted - self.failed


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_round(workload: Workload, seed: int, k: int) -> Round:
    base = round_seed(seed, k)
    cfg = study(workload, base, workload.round_reps)
    cpu0, t0 = _cpu_seconds(), time.perf_counter()
    try:
        rows, raw = studio.run_mc_study(cfg, threads=workload.threads)
    except RuntimeError as exc:   # more than 1% of the round's replications failed
        print(f"round {k} failed: {exc}", flush=True)
        rows, raw = [], {}
    wall, cpu = time.perf_counter() - t0, _cpu_seconds() - cpu0
    failed = rows[0].failures if rows else workload.round_reps
    return Round(base, workload.round_reps, failed, wall, cpu, rows,
                 raw.get(workload.name, np.empty(0)))


def run_cell(workload: Workload, seed: int, seconds: float) -> list:
    """Whole rounds until ``seconds`` of wall time have passed."""
    rounds = []
    end = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < end:
        rounds.append(run_round(workload, seed, len(rounds)))
    return rounds


def cell_rates(rounds: list) -> tuple:
    """Replications per second and CPU ms per replication over the whole cell.

    Totals, not a median over rounds: the machine's speed drifts over tens
    of seconds, and the total averages that drift best."""
    done = sum(r.completed for r in rounds)
    if not done:
        return float("nan"), float("nan")
    return (done / sum(r.wall for r in rounds),
            1000.0 * sum(r.cpu for r in rounds) / done)
