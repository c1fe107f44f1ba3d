"""Layer spans for the traced benchmark run.

``Tracer.install`` rebinds, in each calling module, the name under which
it looks up a layer function (``netar.studio.simulate_count``,
``netar.nuisance.lm_profile`` ...), so the program itself is unchanged.
Every call then records a span ``(name, start, end, parent, replication,
counts)`` in memory; ``parent`` indexes the enclosing span of the same
process and ``replication`` is ``(base_seed, rep)`` of the replication
being run.

Pool workers record spans too.  Under fork they inherit the rebound
names; under spawn and forkserver ``run.py`` installs a tracer when it is
imported as ``__mp_main__`` with ``DIR_ENV`` set.  ``enter_worker`` clears
the inherited spans and registers a finalizer that writes the worker's
spans to ``DIR_ENV`` when it exits.  ``multiprocessing`` calls it in each
fork or forkserver worker; a spawn worker, whose ``_after_fork`` does
nothing, calls it when it imports ``run.py``.
"""

from __future__ import annotations

import functools
import glob
import importlib
import multiprocessing.util
import os
import pickle
import time
from collections import defaultdict

DIR_ENV = "PERFBENCH_TRACE_DIR"
REPLICATION = "studio.replication"


def _rows(args, kwargs, out):     # draw_copula_uniform(cop, n, gen, rows=None)
    rows = kwargs.get("rows", args[3] if len(args) > 3 else None)
    return {"rows": 1 if rows is None else int(rows)}


def _iterations(args, kwargs, out):
    return {"iterations": out.iterations}


def _grid_points(args, kwargs, out):
    return {"points_kept": out.grid.size, "points_dropped": len(out.dropped)}


# (calling module, name it looks up, span name, counter of the call's work)
TARGETS = (
    ("netar.studio", "_run_replication", REPLICATION, None),
    ("netar.studio", "gen_sbm", "netgraph.gen_sbm", None),
    ("netar.studio", "simulate_count", "dgp.simulate_count", None),
    ("netar.studio", "simulate_gaussian", "dgp.simulate_gaussian", None),
    ("netar.studio", "lm_test", "lintest.lm_test", None),
    ("netar.studio", "default_grid", "nuisance.default_grid", None),
    ("netar.dgp", "copula_poisson_draw", "dgp.copula_poisson_draw", None),
    ("netar.dgp", "draw_copula_uniform", "dgp.draw_copula_uniform", _rows),
    ("netar.dgp", "stationary_init_linear_gaussian",
     "dgp.stationary_init_linear_gaussian", None),
    ("netar.dgp", "cond_mean", "model.cond_mean", None),
    ("netar.lintest", "qmle_fit", "qmle.qmle_fit", _iterations),
    ("netar.lintest", "ols_fit_linear", "qmle.ols_fit_linear", None),
    ("netar.nuisance", "qmle_fit", "qmle.qmle_fit", _iterations),
    ("netar.nuisance", "ols_fit_linear", "qmle.ols_fit_linear", None),
    ("netar.nuisance", "default_grid", "nuisance.default_grid", None),
    ("netar.nuisance", "lm_profile", "nuisance.lm_profile", _grid_points),
    ("netar.nuisance", "score_bootstrap", "nuisance.score_bootstrap", None),
    ("netar.rng", "stream", "rng.stream", None),
    ("netar.netgraph", "stream", "rng.stream", None),
)


class Tracer:
    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.spans: list = []
        self.stack: list = []
        self.rep = None
        self._saved: list = []

    def _wrap(self, name, fn, counter):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            out = None
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = clock()
                stack.pop()
                counts = counter(args, kwargs, out) if counter and out is not None else None
                spans[idx] = (name, t0, t1, parent, self.rep, counts)
        return traced

    def _wrap_replication(self, fn):
        traced = self._wrap(REPLICATION, fn, None)

        @functools.wraps(fn)
        def replication(sc, net, base_seed, s_idx, rep):
            self.rep = (base_seed, rep)
            try:
                return traced(sc, net, base_seed, s_idx, rep)
            finally:
                self.rep = None
        return replication

    def install(self) -> None:
        for modname, attr, name, counter in TARGETS:
            mod = importlib.import_module(modname)
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap_replication(orig) if name == REPLICATION
                    else self._wrap(name, orig, counter))
        multiprocessing.util.register_after_fork(self, Tracer.enter_worker)
        os.environ[DIR_ENV] = self.out_dir

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()
        os.environ.pop(DIR_ENV, None)

    def enter_worker(self) -> None:
        if self._saved:
            self.spans.clear()
            self.stack.clear()
            self.rep = None
            multiprocessing.util.Finalize(None, self._dump, exitpriority=10)

    def _dump(self) -> None:
        path = os.path.join(self.out_dir, f"worker-{os.getpid()}.pkl")
        with open(path, "wb") as fh:
            pickle.dump(self.spans, fh)

    def collect_workers(self) -> dict:
        """Spans written by exited workers, by pid; removes their files."""
        out = {}
        for path in sorted(glob.glob(os.path.join(self.out_dir, "worker-*.pkl"))):
            with open(path, "rb") as fh:
                out[int(path.rsplit("-", 1)[1][:-4])] = pickle.load(fh)
            os.remove(path)
        return out


def write_spans(path: str, by_pid: dict) -> None:
    with open(path, "w") as fh:
        fh.write("pid\tname\tstart\tend\tparent\treplication\tcounts\n")
        for pid, spans in by_pid.items():
            for name, t0, t1, parent, rep, counts in spans:
                fh.write(f"{pid}\t{name}\t{t0!r}\t{t1!r}\t{parent}\t{rep}\t{counts}\n")


def layer_metrics(by_pid: dict, reps: int, wall: float, lanes: int) -> dict:
    """Per-replication self time, calls and counts of each span name.

    A span's self time is its duration minus that of its direct children.
    ``studio.self_ms_per_rep`` is the cell's capacity, ``lanes`` x wall time,
    minus the self time of every layer span, so the layer self times and it
    add up to the capacity per replication.  ``studio.pool.busy_share`` is
    the time spent inside replications over that capacity.
    """
    self_s = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(float)
    busy = 0.0
    for spans in by_pid.values():
        child = [0.0] * len(spans)
        for _, t0, t1, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (name, t0, t1, _, _, extra) in enumerate(spans):
            if name == REPLICATION:
                busy += t1 - t0
                continue
            self_s[name] += t1 - t0 - child[i]
            calls[name] += 1
            for key, value in (extra or {}).items():
                counts[f"{name}.{key}_per_rep"] += value
    metrics = {f"{n}.ms_per_rep": 1000.0 * s / reps for n, s in self_s.items()}
    metrics.update({f"{n}.calls_per_rep": c / reps for n, c in calls.items()})
    metrics.update({k: v / reps for k, v in counts.items()})
    capacity = lanes * wall
    metrics["studio.self_ms_per_rep"] = 1000.0 * (capacity - sum(self_s.values())) / reps
    metrics["studio.pool.busy_share"] = busy / capacity
    return metrics
