"""Study-cell benchmark for netar.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory.  After set-up (imports, the network and one warm-up
replication) the run repeats whole rounds of the workload's study cell
for S seconds, checks the outputs (checks.py) and prints the metrics
named in BENCHMARK.json: the end-to-end ones with ``--trace 0``, the
per-layer ones from a traced cell with ``--trace 1``.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  See README.md for the workloads and metrics.
"""

import os
import sys

# BLAS and OpenMP are pinned before numpy loads; pool workers inherit this.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = 3

if SRC not in sys.path:
    sys.path.insert(0, SRC)

if __name__ == "__mp_main__" and os.environ.get("PERFBENCH_TRACE_DIR"):
    # a spawn or forkserver pool worker of a traced run
    import spans
    _tracer = spans.Tracer(os.environ[spans.DIR_ENV])
    _tracer.install()
    _tracer.enter_worker()


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _setup_seconds(name: str, seed: int) -> float:
    """Wall time from starting a fresh process to its first timed replication."""
    import subprocess
    import time

    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(seed), "--setup-only"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def _peak_rss_mb() -> float:
    import resource

    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def main(argv=None) -> int:
    import argparse

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured time; BENCHMARK.json's run_seconds if left out")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "netar", "__init__.py")):
        return _fail(f"no netar sources under {SRC}; run from a netar checkout")
    if not os.path.isfile(spec_path):
        return _fail(f"{spec_path} is missing")

    import json
    import statistics

    import cells
    import netar

    if not os.path.abspath(netar.__file__).startswith(SRC + os.sep):
        return _fail(f"imported netar from {netar.__file__}, not from {SRC}")
    workload = cells.WORKLOADS.get(args.workload)
    if workload is None:
        return _fail(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(cells.WORKLOADS)}")

    cells.warm_up(workload, args.seed)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    import checks
    import spans

    with open(spec_path) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])

    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer = spans.Tracer(OUT_DIR)
        tracer.collect_workers()    # drop files an interrupted run left behind
        tracer.install()
        try:
            rounds = cells.run_cell(workload, args.seed, args.seconds)
        finally:
            tracer.uninstall()
        by_pid = {os.getpid(): tracer.spans, **tracer.collect_workers()}
        done = sum(r.completed for r in rounds)
        wall = sum(r.wall for r in rounds)
        values = spans.layer_metrics(by_pid, max(done, 1), wall, workload.threads)
        spans.write_spans(os.path.join(OUT_DIR, f"spans-{workload.name}.tsv"), by_pid)
        layers = sum(v for k, v in values.items() if k.endswith(".ms_per_rep"))
        print(f"traced cell: {done} replications in {wall:.2f} s, reps_per_s "
              f"{cells.cell_rates(rounds)[0]:.4f}; layer self times plus "
              f"studio.self_ms_per_rep = {layers + values['studio.self_ms_per_rep']:.3f} ms"
              f" = {workload.threads} x wall / replication = "
              f"{1000.0 * workload.threads * wall / max(done, 1):.3f} ms")
    else:
        rounds = cells.run_cell(workload, args.seed, args.seconds)
        rate, cpu_ms = cells.cell_rates(rounds)
        values = {"reps_per_s": rate, "cpu_ms_per_rep": cpu_ms,
                  "peak_rss_mb": _peak_rss_mb()}

    report = checks.run(workload, args.seed, rounds)
    if not args.trace:
        values["setup_s"] = statistics.median(
            _setup_seconds(workload.name, args.seed) for _ in range(SETUP_PROBES))

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    print(f"workload {workload.name}, seed {args.seed}: {len(rounds)} rounds, "
          f"{attempted} replications attempted, {failed} failed")
    for name, ok, detail in report.items:
        print(f"  check {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    metrics = {}
    for m in wanted:
        value = float(values.get(m["name"], 0.0))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<52} {value:14.6g} {m['unit']}")
    print(json.dumps({"correct": report.ok, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
