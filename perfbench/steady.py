"""Steadiness check: two interleaved sets of benchmark runs of the same code.

    python3 perfbench/steady.py [--runs 10]

Run from the root of a checkout.  Round i runs every workload once for set
A (seed 1+i) and once for set B (seed 1001+i), alternating which set goes
first.  For each workload and end-to-end metric of BENCHMARK.json it
prints both sets' medians and quartiles, each set's spread (quartile
distance over median) and the set-to-set difference of the medians, both
against the metric's bound.  It exits with 1 if a run fails or is
incorrect, if the sets' shares of failed replications differ, if a
difference or a spread (setup_s excepted) is outside its bound.  Every
run's result goes to .perfbench_out/steady.json.  Run nothing else on the
machine meanwhile.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(cmd_head, workload, seed, seconds):
    cmd = cmd_head + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        return None
    return json.loads(lines[-1])


def _quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return q1, statistics.median(values), q3


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    args = ap.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]

    results = {w: ([], []) for w in workloads}
    ok = True
    for i in range(args.runs):
        for s in ((0, 1) if i % 2 == 0 else (1, 0)):
            for w in workloads:
                seed = 1 + i + 1000 * s
                res = _run(spec["command"], w, seed, spec["run_seconds"])
                if res is None or not res["correct"]:
                    print(f"FAIL {w} seed {seed}: {res}")
                    ok = False
                    continue
                res["seed"] = seed
                results[w][s].append(res)
                vals = ", ".join(f"{k} {v['value']:.5g}" for k, v in res["metrics"].items())
                print(f"{w:<18} set {'AB'[s]} seed {seed:>5}: {vals}", flush=True)

    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench_out", "steady.json"), "w") as fh:
        json.dump(results, fh, indent=1)

    print(f"\n{'workload':<18} {'metric':<15} {'set A median [q1, q3]':<30} "
          f"{'set B median [q1, q3]':<30} {'spread A/B':>13} {'B vs A':>8} {'bound':>6}")
    for w, sets in results.items():
        if not all(sets):
            continue
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in sets]
        if shares[0] != shares[1]:
            print(f"{w}: failed shares differ: {shares}")
            ok = False
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            qs = [_quartiles([r["metrics"][name]["value"] for r in runs]) for runs in sets]
            spreads = [(q3 - q1) / med for q1, med, q3 in qs]
            diff = qs[1][1] / qs[0][1] - 1.0
            good = abs(diff) <= bound and (name == "setup_s"
                                           or max(spreads) <= bound)
            ok &= good
            cols = [f"{med:.5g} [{q1:.5g}, {q3:.5g}]" for q1, med, q3 in qs]
            print(f"{w:<18} {name:<15} {cols[0]:<30} {cols[1]:<30} "
                  f"{spreads[0]:>6.3f}/{spreads[1]:<6.3f} {diff:>+8.3f} {bound:>6.2f}"
                  f"{'' if good else '  OUT'}")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
