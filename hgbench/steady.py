#!/usr/bin/env python3
"""Steadiness check: repeat each workload with fresh seeds and compare.

    python3 hgbench/steady.py --runs 10 --sets 2
    python3 hgbench/steady.py --runs 5 --workloads spark-wt

Each run is one `hgbench/run.py` process. For every end-to-end metric the
table gives the median and quartiles over the runs of a set (quartiles as
`statistics.quantiles(values, n=4)` gives them), the quartile distance as a
share of the median, and the metric's bound from BENCHMARK.json. With two
sets it also gives how much the second set's median is worse than the first
one's, which must stay within the bound as well. Raw results are appended
to .bench_build/steady.jsonl.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1, choices=[1, 2])
    ap.add_argument("--workloads", nargs="*")
    a = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = a.workloads or [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    log = os.path.join(ROOT, ".bench_build", "steady.jsonl")
    os.makedirs(os.path.dirname(log), exist_ok=True)

    for w in workloads:
        sets = []
        for s in range(a.sets):
            results = []
            for i in range(a.runs):
                seed = 1 + s * a.runs + i
                r = run_once(w, seed, spec["run_seconds"], 0)
                with open(log, "a") as f:
                    f.write(json.dumps({"workload": w, "set": s, "seed": seed, "result": r}) + "\n")
                results.append(r)
            sets.append(results)

        print(f"\n== {w}: {a.runs} runs per set, run_seconds={spec['run_seconds']}")
        for s, results in enumerate(sets):
            shares = sorted({f"{r['failed']}/{r['attempted']}" for r in results})
            ratios = sorted({r["failed"] / r["attempted"] for r in results})
            print(f"set {s + 1}: correct={all(r['correct'] for r in results)} "
                  f"failed/attempted={' '.join(shares)} (share{'s' if len(ratios) > 1 else ''} "
                  f"{' '.join(f'{x:.4f}' for x in ratios)})")
        head = f"{'metric':18} {'set':>3} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>7} {'bound':>6}  {'2nd worse':>9}"
        print(head)
        for m in metrics:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            medians = []
            for s, results in enumerate(sets):
                vals = [r["metrics"][name]["value"] for r in results]
                q1, med, q3 = statistics.quantiles(vals, n=4)
                medians.append(med)
                spread = (q3 - q1) / med
                verdict = "ok" if spread <= bound else "WIDE"
                worse = ""
                if s == 1:
                    d = (medians[1] - medians[0]) / medians[0]
                    d = d if lower else -d
                    worse = f"{d:+.3f} {'ok' if d <= bound else 'WORSE'}"
                print(f"{name:18} {s + 1:>3} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>7.3f} "
                      f"{bound:>6.2f}  {worse:>9} {verdict}")


if __name__ == "__main__":
    main()
