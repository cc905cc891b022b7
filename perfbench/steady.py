#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs one workload k times with seeds first..first+k-1 and prints, for each
metric, the median, the quartiles and the quartile spread as a share of
the median (the figure the bounds in BENCHMARK.json are held against).
Every run is an untraced run of BENCHMARK.json's run_seconds, as the
end-to-end metrics and their bounds are defined.
With --other DIR (the root of a second checkout, e.g. the parent commit),
the two builds alternate run by run, the order flipping every pair, and
each build is summarised apart with the change between their medians.

    python3 perfbench/steady.py --workload stream_x16 --runs 10
    python3 perfbench/steady.py --workload serve_open --runs 10 --other ../parent

Run it from anywhere; each build runs from its checkout root with the
command in that root's BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(root, workload, seed):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    t0 = time.time()
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    wall = time.time() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{root}: seed {seed} exited {proc.returncode}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    steal = [l for l in proc.stderr.splitlines() if l.startswith("host steal")]
    result["steal"] = steal[-1].split()[2] if steal else "?"

    return result, bench


def summarise(label, results, bench):
    kinds = bench["end_to_end"]
    bounds = {m["name"]: m["bound"] for m in kinds}
    print(f"\n{label}: {len(results)} runs, wall {statistics.median(r['wall_s'] for r in results):.1f}s median")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"  failed/attempted: {sorted(shares)}  correct: {all(r['correct'] for r in results)}")
    medians = {}
    print(f"  {'metric':<32} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/med':>8} {'bound':>6}")
    for m in kinds:
        name = m["name"]
        vals = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
        if len(vals) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        medians[name] = med
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds[name]
        flag = "" if spread <= bound / 3 else "  <-- above a third of its bound"
        print(f"  {name:<32} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f} "
              f"{bound:>6}{flag}")
    return medians


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--other", help="root of a second checkout to alternate with")
    args = ap.parse_args()

    roots = [ROOT] + ([os.path.abspath(args.other)] if args.other else [])
    results = {root: [] for root in roots}
    bench = None
    for k in range(args.runs):
        seed = args.first_seed + k
        order = roots if k % 2 == 0 else roots[::-1]
        for root in order:
            result, b = run_once(root, args.workload, seed)
            bench = bench or b
            results[root].append(result)
            print(f"seed {seed} {os.path.basename(root) or root} (steal {result['steal']}): "
                  + ", ".join(f"{n}={v['value']:.6g}" for n, v in result["metrics"].items()),
                  flush=True)
    medians = [summarise(root, results[root], bench) for root in roots]
    if len(medians) == 2:
        print(f"\nchange of {roots[1]} against {roots[0]} (median over median - 1):")
        for name, base in medians[0].items():
            if name in medians[1] and base:
                print(f"  {name:<32} {medians[1][name] / base - 1:+.4f}")


if __name__ == "__main__":
    main()
