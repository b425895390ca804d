#!/usr/bin/env python3
"""Steadiness probe: runs the benchmark command once per workload and seed,
in one or more sets, and prints for every metric of each set its median and
its inter-quartile range as a share of the median (Python's
statistics.quantiles(values, n=4)). With two or more sets it also prints how
far each later set's median moved from the first, in the metric's worse
direction, against the metric's bound.

    python3 qbench/steady.py --workloads cold_1m drift_12k --seeds 1 2 3 4 5 \\
        [--sets 2] [--trace 1]

A set runs every workload over every seed, so two sets of one workload are
minutes apart. Run from the repository root. Each run's JSON line is
appended to qbench-runs.jsonl in the working directory.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time

ap = argparse.ArgumentParser()
ap.add_argument("--workloads", nargs="+", required=True)
ap.add_argument("--seeds", type=int, nargs="+", required=True)
ap.add_argument("--sets", type=int, default=1)
ap.add_argument("--trace", default="0")
args = ap.parse_args()

spec = json.load(open("BENCHMARK.json"))
metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
# values[workload][set][metric] -> list of values
values = {w: [{} for _ in range(args.sets)] for w in args.workloads}
for k in range(args.sets):
    for w in args.workloads:
        for seed in args.seeds:
            cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]),
                                     "--trace", args.trace]
            t0 = time.time()
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            wall = time.time() - t0
            if out.returncode != 0:
                sys.exit(f"{w} seed {seed}: exit {out.returncode}\n{out.stderr}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            with open("qbench-runs.jsonl", "a") as log:
                log.write(json.dumps({"workload": w, "set": k, "seed": seed,
                                      "wall_s": wall, **result}) + "\n")
            print(f"set {k} {w} seed {seed}: {wall:.1f} s", file=sys.stderr)
            for name, m in result["metrics"].items():
                values[w][k].setdefault(name, []).append(m["value"])


def spread(vs):
    med = statistics.median(vs)
    if len(vs) < 2 or not med:
        return med, 0.0
    q = statistics.quantiles(vs, n=4)
    return med, (q[2] - q[0]) / med


for w in args.workloads:
    print(f"== {w}")
    for name in values[w][0]:
        m = metrics.get(name, {})
        bound = m.get("bound")
        cols = []
        meds = []
        for k in range(args.sets):
            med, sp = spread(values[w][k][name])
            meds.append(med)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "!" if sp > bound else ("~" if sp > bound / 3 else "")
            cols.append(f"{med:12.6g} ({sp:.3f}{flag})")
        line = f"{name:36s} " + " ".join(cols)
        if args.sets > 1 and meds[0]:
            sign = 1 if m.get("better") == "lower" else -1
            worst = max(sign * (x - meds[0]) / meds[0] for x in meds[1:])
            over = " OVER BOUND" if bound is not None and worst > bound else ""
            line += f"  worse by {worst:+.3f} (bound {bound}){over}"
        elif bound is not None:
            line += f"  (bound {bound})"
        print(line)
