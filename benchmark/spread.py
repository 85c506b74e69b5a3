#!/usr/bin/env python3
"""Ten seeds per workload: IQR/median of every end-to-end metric against its bound.

Run from the repo root: python3 benchmark/spread.py <psgl-benchmark binary> [workloads|all] [seeds]
"""
import json, statistics, subprocess, sys, time
spec = json.load(open("BENCHMARK.json"))
exe = sys.argv[1]
workloads = sys.argv[2].split(",") if len(sys.argv) > 2 and sys.argv[2] != "all" else [w["name"] for w in spec["workloads"]]
seeds = [int(s) for s in sys.argv[3].split(",")] if len(sys.argv) > 3 else list(range(101, 111))
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
for w in workloads:
    values = {m: [] for m in bounds}
    t0 = time.time()
    for seed in seeds:
        out = subprocess.run([exe, "run", "--workload", w, "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"], capture_output=True, text=True)
        last = json.loads(out.stdout.strip().splitlines()[-1])
        assert last["correct"], (w, seed, last)
        for m in bounds:
            values[m].append(last["metrics"][m]["value"])
    per_run = (time.time() - t0) / len(seeds)
    print(f"{w}  ({per_run:.1f} s per run)")
    for m, v in values.items():
        q = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        spread = (q[2] - q[0]) / med
        flag = "" if spread < bounds[m] / 3 else ("  > bound/3" if spread < bounds[m] else "  > BOUND")
        print(f"  {m:<14} median {med:>14.4f}  spread {100*spread:5.1f}%  bound {100*bounds[m]:.0f}%{flag}   min {min(v):.4f} max {max(v):.4f}")
    sys.stdout.flush()
