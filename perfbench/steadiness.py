#!/usr/bin/env python3
"""Measure how steady the benchmark's end-to-end metrics are.

Runs perfbench/run.py several times per workload and reports, for every
end-to-end metric, the median, the quartiles (statistics.quantiles(n=4)),
and the spread (q3 - q1) / median next to the metric's bound in
BENCHMARK.json. Run from the root of a checkout:

    # one run per seed, seeds 1..10 (different inputs every run)
    python3 perfbench/steadiness.py --seeds 1-10
    # ten runs of one seed (same inputs every run)
    python3 perfbench/steadiness.py --seeds 1 --repeat 10

--out writes the figures as JSON. The exit code is 1 when a spread other
than setup_s's exceeds its bound, or when a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def machine():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu_model": model, "nproc": os.cpu_count()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default="cold_scan,warm_query,fleet_clean")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--repeat", type=int, default=1)
    ap.add_argument("--out")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = [s for s in parse_seeds(args.seeds) for _ in range(args.repeat)]

    report = {"machine": machine(), "run_seconds": seconds, "seeds": seeds,
              "workloads": {}}
    ok = True
    for w in args.workloads.split(","):
        values = {}
        for seed in seeds:
            cmd = [sys.executable, "perfbench/run.py", "--workload", w,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True)
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if out.returncode or not result.get("correct"):
                print(f"{w} seed {seed}: run failed (exit {out.returncode})")
                ok = False
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        rows = {}
        for name, vals in values.items():
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / q2 if q2 else float("inf")
            bound = bounds[name]
            within = name == "setup_s" or spread <= bound
            ok = ok and within
            rows[name] = {"median": q2, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bound, "runs": len(vals)}
            print(f"{w:12s} {name:18s} median {q2:14.6g}  q1 {q1:14.6g}  "
                  f"q3 {q3:14.6g}  spread {spread:7.4f}  bound {bound:5.2f}"
                  f"{'' if within else '  OVER BOUND'}", flush=True)
        report["workloads"][w] = rows
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=2)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
