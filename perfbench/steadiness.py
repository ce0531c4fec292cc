#!/usr/bin/env python3
"""Check that the benchmark is steady enough for its own bounds.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
                                    [--workload NAME ...] [--trace 0|1]
                                    [--seconds S]

Run from the repository root. For each workload, runs the benchmark
command from BENCHMARK.json `--runs` times with consecutive seeds and
prints, for every metric, the median and the spread: the distance
between the first and third quartile (`statistics.quantiles(n=4)`) as a
share of the median. `--seconds` overrides `run_seconds` for a quick
look. End-to-end metrics are compared with their bound;
a spread above the bound (setup_s excepted) is marked FAIL, one above a
third of it is marked "wide". Exits 1 if any run fails or any spread
fails.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    cmd = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d exited %d" % (workload, seed, out.returncode))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError("%s seed %d: %s" % (workload, seed, lines[-1]))
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    ok = True
    for w in workloads:
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            try:
                seconds = args.seconds or spec["run_seconds"]
                runs.append(run_once(spec["command"], w, seed, seconds, args.trace))
            except RuntimeError as e:
                print("FAIL", e)
                ok = False
        if len(runs) < 2:
            continue
        print("== %s (%d runs)" % (w, len(runs)))
        for name in runs[0]:
            values = [r[name] for r in runs]
            med = statistics.median(values)
            q = statistics.quantiles(values, n=4)
            spread = (q[2] - q[0]) / med if med else float("nan")
            verdict = ""
            if name in bounds:
                bound = bounds[name]
                if spread > bound and name != "setup_s":
                    verdict = "FAIL (bound %.2f)" % bound
                    ok = False
                elif spread > bound / 3:
                    verdict = "wide (bound %.2f)" % bound
            print("  %-26s median %14.6g  spread %6.2f%%  %s" % (name, med, 100 * spread, verdict))
            print("      " + " ".join("%.4g" % v for v in values))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
