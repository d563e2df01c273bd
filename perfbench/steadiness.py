#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command in BENCHMARK.json several times per workload, each with
its own seed, and reports for every end-to-end metric the median and the
spread: the distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound. Run it from the repository root:

    python3 perfbench/steadiness.py [--runs 10] [--seed-base 1]
                                    [--workloads a,b] [--out FILE]

With --out the figures are written as JSON (perfbench/STEADINESS.json
holds two such sets, --seed-base 1 and 11). Exits 1 if any run fails or
reports correct=false.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = [n for n in names if n in args.workloads.split(",")]
    metrics = bench["end_to_end"]
    report = {
        "runs_per_workload": args.runs,
        "seeds": [args.seed_base + i for i in range(args.runs)],
        "run_seconds": bench["run_seconds"],
        "host": {
            "logical_cpus": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
        },
        "workloads": {},
    }
    ok = True
    for name in names:
        values = {m["name"]: [] for m in metrics}
        for i in range(args.runs):
            seed = args.seed_base + i
            cmd = bench["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not result.get("correct"):
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}",
                      file=sys.stderr)
                ok = False
                continue
            for m in metrics:
                values[m["name"]].append(result["metrics"][m["name"]]["value"])
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={v[-1]:.6g}" for k, v in values.items()), flush=True)
        rows = {}
        for m in metrics:
            v = values[m["name"]]
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / statistics.median(v) if med else 0.0
            rows[m["name"]] = {
                "median": statistics.median(v),
                "spread": spread,
                "bound": m["bound"],
                "values": v,
            }
            print(f"  {m['name']:<12} median {statistics.median(v):<14.6g} "
                  f"spread {spread:.4f}  bound {m['bound']}  "
                  f"{'ok' if spread < m['bound'] / 3 else 'WIDE'}")
        report["workloads"][name] = rows
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
