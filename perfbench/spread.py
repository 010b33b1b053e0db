#!/usr/bin/env python3
"""Run the benchmark on several seeds and print each end-to-end metric's
median and quartile spread ((q3 - q1) / median, quartiles as
statistics.quantiles(values, n=4) gives them) next to a third of its
bound from BENCHMARK.json.

    python3 perfbench/spread.py --workload fan --seeds 1-5 [--trace 0]

Run from the repository root. The runs use the command and run length
that BENCHMARK.json names.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5", help="first-last, inclusive")
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    first, last = (int(x) for x in args.seeds.split("-"))
    values = {}
    for seed in range(first, last + 1):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", args.trace,
        ]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True)
        lines = out.stdout.strip().splitlines()
        summary = json.loads(lines[-1])
        row = next((json.loads(l.split(": ", 1)[1]) for l in lines
                    if l.startswith("result row: ")), {})
        steal = row.get("host", {}).get("cpu_steal_share", float("nan"))
        if not summary["correct"] or summary["failed"]:
            print(f"seed {seed}: {summary['failed']} of {summary['attempted']} failed")
        for name, m in summary["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed} (steal {steal:.3f}): " + "  ".join(
            f"{k}={v['value']:.4g}" for k, v in summary["metrics"].items()), flush=True)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
        else:
            spread = 0.0
        limit = bounds.get(name)
        flag = "" if limit is None or spread < limit / 3 else "  <-- above bound/3"
        print(f"{name:<32} median {med:12.4f}  spread {spread:7.4f}"
              + (f"  bound/3 {limit / 3:.4f}{flag}" if limit else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
