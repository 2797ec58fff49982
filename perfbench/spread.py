#!/usr/bin/env python3
"""Repeats the benchmark over several seeds and reports how steady it is.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10]

For every workload and end-to-end metric it prints the median of the runs,
the quartiles as statistics.quantiles(n=4) gives them, and the spread
(q3 - q1) / median next to the metric's bound from BENCHMARK.json. A
spread above a third of its bound is flagged and makes the exit code 1;
setup_s is exempt from the spread rule. Run lengths come from
BENCHMARK.json's run_seconds.
"""

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    steady = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in parse_seeds(args.seeds):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines and \
                lines[-1].startswith("{") else {}
            if proc.returncode != 0 or not result.get("correct"):
                print("%s seed %d failed: %s" % (
                    workload, seed, proc.stderr[-500:]), file=sys.stderr)
                steady = False
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print("%s seed %d: %s" % (workload, seed, json.dumps(
                {k: round(v["value"], 4)
                 for k, v in result["metrics"].items()})), flush=True)
        for name, series in values.items():
            summary = stats.summarize(series)
            bound = bounds[name]
            flag = ""
            if name != "setup_s" and summary["spread"] > bound / 3:
                flag = "  <-- above a third of its bound"
                steady = False
            print("%-12s %-16s median %-12.5g spread %.4f bound %s%s" % (
                workload, name, summary["median"], summary["spread"],
                bound, flag), flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
