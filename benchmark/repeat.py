#!/usr/bin/env python3
"""Repeat check: do two complete sets of runs of one commit agree?

Runs the command of BENCHMARK.json ten times on every workload, each time
with another seed, and does that twice. Per workload and end-to-end metric
it prints both medians, the spread of each set (distance between the first
and third quartile of `statistics.quantiles(values, n=4)` as a share of the
median), how much worse the second median is than the first, and the bound.

The bound is the one `benchmark/bounds.json` gives that workload and metric:
BENCHMARK.json has one bound per metric name, which must cover the noisiest
workload, and a quieter workload is held to less here.

Exits non-zero when a spread exceeds its bound (`setup_s` is exempt from
the spread rule), when the second median is worse than the first by more
than the bound, or when a run is incorrect. Takes about 35 minutes; run it
from the repo root on an otherwise idle host:

    python3 benchmark/repeat.py
"""

import json
import statistics
import subprocess
import sys
import time

RUNS = 10
SETS = 2


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
    if done.returncode != 0:
        sys.exit(f"{done.stdout}\n{' '.join(argv)} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    with open("benchmark/bounds.json") as f:
        bounds = json.load(f)
    seconds = bench["run_seconds"]
    began = time.time()

    violations = []
    print(f"{'workload':<14} {'metric':<12} {'unit':<4} "
          + " ".join(f"{'median' + str(k + 1):>12} {'spread' + str(k + 1):>8}" for k in range(SETS))
          + f" {'worse by':>9} {'bound':>6}  verdict")
    for workload in (w["name"] for w in bench["workloads"]):
        sets = []
        failed = 0
        for k in range(SETS):
            values = {m["name"]: [] for m in bench["end_to_end"]}
            for i in range(RUNS):
                result = run_once(bench["command"], workload, 1000 * k + i + 1, seconds)
                failed += result["failed"]
                for name, metric in result["metrics"].items():
                    values[name].append(metric["value"])
            sets.append(values)
        for m in bench["end_to_end"]:
            name, bound = m["name"], bounds[workload][m["name"]]
            sign = 1.0 if m["better"] == "lower" else -1.0
            medians = [statistics.median(s[name]) for s in sets]
            spreads = [spread(s[name]) for s in sets]
            worse = max(sign * (later - medians[0]) / medians[0] for later in medians[1:])
            problems = []
            if name != "setup_s" and max(spreads) > bound:
                problems.append("spread > bound")
            if worse > bound:
                problems.append("second median worse")
            if len(set(v for s in sets for v in s[name])) == 1:
                problems.append("reads the same on every run")
            verdict = "; ".join(problems) or ("ok" if max(spreads) <= bound / 3 or name == "setup_s"
                                              else "ok (spread above a third of the bound)")
            if problems:
                violations.append(f"{workload}/{name}: {verdict}")
            print(f"{workload:<14} {name:<12} {m['unit']:<4} "
                  + " ".join(f"{med:>12.5g} {sp:>8.4f}" for med, sp in zip(medians, spreads))
                  + f" {worse:>+9.4f} {bound:>6.2f}  {verdict}", flush=True)
        if failed:
            print(f"{workload:<14} {failed} operations failed over all runs")
    print(f"{SETS} sets x {RUNS} runs x {len(bench['workloads'])} workloads "
          f"at {seconds} s in {time.time() - began:.0f} s")
    if violations:
        sys.exit("repeat check FAILED:\n  " + "\n  ".join(violations))
    print("repeat check passed")


if __name__ == "__main__":
    main()
