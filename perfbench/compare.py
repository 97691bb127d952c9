#!/usr/bin/env python3
"""Compares two benchmark result files from the same host.

  python3 perfbench/compare.py BASE.json NEW.json

For every workload and every end-to-end and per-layer metric it prints both
sides' median and run-to-run spread (quartile distance over the runs in the
file), the relative delta, and a verdict: better / worse when the delta
clears the spread, "unresolved" when it does not. Result files are written
by `perfbench/run.py --out FILE`.
"""

import json
import os
import sys
from collections import defaultdict

import benchstats

HERE = os.path.dirname(os.path.abspath(__file__))


def directions():
    """Metric name -> "higher" / "lower", from BENCHMARK.json."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {metric["name"]: metric["better"]
            for metric in spec["end_to_end"] + spec["per_layer"]}


def collect(data):
    """(workload, metric) -> list of values over the file's correct runs."""
    values = defaultdict(list)
    for run in data["runs"]:
        if not run["correct"]:
            continue
        for name, metric in run["metrics"].items():
            values[(run["workload"], name)].append(metric["value"])
    return values


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base = benchstats.load_result_file(argv[1])
    new = benchstats.load_result_file(argv[2])
    if base["host"] != new["host"]:
        print("different hosts, not comparable:\n  %s\n  %s" %
              (base["host"], new["host"]), file=sys.stderr)
        return 2
    better = directions()
    base_values = collect(base)
    new_values = collect(new)
    print("host: %s" % json.dumps(base["host"], sort_keys=True))
    print("%-12s %-26s %13s %10s %13s %10s %8s  %s" %
          ("workload", "metric", "base", "spread", "new", "spread", "delta",
           "verdict"))
    for key in sorted(set(base_values) & set(new_values)):
        workload, name = key
        a, b = base_values[key], new_values[key]
        a_median = benchstats.statistics.median(a)
        b_median = benchstats.statistics.median(b)
        delta = ((b_median - a_median) / abs(a_median) * 100.0
                 if a_median else 0.0)
        print("%-12s %-26s %13.6g %10.3g %13.6g %10.3g %7.1f%%  %s" %
              (workload, name, a_median, benchstats.spread(a), b_median,
               benchstats.spread(b), delta,
               benchstats.verdict(a, b, better.get(name, "lower"))))
    for key in sorted(set(base_values) ^ set(new_values)):
        print("%-12s %-26s only in %s" %
              (key[0], key[1], "base" if key in base_values else "new"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
