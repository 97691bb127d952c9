"""Statistics and result-file schema of the canonical dispatch benchmark.

The C++ harness (casc_perfbench) prints one raw record per run: per-batch
latency samples, work counters, the check ledger and, for traced runs, the
per-layer metrics. This module turns a raw record into the benchmark's
metrics and reads and writes the result files that perfbench/compare.py
consumes.
"""

import json
import math
import statistics

SCHEMA = "casc-perfbench/1"

# Candidate tail percentiles, highest first. A run reports the highest one
# that leaves at least TAIL_BEYOND samples above it.
TAIL_GRID = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 85.0, 80.0, 75.0, 70.0,
             65.0, 60.0, 55.0, 50.0)
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "batch_p50_ms": "ms",
    "batch_tail_ms": "ms",
    "workers_per_s": "1/s",
    "score": "score",
    "score_upper": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def tail_percentile(count):
    """Highest TAIL_GRID percentile with >= TAIL_BEYOND of `count` samples
    beyond it, or None when there are too few samples for any."""
    for pct in TAIL_GRID:
        if count * (100.0 - pct) / 100.0 >= TAIL_BEYOND - 1e-9:
            return pct
    return None


def percentile(samples, pct):
    """Linearly interpolated percentile (the 'inclusive' method of
    statistics.quantiles) of a non-empty sample list."""
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    position = (len(ordered) - 1) * pct / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (position - low) * (ordered[high] - ordered[low])


def summarize(raw):
    """Benchmark result of one raw harness record.

    Returns a dict with `correct`, `attempted`, `failed`, `metrics`
    (end-to-end for untraced runs, per-layer for traced runs, each as
    {"value", "unit"}) and `tail_pct`. A run is correct only when no batch
    failed a check and it measured at least one batch.
    """
    attempted = max(int(raw["attempted"]), 1)
    failed = int(raw["failed"])
    samples = raw["batch_ms"]
    if not samples and failed == 0:
        failed = 1  # a run that timed nothing measured nothing
    tail_pct = tail_percentile(len(samples))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "tail_pct": tail_pct,
    }
    if int(raw.get("trace", 0)) == 1:
        result["metrics"] = {
            name: {"value": value, "unit": layer_unit(name)}
            for name, value in sorted(raw["layers"].items())
        }
        return result
    values = {
        "batch_p50_ms": statistics.median(samples) if samples else 0.0,
        "batch_tail_ms": (percentile(samples, tail_pct)
                          if samples and tail_pct is not None
                          else max(samples, default=0.0)),
        "workers_per_s": (raw["workers"] / raw["wall_s"]
                          if raw["wall_s"] > 0 else 0.0),
        "score": raw["score"],
        "score_upper": raw["score"] / raw["upper"] if raw["upper"] > 0 else 0.0,
        "setup_s": statistics.median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    result["metrics"] = {
        name: {"value": values[name], "unit": END_TO_END_UNITS[name]}
        for name in END_TO_END_UNITS
    }
    return result


def layer_unit(name):
    """Unit of a per-layer metric, read off its name suffix."""
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_frac") or name.endswith("imbalance"):
        return "ratio"
    return "count"


def spread(values):
    """Distance between the first and third quartile (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def new_result_file(host):
    return {"schema": SCHEMA, "host": host, "runs": []}


def load_result_file(path):
    with open(path) as handle:
        data = json.load(handle)
    if data.get("schema") != SCHEMA:
        raise ValueError("%s: not a %s result file" % (path, SCHEMA))
    for run in data["runs"]:
        for key in ("workload", "seed", "trace", "correct", "attempted",
                    "failed", "metrics"):
            if key not in run:
                raise ValueError("%s: run without '%s'" % (path, key))
    return data


def append_run(path, host, run):
    """Appends `run` to the result file at `path`, creating it if needed.
    Returns False (and leaves the file alone) when the file holds results
    of another host."""
    try:
        data = load_result_file(path)
    except FileNotFoundError:
        data = new_result_file(host)
    if data["host"] != host:
        return False
    data["runs"].append(run)
    with open(path, "w") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return True


def verdict(base, new, better):
    """Classifies the change between two sets of runs of one metric.

    `better` is "higher" or "lower". A delta counts only when it exceeds
    both sides' run-to-run spread (quartile distance), or when the two sets
    of runs do not overlap at all; otherwise it is "unresolved". Sides with
    fewer than two runs have no measured spread, so their deltas stay
    unresolved unless the values are identical.
    """
    base_median = statistics.median(base)
    new_median = statistics.median(new)
    if base_median == new_median:
        return "same"
    if len(base) < 2 or len(new) < 2:
        return "unresolved"
    separated = min(new) > max(base) or max(new) < min(base)
    noise = max(spread(base), spread(new))
    if abs(new_median - base_median) <= noise and not separated:
        return "unresolved"
    improved = (new_median > base_median) == (better == "higher")
    return "better" if improved else "worse"
