#!/usr/bin/env python3
"""Canonical dispatch benchmark: builds the casc library and the harness in
Release, runs one workload (or all of them) and prints the metrics.

  python3 perfbench/run.py --workload skew-s4 --seed 1 --seconds 15 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1 \\
      --out mine.json

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics` (end-to-end metrics with
--trace 0, per-layer metrics with --trace 1). --out appends the full run,
with its host block, to a result file for perfbench/compare.py. The command
exits non-zero when any output check failed.
"""

import argparse
import glob
import json
import os
import platform
import re
import subprocess
import sys

import benchstats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("table2-m5k", "skew-s4", "rush-250k", "gap-warm")
RUN_TIMEOUT_S = 170


def log(message):
    print("[perfbench] " + message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the harness; returns its build directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("casc sources not found under " + ROOT)
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j",
                  str(os.cpu_count() or 1)])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            raise RuntimeError("build step failed: " + " ".join(step))
    return build_dir


def host_block(build_dir):
    """nproc, CPU model, compiler and build type of this run."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = "unknown"
    for path in glob.glob(os.path.join(build_dir, "CMakeFiles", "*",
                                       "CMakeCXXCompiler.cmake")):
        with open(path) as handle:
            text = handle.read()
        ident = re.search(r'CMAKE_CXX_COMPILER_ID "([^"]*)"', text)
        version = re.search(r'CMAKE_CXX_COMPILER_VERSION "([^"]*)"', text)
        if ident and version:
            compiler = ident.group(1) + " " + version.group(1)
    build_type = "unknown"
    with open(os.path.join(build_dir, "CMakeCache.txt")) as handle:
        for line in handle:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    return {"nproc": os.cpu_count(), "cpu": cpu, "compiler": compiler,
            "build_type": build_type}


def run_workload(binary, workload, args):
    """Runs the harness on one workload; returns (raw record, result)."""
    command = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S, cwd=ROOT)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError("%s exited with %d" % (workload, done.returncode))
    raw = json.loads(lines[-1])
    return raw, benchstats.summarize(raw)


def describe(workload, raw, result):
    if raw["env_cleared"]:
        print("%s: cleared %s before running" %
              (workload, ", ".join(raw["env_cleared"])))
    for failure in raw["failures"]:
        print("%s: FAILED %s" % (workload, failure))
    if result["tail_pct"] is not None and not int(raw["trace"]):
        print("%s: batch_tail_ms is p%g of %d batches" %
              (workload, result["tail_pct"], len(raw["batch_ms"])))
    for name, metric in result["metrics"].items():
        print("%s: %-28s %14.6g %s" % (workload, name, metric["value"],
                                       metric["unit"]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="result file to append the run to")
    args = parser.parse_args()

    try:
        build_dir = build()
        binary = os.path.join(build_dir, "casc_perfbench")
        host = host_block(build_dir)
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for workload in workloads:
            log("running %s (seed %d, trace %d)" %
                (workload, args.seed, args.trace))
            raw, result = run_workload(binary, workload, args)
            describe(workload, raw, result)
            results[workload] = result
            if args.out:
                run = dict(result, workload=workload, seed=args.seed,
                           trace=args.trace, seconds=args.seconds,
                           failures=raw["failures"])
                if not benchstats.append_run(args.out, host, run):
                    raise RuntimeError(args.out + " holds another host's runs")
    except (RuntimeError, OSError, ValueError,
            subprocess.TimeoutExpired) as error:
        log("error: %s" % error)
        return 2

    if len(results) == 1:
        final = dict(results[workloads[0]])
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s.%s" % (workload, name): metric
                        for workload, result in results.items()
                        for name, metric in result["metrics"].items()},
        }
    print(json.dumps({key: final[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
