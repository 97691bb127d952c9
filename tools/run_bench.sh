#!/usr/bin/env bash
# Records the perf trajectory of the assignment engine:
#   PR1  delta-evaluation micro-benchmarks (google-benchmark JSON:
#        scratch vs. delta vs. parallel side by side)
#   PR2  sharded dispatch (monolithic GT vs sharded GT at S in
#        {1,2,4,8}: score retention and speedup on 10-50K instances)
#   PR3  flat data plane (CSR pair index vs nested vectors, slab group
#        churn, ForEachPair vs Pairs(), steady-state streaming with a
#        warm BatchWorkspace -- the binary aborts if a steady-state
#        batch grows any pooled backing array)
#   pr6  incremental streaming data plane (delta-maintained valid-pair
#        rows, sequential vs pipelined ingest, on a carry-over-heavy
#        rush-hour trace: steady-state per-batch build+solve seconds
#        plus p50/p99 batch latency; the binary aborts if the two modes
#        disagree on a batch output; --ingest_threads pins the fan-out)
#   PR7  distributed dispatch over the simulated network (protocol
#        overhead vs the in-process engine at zero faults -- the binary
#        aborts unless the two are bit-identical -- plus retention,
#        retries, failovers and RTT quantiles across a drop-rate sweep
#        and a node-crash scenario)
#   PR8  objective layer (ObjectiveModel seam overhead on the GT hot
#        path -- the binary aborts unless a skill-free multiskill run is
#        bit-identical to casc -- plus the multi-skill variant's score
#        retention, coverage rate and join-gate rejects on skilled twins)
#   PR10 cross-batch warm-start solve (feasibility-gap trace with a
#        large standing pool: cold full re-solve vs warm dirty-frontier
#        solve at threads {1,2,4,8} and both pipeline modes; the binary
#        aborts unless the warm family is bit-identical batch for batch
#        and warm quality stays within 20% of cold)
#   PR9  parallel incremental ingest (sustained 1M-worker rush-hour
#        trace: DispatchConfig::ingest_threads in {1,2,4,8} plus a
#        pipelined run, against the serial width-1 run; per-phase ingest
#        split and per-batch p50/p99; the binary aborts if any
#        configuration changes a batch output)
#
# Usage: tools/run_bench.sh [pr1|pr2|pr3|pr6|pr7|pr8|pr9|pr10|all] [OUT_JSON]
#   pr1|pr2|all  which suite to run (default all)
#   OUT_JSON     output override for a single suite
# Env:
#   BUILD_DIR    cmake build directory (default build)
#   BENCH_ARGS   extra args for the selected benchmark binary
set -euo pipefail

cd "$(dirname "$0")/.."

SUITE="${1:-all}"
BUILD_DIR="${BUILD_DIR:-build}"

cmake -B "$BUILD_DIR" -S . >/dev/null

run_pr1() {
  local out="${1:-BENCH_PR1.json}"
  cmake --build "$BUILD_DIR" -j --target bench_micro_best_response >/dev/null
  "$BUILD_DIR/bench/bench_micro_best_response" \
    --benchmark_out="$out" \
    --benchmark_out_format=json \
    --benchmark_repetitions=3 \
    --benchmark_report_aggregates_only=true \
    ${BENCH_ARGS:-}
  echo "wrote $out"
}

run_pr2() {
  local out="${1:-BENCH_PR2.json}"
  cmake --build "$BUILD_DIR" -j --target bench_sharded_dispatch >/dev/null
  "$BUILD_DIR/bench/bench_sharded_dispatch" --json="$out" ${BENCH_ARGS:-}
  echo "wrote $out"
}

run_pr3() {
  local out="${1:-BENCH_PR3.json}"
  cmake --build "$BUILD_DIR" -j --target bench_micro_data_plane >/dev/null
  "$BUILD_DIR/bench/bench_micro_data_plane" \
    --benchmark_out="$out" \
    --benchmark_out_format=json \
    --benchmark_repetitions=3 \
    --benchmark_report_aggregates_only=true \
    ${BENCH_ARGS:-}
  echo "wrote $out"
}

run_pr6() {
  local out="${1:-BENCH_PR6.json}"
  cmake --build "$BUILD_DIR" -j --target bench_streaming_pipeline >/dev/null
  "$BUILD_DIR/bench/bench_streaming_pipeline" --json="$out" ${BENCH_ARGS:-}
  echo "wrote $out"
}

run_pr7() {
  local out="${1:-BENCH_PR7.json}"
  cmake --build "$BUILD_DIR" -j --target bench_net_dispatch >/dev/null
  "$BUILD_DIR/bench/bench_net_dispatch" --json="$out" ${BENCH_ARGS:-}
  echo "wrote $out"
}

run_pr8() {
  local out="${1:-BENCH_PR8.json}"
  cmake --build "$BUILD_DIR" -j --target bench_objective >/dev/null
  "$BUILD_DIR/bench/bench_objective" --json="$out" ${BENCH_ARGS:-}
  echo "wrote $out"
}

run_pr9() {
  local out="${1:-BENCH_PR9.json}"
  cmake --build "$BUILD_DIR" -j --target bench_streaming_pipeline >/dev/null
  # ~1M workers: the opening rush window (4x over 15% of the horizon)
  # lifts the base rate's horizon integral to ~58 intervals.
  "$BUILD_DIR/bench/bench_streaming_pipeline" \
    --mode pr9 --horizon 40 --worker_rate 17500 --task_rate 40 \
    --budget 200 --json="$out" ${BENCH_ARGS:-}
  echo "wrote $out"
}

run_pr10() {
  local out="${1:-BENCH_PR10.json}"
  cmake --build "$BUILD_DIR" -j --target bench_streaming_pipeline >/dev/null
  # Trace geometry (rates, radii, skills, deadlines) is baked into the
  # pr10 mode -- the regime is tuned, not a knob.
  "$BUILD_DIR/bench/bench_streaming_pipeline" \
    --mode pr10 --json="$out" ${BENCH_ARGS:-}
  echo "wrote $out"
}

case "$SUITE" in
  pr1) run_pr1 "${2:-}" ;;
  pr2) run_pr2 "${2:-}" ;;
  pr3) run_pr3 "${2:-}" ;;
  pr6) run_pr6 "${2:-}" ;;
  pr7) run_pr7 "${2:-}" ;;
  pr8) run_pr8 "${2:-}" ;;
  pr9) run_pr9 "${2:-}" ;;
  pr10) run_pr10 "${2:-}" ;;
  all)
    run_pr1
    run_pr2
    run_pr3
    run_pr6
    run_pr7
    run_pr8
    run_pr9
    run_pr10
    ;;
  *)
    echo "usage: tools/run_bench.sh [pr1|pr2|pr3|pr6|pr7|pr8|pr9|pr10|all] [OUT_JSON]" >&2
    exit 1
    ;;
esac
