// Streaming data-plane benchmark (default --mode pr6): the delta-maintained
// StreamingPlane driven by DispatchService::Run, sequential vs the
// two-slot pipelined loop, on a carry-over-heavy rush-hour trace. The two
// pipeline modes must produce bit-identical per-batch scores and counts
// (CHECKed); the interesting numbers are the steady-state per-batch
// build+solve seconds, the run-level p50/p99 batch latency, and how much
// ingest the pipeline hides under the solve.
//
//   ./bench_streaming_pipeline [--horizon 80] [--worker_rate 100]
//                              [--task_rate 3] [--budget 6] [--threads 4]
//                              [--ingest_threads 0] [--seed 42]
//                              [--json BENCH_PR6.json] [--soak_seconds 0]
//                              [--mode pr6]
//
// --ingest_threads sets DispatchConfig::ingest_threads for the pr6, soak
// and pr10 runs (0 = automatic pool slice).
//
// --soak_seconds > 0 switches to soak mode: the pipelined configuration
// is re-run until the wall-clock budget is spent, checking every
// iteration against the first — the TSan CI job drives this.
//
// --mode pr9 switches to the parallel-ingest scaling benchmark (PR9): a
// sustained rush-hour trace (1M workers at the run_bench.sh settings)
// streamed through a TraceCursor, swept over ingest_threads in
// {1,2,4,8} plus a pipelined run — all outputs CHECKed identical to the
// serial width-1 run — reporting the per-phase ingest split, per-batch
// p50/p99 and the ingest speedup vs the serial run.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "algo/gt_assigner.h"
#include "algo/tpg_assigner.h"
#include "common/check.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "gen/trace.h"
#include "model/cooperation_matrix.h"
#include "service/dispatch_service.h"
#include "sim/event_stream.h"

namespace {

struct ConfigResult {
  std::string name;
  bool pipeline = false;
  casc::RunSummary summary;
  casc::RunLatencyStats latency;
  std::vector<casc::ServiceMetrics> service;
  double run_seconds = 0.0;
};

/// A rush-hour trace built for carry-over: the opening window floods the
/// worker pool (workers never leave while idle), task deadlines span many
/// batch intervals and the admission budget defers the overflow, so the
/// steady state re-solves a large standing pool every batch over a
/// delta-maintained valid-pair index.
casc::Trace MakeRushTrace(double horizon, double worker_rate,
                          double task_rate, uint64_t seed) {
  casc::TraceConfig config;
  config.horizon = horizon;
  config.worker_rate = worker_rate;
  config.task_rate = task_rate;
  config.rush_windows.push_back({0.0, horizon * 0.15, 4.0});
  // Wide working areas + slow workers: most in-range candidates fail the
  // deadline check (travel time exceeds the remaining slack), so the
  // valid pairs — and with them the solver's share of the batch — stay
  // sparse, and the data plane dominates the batch.
  config.worker.radius_min = 0.35;
  config.worker.radius_max = 0.50;
  config.worker.speed_min = 0.002;
  config.worker.speed_max = 0.004;
  config.task.remaining_time = 12.0;
  config.task.capacity = 4;
  casc::Rng rng(seed);
  return casc::GenerateTrace(config, &rng);
}

ConfigResult RunConfig(const std::string& name, bool pipeline,
                       int ingest_threads, const casc::EventStream& stream,
                       const casc::CooperationMatrix& coop, int threads,
                       int budget) {
  casc::DispatchConfig config;
  config.sharded.shards_per_side = 1;
  config.sharded.num_threads = threads;
  config.min_group_size = 3;
  config.batch_interval = 1.0;
  config.task_duration = 2.0;
  config.max_tasks_per_batch = budget;
  config.ingest_threads = ingest_threads;
  config.enable_pipeline = pipeline;
  // The cheap single-pass TPG solver keeps the solver's share of the
  // batch small: this benchmark isolates the data plane (ingest + index
  // build), not the assignment game.
  casc::DispatchService service(config, &coop, [] {
    return std::make_unique<casc::TpgAssigner>();
  });

  ConfigResult result;
  result.name = name;
  result.pipeline = pipeline;
  casc::Stopwatch watch;
  result.summary = service.Run(stream);
  result.run_seconds = watch.ElapsedSeconds();
  result.latency = service.run_latency();
  result.service = service.batch_metrics();
  return result;
}

/// Aborts unless the two runs agree on every per-batch output.
void CheckIdentical(const ConfigResult& expected,
                    const ConfigResult& actual) {
  CASC_CHECK_EQ(expected.summary.batches.size(),
                actual.summary.batches.size())
      << expected.name << " vs " << actual.name;
  for (size_t i = 0; i < expected.summary.batches.size(); ++i) {
    const casc::BatchMetrics& e = expected.summary.batches[i];
    const casc::BatchMetrics& a = actual.summary.batches[i];
    CASC_CHECK_EQ(e.score, a.score)
        << expected.name << " vs " << actual.name << " batch " << i;
    CASC_CHECK_EQ(e.valid_pairs, a.valid_pairs)
        << expected.name << " vs " << actual.name << " batch " << i;
    CASC_CHECK_EQ(e.assigned_workers, a.assigned_workers)
        << expected.name << " vs " << actual.name << " batch " << i;
    CASC_CHECK_EQ(e.completed_tasks, a.completed_tasks)
        << expected.name << " vs " << actual.name << " batch " << i;
  }
}

/// Steady-state mean of per-batch index build + solve seconds, skipping
/// the first quarter as warmup.
double SteadyBuildSolveMean(const ConfigResult& result) {
  const auto& batches = result.summary.batches;
  const size_t warmup = batches.size() / 4;
  if (batches.size() <= warmup) return 0.0;
  double sum = 0.0;
  for (size_t i = warmup; i < batches.size(); ++i) {
    sum += batches[i].index_build_seconds + batches[i].seconds;
  }
  return sum / static_cast<double>(batches.size() - warmup);
}

/// Ingest seconds that ran overlapped with the previous batch's solve.
double OverlappedIngestSeconds(const ConfigResult& result) {
  double sum = 0.0;
  for (const casc::ServiceMetrics& metrics : result.service) {
    if (metrics.pipelined) sum += metrics.ingest_seconds;
  }
  return sum;
}

double TotalOf(const ConfigResult& result,
               double casc::BatchMetrics::*field) {
  double sum = 0.0;
  for (const auto& batch : result.summary.batches) sum += batch.*field;
  return sum;
}

/// Steady-state per-batch mean of one timing field, skipping the first
/// quarter as warmup (the rush window floods the pool there).
double SteadyMeanOf(const ConfigResult& result,
                    double casc::BatchMetrics::*field) {
  const auto& batches = result.summary.batches;
  const size_t warmup = batches.size() / 4;
  if (batches.size() <= warmup) return 0.0;
  double sum = 0.0;
  for (size_t i = warmup; i < batches.size(); ++i) sum += batches[i].*field;
  return sum / static_cast<double>(batches.size() - warmup);
}

// ---------------------------------------------------------------------------
// --mode pr9: parallel-ingest scaling on a 1M-worker rush-hour trace
// ---------------------------------------------------------------------------

/// Streams the pr9 rush-hour trace through a TraceCursor straight into
/// the event-stream vectors: at 1M workers the full Trace struct is
/// never materialized alongside the stream. Small working radii keep the
/// valid pairs sparse, so the data plane — not the solver — dominates.
casc::EventStream MakePr9Stream(double horizon, double worker_rate,
                                double task_rate, uint64_t seed) {
  casc::TraceConfig config;
  config.horizon = horizon;
  config.worker_rate = worker_rate;
  config.task_rate = task_rate;
  config.rush_windows.push_back({0.0, horizon * 0.15, 4.0});
  config.worker.radius_min = 0.008;
  config.worker.radius_max = 0.015;
  config.worker.speed_min = 0.05;
  config.worker.speed_max = 0.10;
  config.task.remaining_time = 12.0;
  config.task.capacity = 4;
  casc::Rng rng(seed);
  casc::TraceCursor cursor(config, &rng);
  std::vector<casc::Worker> workers;
  workers.reserve(static_cast<size_t>(cursor.num_workers()));
  casc::Worker worker;
  while (cursor.NextWorker(&worker)) workers.push_back(worker);
  std::vector<casc::Task> tasks;
  casc::Task task;
  while (cursor.NextTask(&task)) tasks.push_back(task);
  return casc::EventStream(std::move(workers), std::move(tasks));
}

int RunPr9(const casc::FlagParser& flags) {
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt64("seed"));
  const int threads = static_cast<int>(flags.GetInt64("threads"));
  const int budget = static_cast<int>(flags.GetInt64("budget"));
  const casc::EventStream stream =
      MakePr9Stream(flags.GetDouble("horizon"),
                    flags.GetDouble("worker_rate"),
                    flags.GetDouble("task_rate"), seed);
  const casc::CooperationMatrix coop = casc::CooperationMatrix::Procedural(
      static_cast<int>(stream.num_workers()), seed ^ 0x9E3779B9u);
  std::printf("pr9 trace: %zu workers, %zu tasks over %.0f intervals\n",
              stream.num_workers(), stream.num_tasks(),
              flags.GetDouble("horizon"));
  std::fflush(stdout);

  struct Pr9Config {
    const char* name;
    int ingest_threads;
    bool pipeline;
  };
  // threads-1 is the serial reference: width 1 runs every ingest loop
  // inline, without a pool.
  const Pr9Config configs[] = {
      {"threads-1", 1, false}, {"threads-2", 2, false},
      {"threads-4", 4, false}, {"threads-8", 8, false},
      {"pipelined-4", 4, true},
  };

  std::vector<ConfigResult> results;
  for (const Pr9Config& config : configs) {
    std::printf("running %s...\n", config.name);
    std::fflush(stdout);
    results.push_back(RunConfig(config.name, config.pipeline,
                                config.ingest_threads, stream, coop, threads,
                                budget));
    if (results.size() > 1) CheckIdentical(results.front(), results.back());
  }

  const double serial_ingest =
      TotalOf(results[0], &casc::BatchMetrics::ingest_seconds);
  std::ostringstream json;
  json.precision(std::numeric_limits<double>::max_digits10);
  json << "{\"bench\":\"streaming_pipeline_pr9\",\"seed\":" << seed
       << ",\"threads\":" << threads << ",\"budget\":" << budget
       << ",\"workers\":" << stream.num_workers()
       << ",\"tasks\":" << stream.num_tasks()
       << ",\"batches\":" << results[0].summary.batches.size()
       << ",\"serial_ingest_seconds\":" << serial_ingest << ",\"configs\":[";

  std::printf("  %-13s %9s %9s %9s %9s %9s %9s %9s %9s\n", "config",
              "ingest", "splice", "fresh", "spatial", "csr", "speedup",
              "p50", "p99");
  for (size_t i = 0; i < results.size(); ++i) {
    const ConfigResult& result = results[i];
    const Pr9Config& config = configs[i];
    const double ingest =
        TotalOf(result, &casc::BatchMetrics::ingest_seconds);
    const double splice =
        TotalOf(result, &casc::BatchMetrics::ingest_splice_seconds);
    const double fresh =
        TotalOf(result, &casc::BatchMetrics::ingest_fresh_rows_seconds);
    const double spatial =
        TotalOf(result, &casc::BatchMetrics::ingest_spatial_seconds);
    const double csr_emit =
        TotalOf(result, &casc::BatchMetrics::csr_emit_seconds);
    const double speedup = ingest > 0.0 ? serial_ingest / ingest : 0.0;
    const double steady_ingest =
        SteadyMeanOf(result, &casc::BatchMetrics::ingest_seconds);
    const double steady_solve =
        SteadyMeanOf(result, &casc::BatchMetrics::seconds);
    std::printf("  %-13s %8.2fs %8.2fs %8.2fs %8.2fs %8.2fs %8.2fx "
                "%7.2fms %7.2fms\n",
                result.name.c_str(), ingest, splice, fresh, spatial,
                csr_emit, speedup, result.latency.p50_seconds * 1e3,
                result.latency.p99_seconds * 1e3);

    if (i > 0) json << ",";
    json << "{\"name\":\"" << result.name
         << "\",\"ingest_threads\":" << config.ingest_threads
         << ",\"pipeline\":" << (config.pipeline ? 1 : 0)
         << ",\"score\":" << result.summary.TotalScore()
         << ",\"run_seconds\":" << result.run_seconds
         << ",\"ingest_seconds\":" << ingest
         << ",\"ingest_splice_seconds\":" << splice
         << ",\"ingest_fresh_rows_seconds\":" << fresh
         << ",\"ingest_spatial_seconds\":" << spatial
         << ",\"csr_emit_seconds\":" << csr_emit
         << ",\"index_build_seconds\":"
         << TotalOf(result, &casc::BatchMetrics::index_build_seconds)
         << ",\"solve_seconds\":"
         << TotalOf(result, &casc::BatchMetrics::seconds)
         << ",\"steady_ingest_seconds\":" << steady_ingest
         << ",\"steady_solve_seconds\":" << steady_solve
         << ",\"ingest_speedup_vs_serial\":" << speedup
         << ",\"latency\":" << result.latency.ToJson() << "}";
  }

  // The acceptance comparison: at >= 4 ingest threads the data plane
  // should no longer be the bottleneck relative to the solve.
  const ConfigResult& four = results[2];
  const double four_ingest =
      SteadyMeanOf(four, &casc::BatchMetrics::ingest_seconds);
  const double four_solve =
      SteadyMeanOf(four, &casc::BatchMetrics::seconds);
  json << "],\"steady_ingest_at_4_threads\":" << four_ingest
       << ",\"steady_solve_at_4_threads\":" << four_solve
       << ",\"ingest_le_solve_at_4_threads\":"
       << (four_ingest <= four_solve ? 1 : 0) << "}";
  std::printf("steady ingest at 4 threads: %.2fms/batch vs solve "
              "%.2fms/batch\n",
              four_ingest * 1e3, four_solve * 1e3);

  const std::string path = flags.GetString("json");
  if (!path.empty()) {
    std::ofstream out(path);
    out << json.str() << "\n";
    std::printf("wrote %s\n", path.c_str());
  }
  return 0;
}

// ---------------------------------------------------------------------------
// --mode pr10: cross-batch warm-start solve on a carry-over-heavy trace
// ---------------------------------------------------------------------------

/// The pr10 trace is a carry-over-heavy regime built around a
/// feasibility gap: tasks demand 5-of-64 skills while workers carry 2,
/// so a steady share of tasks stand unstaffable for many batches amid a
/// large idle candidate pool (workers never leave while idle, 40-unit
/// deadlines keep standing tasks alive). A cold solve re-runs the
/// O(candidates^2) group seeding for every standing task every batch;
/// the warm start re-seeds only the dirty frontier plus the bounded-
/// staleness retry slice, which is where the steady-state win comes
/// from. The solver is the GT game under the multiskill objective — this
/// mode measures the solve, not the data plane.
casc::Trace MakePr10Trace(double horizon, double worker_rate,
                          double task_rate, uint64_t seed) {
  casc::TraceConfig config;
  config.horizon = horizon;
  config.worker_rate = worker_rate;
  config.task_rate = task_rate;
  config.rush_windows.push_back({0.0, horizon * 0.15, 4.0});
  config.worker.radius_min = 0.07;
  config.worker.radius_max = 0.12;
  config.worker.speed_min = 0.05;
  config.worker.speed_max = 0.10;
  config.task.remaining_time = 40.0;
  config.task.capacity = 4;
  config.worker.num_skills = 64;
  config.worker.skills_per_worker = 2;
  config.task.num_skills = 64;
  config.task.skills_per_task = 5;
  casc::Rng rng(seed);
  return casc::GenerateTrace(config, &rng);
}

ConfigResult RunPr10Config(const std::string& name, bool warm,
                           bool pipeline, int threads, int ingest_threads,
                           const casc::EventStream& stream,
                           const casc::CooperationMatrix& coop, int budget) {
  casc::DispatchConfig config;
  config.sharded.shards_per_side = 2;
  config.sharded.num_threads = threads;
  config.min_group_size = 3;
  config.batch_interval = 1.0;
  config.task_duration = 2.0;
  config.max_tasks_per_batch = budget;
  config.ingest_threads = ingest_threads;
  config.enable_pipeline = pipeline;
  config.enable_warm_start = warm;
  config.objective = "multiskill";
  casc::DispatchService service(config, &coop, [] {
    return std::make_unique<casc::GtAssigner>();
  });

  ConfigResult result;
  result.name = name;
  result.pipeline = pipeline;
  casc::Stopwatch watch;
  result.summary = service.Run(stream);
  result.run_seconds = watch.ElapsedSeconds();
  result.latency = service.run_latency();
  result.service = service.batch_metrics();
  return result;
}

/// CheckIdentical plus the solver convergence telemetry: the warm family
/// (any thread count, either pipeline mode) must agree batch for batch.
void CheckIdenticalSolve(const ConfigResult& expected,
                         const ConfigResult& actual) {
  CheckIdentical(expected, actual);
  for (size_t i = 0; i < expected.summary.batches.size(); ++i) {
    const casc::BatchMetrics& e = expected.summary.batches[i];
    const casc::BatchMetrics& a = actual.summary.batches[i];
    CASC_CHECK_EQ(e.gt_rounds, a.gt_rounds)
        << expected.name << " vs " << actual.name << " batch " << i;
    CASC_CHECK_EQ(e.solve_moves, a.solve_moves)
        << expected.name << " vs " << actual.name << " batch " << i;
    CASC_CHECK_EQ(e.dirty_workers, a.dirty_workers)
        << expected.name << " vs " << actual.name << " batch " << i;
    CASC_CHECK_EQ(e.warm_started, a.warm_started)
        << expected.name << " vs " << actual.name << " batch " << i;
  }
}

/// Steady-state mean of one ServiceMetrics field, warmup skipped like
/// SteadyMeanOf.
template <typename T>
double SteadyServiceMean(const ConfigResult& result,
                         T casc::ServiceMetrics::*field) {
  const size_t warmup = result.service.size() / 4;
  if (result.service.size() <= warmup) return 0.0;
  double sum = 0.0;
  for (size_t i = warmup; i < result.service.size(); ++i) {
    sum += static_cast<double>(result.service[i].*field);
  }
  return sum / static_cast<double>(result.service.size() - warmup);
}

int RunPr10(const casc::FlagParser& flags) {
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt64("seed"));
  const int budget = static_cast<int>(flags.GetInt64("budget"));
  const int ingest_threads =
      static_cast<int>(flags.GetInt64("ingest_threads"));
  // The pr10 regime is a tuned geometry (feasibility gap + standing
  // pool); the generic rate flags belong to the pr6/pr9 rush trace, so
  // this mode pins its own arrival rates.
  constexpr double kPr10WorkerRate = 60.0;
  constexpr double kPr10TaskRate = 25.0;
  const casc::Trace trace =
      MakePr10Trace(flags.GetDouble("horizon"), kPr10WorkerRate,
                    kPr10TaskRate, seed);
  const casc::CooperationMatrix coop = casc::CooperationMatrix::Procedural(
      static_cast<int>(trace.workers.size()), seed ^ 0x9E3779B9u);
  const casc::EventStream stream(trace.workers, trace.tasks);
  std::printf("pr10 trace: %zu workers, %zu tasks over %.0f intervals\n",
              trace.workers.size(), trace.tasks.size(),
              flags.GetDouble("horizon"));
  std::fflush(stdout);

  // Soak: re-run the warm pipelined GT config until the wall-clock
  // budget is spent, checking solver-level bit-identity across
  // iterations. This is the TSan target for the warm solve racing the
  // pipelined ingest — the pr6 soak uses the TPG solver and never
  // consumes a SolveDelta.
  if (flags.GetInt64("soak_seconds") > 0) {
    const double soak_budget =
        static_cast<double>(flags.GetInt64("soak_seconds"));
    casc::Stopwatch soak_watch;
    ConfigResult first;
    int iterations = 0;
    while (iterations == 0 || soak_watch.ElapsedSeconds() < soak_budget) {
      ConfigResult current =
          RunPr10Config("warm-soak", /*warm=*/true, /*pipeline=*/true,
                        /*threads=*/4, ingest_threads, stream, coop, budget);
      if (iterations == 0) {
        first = std::move(current);
      } else {
        CheckIdenticalSolve(first, current);
      }
      ++iterations;
      std::printf("warm soak iteration %d ok (%.1fs elapsed)\n", iterations,
                  soak_watch.ElapsedSeconds());
      std::fflush(stdout);
    }
    std::printf("warm soak passed: %d identical pipelined runs\n",
                iterations);
    return 0;
  }

  struct Pr10Config {
    const char* name;
    bool warm;
    bool pipeline;
    int threads;
  };
  const Pr10Config configs[] = {
      {"cold-seq-t4", false, false, 4}, {"warm-seq-t4", true, false, 4},
      {"warm-seq-t1", true, false, 1},  {"warm-seq-t2", true, false, 2},
      {"warm-seq-t8", true, false, 8},  {"warm-pipelined-t4", true, true, 4},
  };

  std::vector<ConfigResult> results;
  size_t warm_reference = 0;  // 0 = none yet (index 0 is the cold run)
  for (const Pr10Config& config : configs) {
    std::printf("running %s...\n", config.name);
    std::fflush(stdout);
    results.push_back(RunPr10Config(config.name, config.warm,
                                    config.pipeline, config.threads,
                                    ingest_threads, stream, coop, budget));
    if (config.warm) {
      // Warm runs are bit-identical across thread counts and pipeline
      // modes — the frontier, rounds and moves included.
      if (warm_reference == 0) {
        warm_reference = results.size() - 1;
      } else {
        CheckIdenticalSolve(results[warm_reference], results.back());
      }
    }
  }

  const ConfigResult& cold = results[0];
  const ConfigResult& warm = results[1];
  // The warm start attacks the phase-1 game solve (init + best-response
  // rounds); partitioning and reconciliation are the same either way, so
  // the headline number is the steady-state phase-1 time.
  const double cold_steady =
      SteadyServiceMean(cold, &casc::ServiceMetrics::phase1_seconds);
  const double warm_steady =
      SteadyServiceMean(warm, &casc::ServiceMetrics::phase1_seconds);
  const double speedup = warm_steady > 0.0 ? cold_steady / warm_steady : 0.0;
  // Warm and cold reach different equilibria of the same game; a large
  // quality gap would mean the warm path converged somewhere degenerate.
  CASC_CHECK_GT(warm.summary.TotalScore(),
                0.8 * cold.summary.TotalScore())
      << "warm solution quality collapsed vs cold";

  std::ostringstream json;
  json.precision(std::numeric_limits<double>::max_digits10);
  json << "{\"bench\":\"streaming_pipeline_pr10\",\"seed\":" << seed
       << ",\"budget\":" << budget << ",\"workers\":" << trace.workers.size()
       << ",\"tasks\":" << trace.tasks.size()
       << ",\"batches\":" << cold.summary.batches.size() << ",\"configs\":[";

  std::printf("  %-18s %9s %10s %8s %8s %8s %8s %10s %8s\n", "config",
              "score", "steady/b", "rounds50", "rounds99", "dirty", "warm#",
              "evals/b", "total");
  for (size_t i = 0; i < results.size(); ++i) {
    const ConfigResult& result = results[i];
    const Pr10Config& config = configs[i];
    const double steady =
        SteadyServiceMean(result, &casc::ServiceMetrics::phase1_seconds);
    const double dirty =
        SteadyServiceMean(result, &casc::ServiceMetrics::dirty_fraction);
    int warm_batches = 0;
    for (const casc::BatchMetrics& batch : result.summary.batches) {
      if (batch.warm_started) ++warm_batches;
    }
    const double evals =
        SteadyServiceMean(result, &casc::ServiceMetrics::prune_evals);
    std::printf(
        "  %-18s %9.1f %8.2fms %8.1f %8.1f %7.1f%% %8d %10.0f %7.2fs\n",
        result.name.c_str(), result.summary.TotalScore(), steady * 1e3,
        result.latency.solve_rounds_p50, result.latency.solve_rounds_p99,
        dirty * 100.0, warm_batches, evals, result.run_seconds);

    if (i > 0) json << ",";
    json << "{\"name\":\"" << result.name
         << "\",\"warm\":" << (config.warm ? 1 : 0)
         << ",\"pipeline\":" << (config.pipeline ? 1 : 0)
         << ",\"threads\":" << config.threads
         << ",\"score\":" << result.summary.TotalScore()
         << ",\"run_seconds\":" << result.run_seconds
         << ",\"steady_solve_seconds\":" << steady
         << ",\"solve_seconds\":"
         << TotalOf(result, &casc::BatchMetrics::seconds)
         << ",\"steady_batch_solve_seconds\":"
         << SteadyMeanOf(result, &casc::BatchMetrics::seconds)
         << ",\"steady_dirty_fraction\":" << dirty
         << ",\"steady_prune_evals\":" << evals
         << ",\"warm_batches\":" << warm_batches
         << ",\"latency\":" << result.latency.ToJson() << "}";
  }
  json << "],\"steady_solve_cold\":" << cold_steady
       << ",\"steady_solve_warm\":" << warm_steady
       << ",\"warm_speedup\":" << speedup
       << ",\"meets_2x\":" << (speedup >= 2.0 ? 1 : 0) << "}";
  std::printf("steady-state solve: cold %.2fms/batch vs warm %.2fms/batch "
              "(%.2fx)\n",
              cold_steady * 1e3, warm_steady * 1e3, speedup);

  const std::string path = flags.GetString("json");
  if (!path.empty()) {
    std::ofstream out(path);
    out << json.str() << "\n";
    std::printf("wrote %s\n", path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  casc::FlagParser flags;
  flags.DefineDouble("horizon", 120.0, "trace length in batch intervals");
  flags.DefineDouble("worker_rate", 100.0, "base worker arrivals/unit");
  flags.DefineDouble("task_rate", 8.0, "base task creations/unit");
  flags.DefineInt64("budget", 140, "admission budget per batch");
  flags.DefineInt64("threads", 4, "threads for the sharded engine");
  flags.DefineInt64("ingest_threads", 0,
                    "streaming ingest fan-out width for pr6/soak/pr10 "
                    "(0 = automatic)");
  flags.DefineInt64("seed", 42, "trace seed");
  flags.DefineString("json", "BENCH_PR6.json", "JSON output path");
  flags.DefineInt64("soak_seconds", 0,
                    "soak mode: re-run the pipelined config this long");
  flags.DefineString("mode", "pr6",
                     "pr6: sequential vs pipelined loop; pr9: "
                     "parallel-ingest thread-scaling sweep; pr10: warm vs "
                     "cold cross-batch solve");
  flags.ParseOrExit(argc, argv);
  // The config flags are the point of this benchmark: don't let ambient
  // switches silently change the paths being measured.
  ::unsetenv("CASC_STREAM_AUDIT");
  ::unsetenv("CASC_NO_WARM_START");
  if (flags.GetString("mode") == "pr9") return RunPr9(flags);
  if (flags.GetString("mode") == "pr10") return RunPr10(flags);

  const uint64_t seed = static_cast<uint64_t>(flags.GetInt64("seed"));
  const int threads = static_cast<int>(flags.GetInt64("threads"));
  const int budget = static_cast<int>(flags.GetInt64("budget"));
  const int ingest_threads =
      static_cast<int>(flags.GetInt64("ingest_threads"));
  const casc::Trace trace =
      MakeRushTrace(flags.GetDouble("horizon"),
                    flags.GetDouble("worker_rate"),
                    flags.GetDouble("task_rate"), seed);
  const casc::CooperationMatrix coop = casc::CooperationMatrix::Procedural(
      static_cast<int>(trace.workers.size()), seed ^ 0x9E3779B9u);
  const casc::EventStream stream(trace.workers, trace.tasks);
  std::printf("trace: %zu workers, %zu tasks over %.0f intervals\n",
              trace.workers.size(), trace.tasks.size(),
              flags.GetDouble("horizon"));

  if (flags.GetInt64("soak_seconds") > 0) {
    const double soak_budget =
        static_cast<double>(flags.GetInt64("soak_seconds"));
    casc::Stopwatch soak_watch;
    ConfigResult first;
    int iterations = 0;
    while (iterations == 0 || soak_watch.ElapsedSeconds() < soak_budget) {
      ConfigResult current = RunConfig("soak", /*pipeline=*/true,
                                       ingest_threads, stream, coop, threads,
                                       budget);
      if (iterations == 0) {
        first = std::move(current);
      } else {
        CheckIdentical(first, current);
      }
      ++iterations;
      std::printf("soak iteration %d ok (%.1fs elapsed)\n", iterations,
                  soak_watch.ElapsedSeconds());
      std::fflush(stdout);
    }
    std::printf("soak passed: %d identical pipelined runs\n", iterations);
    return 0;
  }

  struct Mode {
    const char* name;
    bool pipeline;
  };
  const Mode modes[] = {{"sequential", false}, {"pipelined", true}};

  std::vector<ConfigResult> results;
  for (const Mode& mode : modes) {
    std::printf("running %s...\n", mode.name);
    std::fflush(stdout);
    results.push_back(RunConfig(mode.name, mode.pipeline, ingest_threads,
                                stream, coop, threads, budget));
    if (results.size() > 1) CheckIdentical(results.front(), results.back());
  }

  std::ostringstream json;
  json.precision(std::numeric_limits<double>::max_digits10);
  json << "{\"bench\":\"streaming_pipeline\",\"seed\":" << seed
       << ",\"threads\":" << threads << ",\"budget\":" << budget
       << ",\"workers\":" << trace.workers.size()
       << ",\"tasks\":" << trace.tasks.size() << ",\"configs\":[";

  std::printf("  %-12s %9s %9s %9s %9s %9s %9s\n", "config", "score",
              "steady/b", "p50", "p99", "overlap", "total");
  for (size_t i = 0; i < results.size(); ++i) {
    const ConfigResult& result = results[i];
    const double steady = SteadyBuildSolveMean(result);
    const double overlapped = OverlappedIngestSeconds(result);
    std::printf("  %-12s %9.2f %8.2fms %8.2fms %8.2fms %8.1fms %8.2fs\n",
                result.name.c_str(), result.summary.TotalScore(),
                steady * 1e3, result.latency.p50_seconds * 1e3,
                result.latency.p99_seconds * 1e3, overlapped * 1e3,
                result.run_seconds);

    if (i > 0) json << ",";
    json << "{\"name\":\"" << result.name
         << "\",\"pipeline\":" << (result.pipeline ? 1 : 0)
         << ",\"score\":" << result.summary.TotalScore()
         << ",\"batches\":" << result.summary.batches.size()
         << ",\"run_seconds\":" << result.run_seconds
         << ",\"steady_build_solve_seconds\":" << steady
         << ",\"ingest_seconds\":"
         << TotalOf(result, &casc::BatchMetrics::ingest_seconds)
         << ",\"index_build_seconds\":"
         << TotalOf(result, &casc::BatchMetrics::index_build_seconds)
         << ",\"solve_seconds\":"
         << TotalOf(result, &casc::BatchMetrics::seconds)
         << ",\"overlapped_ingest_seconds\":" << overlapped
         << ",\"latency\":" << result.latency.ToJson() << "}";
  }
  // On a single-core host the two-slot pipeline interleaves instead of
  // overlapping (the ingest thread steals cycles from the solve), so the
  // p50 ratio can dip below 1 there; with >= 2 cores the pipeline hides
  // the ingest.
  const double pipelined_p50 = results[1].latency.p50_seconds;
  const double pipeline_speedup =
      pipelined_p50 > 0.0 ? results[0].latency.p50_seconds / pipelined_p50
                          : 0.0;
  std::printf("p50 batch latency, sequential vs pipelined: %.2fx\n",
              pipeline_speedup);
  json << "],\"pipeline_p50_speedup\":" << pipeline_speedup << "}";

  const std::string path = flags.GetString("json");
  if (!path.empty()) {
    std::ofstream out(path);
    out << json.str() << "\n";
    std::printf("wrote %s\n", path.c_str());
  }
  return 0;
}
