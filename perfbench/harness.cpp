// Canonical dispatch benchmark harness. Runs one workload in this process
// through DispatchService's public API (RunBatch for batch workloads, Run
// for streams), checks every output, and prints one JSON record of raw
// measurements as the last line of stdout. perfbench/run.py builds this
// binary and turns the record into the benchmark's metrics.
//
//   casc_perfbench --workload table2-m5k --seed 1 --seconds 10 --trace 0
//
// A run is: input generation (untimed), set-up repeated several times
// (timed), a check of every distinct batch, then timed passes that repeat
// every distinct batch in rounds. Batch workloads check during their first
// timed round (outside the timed calls); streams run one checked Run()
// first. --trace 0 times one untraced pass for `seconds`. --trace 1 splits
// `seconds` between an untraced pass and a traced pass (a decorator shard
// solver timing each solve and tile prepare), runs the deep checks and
// reports per-layer metrics.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "algo/gt_assigner.h"
#include "algo/tpg_assigner.h"
#include "bench_util/settings.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "gen/synthetic.h"
#include "gen/trace.h"
#include "layer_probes.h"
#include "model/cooperation_matrix.h"
#include "model/objective.h"
#include "service/dispatch_service.h"
#include "sim/event_stream.h"

extern char** environ;

namespace perfbench {
namespace {

// Set-up is repeated at least kMinSetupRepeats times and until
// kMinSetupSeconds have passed (at most kMaxSetupRepeats), so a set-up of
// a millisecond still reports a steady median.
constexpr int kMinSetupRepeats = 7;
constexpr int kMaxSetupRepeats = 200;
constexpr double kMinSetupSeconds = 0.25;
constexpr uint64_t kCoopSeedSalt = 0x9E3779B9u;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct BatchInput {
  std::vector<casc::Worker> workers;
  std::vector<casc::Task> tasks;
  double now = 0.0;
};

struct Workload {
  std::string name;
  bool stream = false;
  casc::DispatchConfig config;
  casc::AssignerFactory factory;
  bool gt_solver = false;
  /// Rounds over the distinct batches an untraced run times at least.
  int min_rounds = 1;
  int coop_workers = 0;  ///< size of the global cooperation matrix
  uint64_t coop_seed = 0;
  std::vector<BatchInput> batches;        ///< batch workloads
  std::vector<casc::Worker> stream_workers;  ///< stream workloads
  std::vector<casc::Task> stream_tasks;
};

/// Table II defaults at m = 5K (UNIF) or its SKEW twin: `num_batches`
/// fresh batches of workers and tasks, GT+ALL per shard.
Workload MakeTable2(std::string name, casc::LocationDistribution distribution,
                    int shards_per_side, int threads, int num_batches,
                    int min_rounds, uint64_t seed) {
  casc::ExperimentSettings settings;
  settings.num_workers = 5000;
  settings.distribution = distribution;

  Workload workload;
  workload.name = std::move(name);
  workload.config.sharded.shards_per_side = shards_per_side;
  workload.config.sharded.num_threads = threads;
  workload.min_rounds = min_rounds;
  workload.config.min_group_size = settings.min_group_size;
  casc::GtOptions gt;
  gt.use_tsi = true;
  gt.use_lub = true;
  gt.epsilon = settings.epsilon;
  workload.factory = [gt] { return std::make_unique<casc::GtAssigner>(gt); };
  workload.gt_solver = true;
  workload.coop_workers = settings.num_workers;
  workload.coop_seed = seed ^ kCoopSeedSalt;

  const casc::WorkerGenConfig worker_config = settings.MakeWorkerConfig();
  const casc::TaskGenConfig task_config = settings.MakeTaskConfig();
  casc::Rng rng(seed);
  for (int round = 0; round < num_batches; ++round) {
    BatchInput input;
    input.now = static_cast<double>(round);
    for (int i = 0; i < settings.num_workers; ++i) {
      input.workers.push_back(
          casc::GenerateWorker(i, worker_config, input.now, &rng));
    }
    for (int j = 0; j < settings.num_tasks; ++j) {
      input.tasks.push_back(
          casc::GenerateTask(j, task_config, input.now, &rng));
    }
    workload.batches.push_back(std::move(input));
  }
  return workload;
}

/// The 1M-worker rush-hour stream of bench_streaming_pipeline's
/// parallel-ingest mode at a quarter of its worker rate (about 250K
/// workers): a 4x opening rush floods the pool, small working radii keep
/// valid pairs sparse, TPG solves at S = 1.
Workload MakeRush(uint64_t seed) {
  casc::TraceConfig trace;
  trace.horizon = 40.0;
  trace.worker_rate = 4375.0;
  trace.task_rate = 40.0;
  trace.rush_windows.push_back({0.0, trace.horizon * 0.15, 4.0});
  trace.worker.radius_min = 0.008;
  trace.worker.radius_max = 0.015;
  trace.worker.speed_min = 0.05;
  trace.worker.speed_max = 0.10;
  trace.task.remaining_time = 12.0;
  trace.task.capacity = 4;

  Workload workload;
  workload.name = "rush-250k";
  workload.stream = true;
  workload.min_rounds = 3;
  workload.config.sharded.shards_per_side = 1;
  workload.config.sharded.num_threads = 3;
  workload.config.task_duration = 2.0;
  workload.config.max_tasks_per_batch = 200;
  workload.factory = [] { return std::make_unique<casc::TpgAssigner>(); };
  casc::Rng rng(seed);
  casc::TraceCursor cursor(trace, &rng);
  workload.stream_workers.reserve(static_cast<size_t>(cursor.num_workers()));
  casc::Worker worker;
  while (cursor.NextWorker(&worker)) workload.stream_workers.push_back(worker);
  casc::Task task;
  while (cursor.NextTask(&task)) workload.stream_tasks.push_back(task);
  workload.coop_workers = static_cast<int>(workload.stream_workers.size());
  workload.coop_seed = seed ^ kCoopSeedSalt;
  return workload;
}

/// The feasibility-gap stream: tasks demand 5 of 64 skills, workers hold
/// 2, so standing tasks and a large idle pool persist; multiskill GT at
/// S = 2 with the cross-batch warm start.
Workload MakeGapWarm(uint64_t seed) {
  casc::TraceConfig trace;
  trace.horizon = 60.0;
  trace.worker_rate = 60.0;
  trace.task_rate = 25.0;
  trace.rush_windows.push_back({0.0, trace.horizon * 0.15, 4.0});
  trace.worker.radius_min = 0.07;
  trace.worker.radius_max = 0.12;
  trace.worker.speed_min = 0.05;
  trace.worker.speed_max = 0.10;
  trace.task.remaining_time = 40.0;
  trace.task.capacity = 4;
  trace.worker.num_skills = 16;
  trace.worker.skills_per_worker = 2;
  trace.task.num_skills = 16;
  trace.task.skills_per_task = 3;

  Workload workload;
  workload.name = "gap-warm";
  workload.stream = true;
  workload.min_rounds = 3;
  workload.config.sharded.shards_per_side = 2;
  workload.config.sharded.num_threads = 3;
  workload.config.task_duration = 2.0;
  workload.config.max_tasks_per_batch = 140;
  workload.config.objective = "multiskill";
  workload.factory = [] { return std::make_unique<casc::GtAssigner>(); };
  workload.gt_solver = true;
  casc::Rng rng(seed);
  casc::Trace generated = casc::GenerateTrace(trace, &rng);
  workload.stream_workers = std::move(generated.workers);
  workload.stream_tasks = std::move(generated.tasks);
  workload.coop_workers = static_cast<int>(workload.stream_workers.size());
  workload.coop_seed = seed ^ kCoopSeedSalt;
  return workload;
}

std::optional<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "table2-m5k") {
    return MakeTable2(name, casc::LocationDistribution::kUniform, 1, 1, 8, 3,
                      seed);
  }
  if (name == "skew-s4") {
    return MakeTable2(name, casc::LocationDistribution::kSkewed, 4, 4, 8, 3,
                      seed);
  }
  if (name == "rush-250k") return MakeRush(seed);
  if (name == "gap-warm") return MakeGapWarm(seed);
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Set-up, passes and checks
// ---------------------------------------------------------------------------

/// The system under test: the global cooperation matrix, the event stream
/// (stream workloads) and the service. Heap-held so the service's pointer
/// to the matrix stays valid.
struct System {
  casc::CooperationMatrix coop;
  std::optional<casc::EventStream> stream;
  std::unique_ptr<casc::DispatchService> service;
};

/// Raw measurements of one timed pass: `rounds` repeats of every distinct
/// batch (a batch input, or a batch of the stream).
struct PassResult {
  int rounds = 0;
  /// Per distinct batch, the fastest critical path over its repeats.
  /// Repeats solve the same input to the same output, so the minimum
  /// strips slowdowns other processes on the host cause.
  std::vector<double> best_ms;
  /// Workers of one round, and the wall time of one round made of the
  /// fastest repeats: the summed per-batch minima (batch workloads) or the
  /// fastest Run() (streams).
  double round_workers = 0.0;
  double best_round_seconds = 0.0;
  double workers = 0.0;       ///< workers solved over all rounds
  double wall_seconds = 0.0;  ///< RunBatch / Run wall time, all rounds
  std::vector<casc::ServiceMetrics> service;  ///< per batch, all rounds
  std::vector<casc::BatchMetrics> batches;    ///< per batch, all rounds
};

/// Builds the system once, timing it. Stream inputs are copied first
/// (untimed) so every repeat constructs the EventStream from scratch.
/// Batch workloads include one warm-up RunBatch, checked into `ledger`.
std::unique_ptr<System> SetUp(const Workload& workload, Ledger* ledger,
                              double* seconds) {
  std::vector<casc::Worker> workers;
  std::vector<casc::Task> tasks;
  if (workload.stream) {
    workers = workload.stream_workers;
    tasks = workload.stream_tasks;
  }
  BatchInput warmup;
  if (!workload.stream) warmup = workload.batches.front();

  casc::Stopwatch watch;
  auto system = std::make_unique<System>();
  system->coop = casc::CooperationMatrix::Procedural(workload.coop_workers,
                                                     workload.coop_seed);
  if (workload.stream) {
    system->stream.emplace(std::move(workers), std::move(tasks));
  }
  system->service = std::make_unique<casc::DispatchService>(
      workload.config, &system->coop, workload.factory);
  std::optional<casc::DispatchResult> result;
  if (!workload.stream) {
    result = system->service->RunBatch(std::move(warmup.workers),
                                       std::move(warmup.tasks), warmup.now);
  }
  *seconds = watch.ElapsedSeconds();
  if (result.has_value()) {
    const casc::Status valid = result->assignment.Validate(result->instance);
    ledger->Record(valid.ok(), "warm-up batch: " + valid.message());
  }
  return system;
}

/// Runs the stream once with `checker` behind every batch; returns the
/// reference per-batch scores the timed passes must reproduce.
std::vector<double> CheckPass(const Workload& workload, System* system,
                              BatchChecker* checker, Ledger* ledger) {
  CheckedSolver solver(workload.config.sharded, workload.factory, checker);
  system->service->set_batch_solver(&solver);
  const casc::RunSummary summary = system->service->Run(*system->stream);
  system->service->set_batch_solver(nullptr);
  std::vector<double> reference;
  for (const casc::BatchMetrics& batch : summary.batches) {
    reference.push_back(batch.score);
  }
  ledger->Record(reference == checker->totals().scores,
                 "check pass: checked batches disagree with the summary");
  return reference;
}

/// Times rounds over the distinct batches until `seconds` have passed and
/// at least `min_rounds` ran. Every batch's score must equal its
/// `reference` entry. With a non-null `checker` (batch workloads, whose
/// first round doubles as the check pass) the first round runs the checks
/// outside the timed calls and fills `reference`.
PassResult TimedPass(const Workload& workload, System* system,
                     double seconds, int min_rounds, BatchChecker* checker,
                     std::vector<double>* reference, const char* label,
                     Ledger* ledger) {
  PassResult pass;
  casc::DispatchService& service = *system->service;
  const std::string prefix = std::string(label) + " round ";
  casc::Stopwatch elapsed;
  for (; pass.rounds < min_rounds || elapsed.ElapsedSeconds() < seconds;
       ++pass.rounds) {
    const std::string round = prefix + std::to_string(pass.rounds);
    if (workload.stream) {
      casc::Stopwatch watch;
      const casc::RunSummary summary = service.Run(*system->stream);
      const double run_seconds = watch.ElapsedSeconds();
      const double workers =
          static_cast<double>(system->stream->num_workers());
      pass.wall_seconds += run_seconds;
      pass.workers += workers;
      pass.round_workers = workers;
      if (pass.rounds == 0 || run_seconds < pass.best_round_seconds) {
        pass.best_round_seconds = run_seconds;
      }
      if (summary.batches.size() != reference->size()) {
        ledger->Record(false, round + ": batch count differs");
        continue;
      }
      pass.best_ms.resize(reference->size(),
                          std::numeric_limits<double>::infinity());
      const auto& metrics = service.batch_metrics();
      for (size_t i = 0; i < summary.batches.size(); ++i) {
        ledger->Record(summary.batches[i].score == (*reference)[i],
                       round + " batch " + std::to_string(i) +
                           ": score differs from the check pass");
        pass.best_ms[i] =
            std::min(pass.best_ms[i], metrics[i].batch_seconds * 1e3);
        pass.service.push_back(metrics[i]);
        pass.batches.push_back(summary.batches[i]);
      }
      continue;
    }

    const size_t count = workload.batches.size();
    pass.best_ms.resize(count, std::numeric_limits<double>::infinity());
    for (size_t i = 0; i < count; ++i) {
      const BatchInput& input = workload.batches[i];
      std::vector<casc::Worker> workers = input.workers;
      std::vector<casc::Task> tasks = input.tasks;
      casc::Stopwatch watch;
      const casc::DispatchResult result =
          service.RunBatch(std::move(workers), std::move(tasks), input.now);
      const double batch_seconds = watch.ElapsedSeconds();
      pass.best_ms[i] = std::min(pass.best_ms[i], batch_seconds * 1e3);
      pass.wall_seconds += batch_seconds;
      pass.workers += static_cast<double>(result.instance.num_workers());
      pass.service.push_back(result.metrics);
      pass.batches.push_back(result.batch);
      if (checker != nullptr && pass.rounds == 0) {
        checker->Check(result.instance, result.assignment, nullptr);
        reference->push_back(checker->totals().scores.back());
        continue;
      }
      const casc::Status valid = result.assignment.Validate(result.instance);
      const bool same =
          casc::TotalScore(result.instance, result.assignment) ==
          (*reference)[i];
      ledger->Record(valid.ok() && same,
                     round + " batch " + std::to_string(i) +
                         (valid.ok() ? ": score differs from the first round"
                                     : ": " + valid.message()));
    }
  }
  if (!workload.stream) {
    for (const BatchInput& input : workload.batches) {
      pass.round_workers += static_cast<double>(input.workers.size());
    }
    for (const double ms : pass.best_ms) pass.best_round_seconds += ms / 1e3;
  }
  return pass;
}

// ---------------------------------------------------------------------------
// Per-layer metrics
// ---------------------------------------------------------------------------

using Layers = std::map<std::string, double>;

template <typename Fn>
double MeanOver(const std::vector<casc::ServiceMetrics>& metrics, Fn&& fn) {
  if (metrics.empty()) return 0.0;
  double sum = 0.0;
  for (const casc::ServiceMetrics& m : metrics) sum += fn(m);
  return sum / static_cast<double>(metrics.size());
}

/// Per-batch critical-path seconds the recorded spans cover: ingest when
/// it was not overlapped, the valid-pair build and the solve.
double CoveredSeconds(const casc::ServiceMetrics& metrics,
                      const casc::BatchMetrics& batch) {
  return (metrics.pipelined ? 0.0 : metrics.ingest_seconds) +
         metrics.index_build_seconds + batch.seconds;
}

Layers ComputeLayers(const PassResult& untraced, const PassResult& traced,
                     const SolveProbe::Totals& probe,
                     const CheckTotals& checks) {
  Layers layers;
  const auto& service = traced.service;
  const double batches = static_cast<double>(std::max<size_t>(
      service.size(), 1));
  const double checked = static_cast<double>(std::max<size_t>(
      checks.scores.size(), 1));

  layers["algo.solve_ms"] = probe.solve_seconds * 1e3 / batches;
  layers["algo.tpg_ms"] = checks.tpg_seconds * 1e3 / checked;
  layers["algo.gt_rounds"] =
      MeanOver(service, [](const auto& m) { return m.solve_rounds; });
  layers["algo.solve_moves"] = MeanOver(
      service, [](const auto& m) { return static_cast<double>(m.solve_moves); });
  layers["algo.prune_evals"] = MeanOver(
      service, [](const auto& m) { return static_cast<double>(m.prune_evals); });
  double evals = 0.0;
  double skips = 0.0;
  for (const auto& m : service) {
    evals += static_cast<double>(m.prune_evals);
    skips += static_cast<double>(m.prune_skips);
  }
  layers["algo.prune_skip_frac"] =
      evals + skips > 0.0 ? skips / (evals + skips) : 0.0;
  layers["algo.nash_certified"] = static_cast<double>(checks.nash_checked);
  layers["algo.upper_ms"] = checks.upper_seconds * 1e3 / checked;
  layers["algo.feasibility_rejects"] = MeanOver(service, [](const auto& m) {
    return static_cast<double>(m.feasibility_rejects);
  });

  layers["warm.dirty_frac"] =
      MeanOver(service, [](const auto& m) { return m.dirty_fraction; });
  layers["warm.batches_frac"] =
      MeanOver(service, [](const auto& m) { return m.warm_started ? 1.0 : 0.0; });

  layers["kernel.tile_build_ms"] = probe.tile_seconds * 1e3 / batches;
  layers["kernel.tile_builds"] =
      static_cast<double>(probe.tile_builds) / batches;

  layers["service.partition_ms"] =
      MeanOver(service, [](const auto& m) { return m.partition_seconds * 1e3; });
  layers["service.phase1_ms"] =
      MeanOver(service, [](const auto& m) { return m.phase1_seconds * 1e3; });
  layers["service.phase2_ms"] =
      MeanOver(service, [](const auto& m) { return m.phase2_seconds * 1e3; });
  layers["service.shard_imbalance"] = MeanOver(service, [](const auto& m) {
    if (m.shard_seconds.empty()) return 1.0;
    double sum = 0.0;
    double worst = 0.0;
    for (const double s : m.shard_seconds) {
      sum += s;
      worst = std::max(worst, s);
    }
    const double mean = sum / static_cast<double>(m.shard_seconds.size());
    return mean > 0.0 ? worst / mean : 1.0;
  });
  double boundary = 0.0;
  double workers = 0.0;
  for (const auto& m : service) {
    boundary += m.boundary_workers;
    workers += m.boundary_workers + m.interior_workers;
  }
  layers["service.boundary_frac"] = workers > 0.0 ? boundary / workers : 0.0;
  layers["service.polish_moves"] =
      MeanOver(service, [](const auto& m) { return m.polish_moves; });
  layers["service.pass_insert_ms"] =
      checks.pass_insert_seconds * 1e3 / checked;
  layers["service.pass_seed_ms"] = checks.pass_seed_seconds * 1e3 / checked;
  layers["service.pass_polish_ms"] =
      checks.pass_polish_seconds * 1e3 / checked;

  layers["model.index_build_ms"] = MeanOver(
      service, [](const auto& m) { return m.index_build_seconds * 1e3; });
  // Streaming-plane spans are reported as shares of the batch critical
  // path: batch workloads have no ingest, so a time would read a constant
  // zero there.
  double critical = 0.0;
  double csr_emit = 0.0;
  double ingest = 0.0;
  double splice = 0.0;
  double fresh = 0.0;
  double spatial = 0.0;
  double overlapped = 0.0;
  for (const auto& m : service) {
    critical += m.batch_seconds;
    csr_emit += m.csr_emit_seconds;
    ingest += m.ingest_seconds;
    splice += m.ingest_splice_seconds;
    fresh += m.ingest_fresh_rows_seconds;
    spatial += m.ingest_spatial_seconds;
    if (m.pipelined) overlapped += m.ingest_seconds;
  }
  const auto share = [critical](double part) {
    return critical > 0.0 ? part / critical : 0.0;
  };
  layers["model.csr_emit_frac"] = share(csr_emit);
  double pairs = 0.0;
  double pool = 0.0;
  for (const casc::BatchMetrics& batch : traced.batches) {
    pairs += static_cast<double>(batch.valid_pairs);
    pool += batch.num_workers;
  }
  layers["model.valid_pairs"] = pairs / batches;

  layers["sim.ingest_frac"] = share(ingest);
  layers["sim.ingest_splice_frac"] = share(splice);
  layers["sim.ingest_fresh_frac"] = share(fresh);
  layers["sim.ingest_spatial_frac"] = share(spatial);
  layers["sim.ingest_overlap_frac"] = ingest > 0.0 ? overlapped / ingest : 0.0;
  layers["sim.pool_workers"] = pool / batches;
  layers["sim.queue_depth"] =
      MeanOver(service, [](const auto& m) { return m.queue_depth; });
  layers["sim.deferred_tasks"] =
      MeanOver(service, [](const auto& m) { return m.deferred_tasks; });

  double covered = 0.0;
  for (size_t i = 0; i < service.size(); ++i) {
    covered += CoveredSeconds(service[i], traced.batches[i]);
  }
  layers["sim.untraced_ms"] =
      (traced.wall_seconds - covered) * 1e3 / batches;
  layers["trace.covered_frac"] =
      traced.wall_seconds > 0.0 ? covered / traced.wall_seconds : 0.0;
  const double traced_cost = traced.wall_seconds / traced.workers;
  const double untraced_cost = untraced.wall_seconds / untraced.workers;
  layers["trace.overhead_frac"] = traced_cost / untraced_cost - 1.0;
  return layers;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

class JsonWriter {
 public:
  JsonWriter() { out_.precision(std::numeric_limits<double>::max_digits10); }

  void Key(const std::string& key) {
    out_ << (first_ ? "" : ",") << Quote(key) << ":";
    first_ = false;
  }
  void Field(const std::string& key, double value) {
    Key(key);
    out_ << value;
  }
  void Field(const std::string& key, int64_t value) {
    Key(key);
    out_ << value;
  }
  void Field(const std::string& key, const std::string& value) {
    Key(key);
    out_ << Quote(value);
  }
  void Field(const std::string& key, const std::vector<double>& values) {
    Key(key);
    out_ << "[";
    for (size_t i = 0; i < values.size(); ++i) {
      out_ << (i > 0 ? "," : "") << values[i];
    }
    out_ << "]";
  }
  void Field(const std::string& key, const std::vector<std::string>& values) {
    Key(key);
    out_ << "[";
    for (size_t i = 0; i < values.size(); ++i) {
      out_ << (i > 0 ? "," : "") << Quote(values[i]);
    }
    out_ << "]";
  }
  void Field(const std::string& key, const Layers& layers) {
    Key(key);
    out_ << "{";
    bool first = true;
    for (const auto& [name, value] : layers) {
      out_ << (first ? "" : ",") << Quote(name) << ":" << value;
      first = false;
    }
    out_ << "}";
  }
  std::string Finish() { return "{" + out_.str() + "}"; }

 private:
  static std::string Quote(const std::string& text) {
    std::string quoted = "\"";
    for (const char c : text) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += (c == '\n' ? ' ' : c);
    }
    return quoted + "\"";
  }

  std::ostringstream out_;
  bool first_ = true;
};

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Removes every CASC_* variable so the workloads run on library
/// defaults; returns the names that were set.
std::vector<std::string> ClearCascEnvironment() {
  std::vector<std::string> names;
  for (char** entry = environ; *entry != nullptr; ++entry) {
    const std::string text(*entry);
    if (text.rfind("CASC_", 0) == 0) names.push_back(text.substr(0, text.find('=')));
  }
  for (const std::string& name : names) ::unsetenv(name.c_str());
  return names;
}

/// Logs a phase's wall time to stderr and restarts `watch`.
void Progress(const char* what, casc::Stopwatch* watch) {
  std::fprintf(stderr, "[casc_perfbench] %s in %.2fs\n", what,
               watch->ElapsedSeconds());
  watch->Restart();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return std::nullopt;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0)) return std::nullopt;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return std::nullopt;
      args.trace = value == "1";
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || args.workload.empty()) return std::nullopt;
  return args;
}

int Main(int argc, char** argv) {
  const std::vector<std::string> cleared = ClearCascEnvironment();
  const std::optional<Args> args = ParseArgs(argc, argv);
  if (!args.has_value()) {
    std::fprintf(stderr,
                 "usage: casc_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1\n");
    return 2;
  }
  casc::Stopwatch phase;
  std::optional<Workload> workload = MakeWorkload(args->workload, args->seed);
  if (!workload.has_value()) {
    std::fprintf(stderr, "unknown workload '%s'\n", args->workload.c_str());
    return 2;
  }
  Progress("inputs generated", &phase);

  Ledger ledger;
  std::vector<double> setup_seconds;
  std::unique_ptr<System> system;
  double setup_total = 0.0;
  while (setup_seconds.size() < kMinSetupRepeats ||
         (setup_total < kMinSetupSeconds &&
          setup_seconds.size() < kMaxSetupRepeats)) {
    double seconds = 0.0;
    system.reset();
    system = SetUp(*workload, &ledger, &seconds);
    setup_seconds.push_back(seconds);
    setup_total += seconds;
  }
  Progress("set up", &phase);

  BatchChecker checker(workload->config.sharded, workload->factory,
                       workload->gt_solver, /*deep=*/args->trace, &ledger);
  std::vector<double> reference;
  if (workload->stream) {
    reference = CheckPass(*workload, system.get(), &checker, &ledger);
    Progress("check pass", &phase);
  }

  const double untraced_seconds =
      args->trace ? args->seconds / 2.0 : args->seconds;
  // A traced run reports no end-to-end metrics, so its passes need no
  // minimum round count.
  const int min_rounds = args->trace ? 1 : workload->min_rounds;
  const PassResult untraced = TimedPass(
      *workload, system.get(), untraced_seconds, min_rounds,
      workload->stream ? nullptr : &checker, &reference, "untraced", &ledger);
  Progress("untraced pass", &phase);

  Layers layers;
  if (args->trace) {
    SolveProbe probe;
    casc::ShardedAssigner probed(workload->config.sharded,
                                 Probed(workload->factory, &probe));
    system->service->set_batch_solver(&probed);
    if (!workload->stream) {
      // Untimed warm-up of the probed engine's per-shard workspaces.
      const BatchInput& input = workload->batches.front();
      system->service->RunBatch(input.workers, input.tasks, input.now);
    }
    const SolveProbe::Totals before = probe.totals();
    const PassResult traced =
        TimedPass(*workload, system.get(), args->seconds / 2.0, min_rounds,
                  nullptr, &reference, "traced", &ledger);
    SolveProbe::Totals totals = probe.totals();
    totals.solve_seconds -= before.solve_seconds;
    totals.tile_seconds -= before.tile_seconds;
    totals.tile_builds -= before.tile_builds;
    system->service->set_batch_solver(nullptr);
    Progress("traced pass", &phase);
    layers = ComputeLayers(untraced, traced, totals, checker.totals());
  }

  double score = 0.0;
  for (const double s : reference) score += s;

  JsonWriter json;
  json.Field("schema", std::string("casc-perfbench-raw/1"));
  json.Field("workload", workload->name);
  json.Field("seed", static_cast<int64_t>(args->seed));
  json.Field("trace", static_cast<int64_t>(args->trace ? 1 : 0));
  json.Field("kind", std::string(workload->stream ? "stream" : "batch"));
  json.Field("env_cleared", cleared);
  json.Field("setup_s", setup_seconds);
  json.Field("batch_ms", untraced.best_ms);
  json.Field("rounds", static_cast<int64_t>(untraced.rounds));
  json.Field("workers", untraced.round_workers);
  json.Field("wall_s", untraced.best_round_seconds);
  json.Field("score", score);
  json.Field("upper", checker.totals().upper);
  json.Field("attempted", ledger.attempted);
  json.Field("failed", ledger.failed);
  json.Field("failures", ledger.failures);
  json.Field("peak_rss_mb", PeakRssMb());
  if (args->trace) json.Field("layers", layers);
  std::printf("%s\n", json.Finish().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
