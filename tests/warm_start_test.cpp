// Property tests for the cross-batch warm-start solve path: a warm batch
// must produce a certified Nash equilibrium, zero-churn batches must make
// no moves and repeat the previous commit, zero-carry-over batches must be
// bit-identical to a cold run, and the warm path must be bit-identical
// across shard threads and both pipeline modes. On a
// multiskill feasibility-gap trace warm must also keep most of cold's
// score.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "algo/best_response.h"
#include "algo/gt_assigner.h"
#include "common/rng.h"
#include "gen/trace.h"
#include "model/cooperation_matrix.h"
#include "service/dispatch_service.h"
#include "sim/event_stream.h"

namespace casc {
namespace {

/// GtAssigner wrapper that certifies every returned batch assignment
/// with the full Nash-equilibrium check and records the assignment as
/// stable (worker id, task id) pairs, so batches of different runs and
/// different instances can be compared exactly. The service creates one
/// solver per shard and batch, so records go to caller-owned storage.
class RecordingGtAssigner : public Assigner {
 public:
  struct Record {
    bool nash = false;
    bool converged = false;
    bool warm = false;
    int64_t evals = 0;
    int rounds = 0;
    int64_t moves = 0;
    int64_t dirty_workers = 0;
    std::vector<std::pair<int64_t, int64_t>> pairs;  // (worker id, task id)
  };

  explicit RecordingGtAssigner(std::vector<Record>* records)
      : records_(records) {}

  std::string Name() const override { return inner_.Name(); }

  Assignment Run(const Instance& instance) override {
    inner_.set_workspace(workspace());
    inner_.set_solve_delta(solve_delta());
    Assignment result = inner_.Run(instance);
    inner_.set_solve_delta(nullptr);
    inner_.set_workspace(nullptr);
    stats_ = inner_.stats();

    Record record;
    record.nash = IsNashEquilibrium(instance, result, 1e-9);
    record.converged = stats_.converged;
    record.warm = stats_.warm_started;
    record.evals = stats_.best_response_evals;
    record.rounds = stats_.rounds;
    record.moves = stats_.moves;
    record.dirty_workers = stats_.dirty_workers;
    record.pairs.reserve(static_cast<size_t>(instance.num_workers()));
    for (WorkerIndex w = 0; w < instance.num_workers(); ++w) {
      const TaskIndex t = result.TaskOf(w);
      record.pairs.emplace_back(
          instance.workers()[static_cast<size_t>(w)].id,
          t == kNoTask ? -1 : instance.tasks()[static_cast<size_t>(t)].id);
    }
    records_->push_back(std::move(record));
    return result;
  }

 private:
  GtAssigner inner_;
  std::vector<Record>* records_;
};

using Records = std::vector<RecordingGtAssigner::Record>;

/// The monolithic streaming loop: one shard, no admission budget, B = 3.
DispatchConfig MonolithicConfig(double task_duration) {
  DispatchConfig config;
  config.sharded.shards_per_side = 1;
  config.min_group_size = 3;
  config.task_duration = task_duration;
  return config;
}

/// One streamed run: the per-batch outcomes and, parallel to them, the
/// service's per-batch telemetry.
struct StreamRun {
  RunSummary summary;
  std::vector<ServiceMetrics> service;
};

StreamRun RunService(DispatchService* service, const EventStream& stream) {
  RunSummary summary = service->Run(stream);
  return StreamRun{std::move(summary), service->batch_metrics()};
}

/// Streams through the service with recording GT solvers: one record per
/// solved batch, in batch order.
StreamRun RunRecorded(const DispatchConfig& config, const EventStream& stream,
                      const CooperationMatrix& coop, Records* records) {
  DispatchService service(config, &coop, [records] {
    return std::make_unique<RecordingGtAssigner>(records);
  });
  return RunService(&service, stream);
}

struct StreamFixture {
  Trace trace;
  CooperationMatrix coop{0};
};

/// A long carry-over-heavy trace (same family as the incremental tests):
/// generous task lifetimes keep open tasks and idle workers persisting
/// across many batches, which is what feeds the warm-start skeleton.
StreamFixture MakeLongFixture(uint64_t seed, double horizon = 270.0) {
  StreamFixture fixture;
  Rng rng(seed);
  TraceConfig config;
  config.horizon = horizon;
  config.worker_rate = 3.0;
  config.task_rate = 1.5;
  config.worker.radius_min = 0.15;
  config.worker.radius_max = 0.30;
  config.worker.speed_min = 0.05;
  config.worker.speed_max = 0.10;
  config.task.remaining_time = 6.0;
  config.task.capacity = 4;
  fixture.trace = GenerateTrace(config, &rng);
  const int m = static_cast<int>(fixture.trace.workers.size());
  fixture.coop = CooperationMatrix(m);
  for (int i = 0; i < m; ++i) {
    for (int k = i + 1; k < m; ++k) {
      fixture.coop.SetSymmetric(i, k, rng.Uniform());
    }
  }
  return fixture;
}

/// Exact BatchMetrics equality over everything except wall times, plus
/// the solver convergence telemetry of ServiceMetrics.
void ExpectIdenticalBatches(const StreamRun& expected, const StreamRun& actual,
                            const std::string& label) {
  ASSERT_EQ(expected.summary.batches.size(), actual.summary.batches.size())
      << label;
  ASSERT_EQ(expected.service.size(), actual.service.size()) << label;
  for (size_t i = 0; i < expected.summary.batches.size(); ++i) {
    const BatchMetrics& e = expected.summary.batches[i];
    const BatchMetrics& a = actual.summary.batches[i];
    ASSERT_EQ(e.num_workers, a.num_workers) << label << " batch " << i;
    ASSERT_EQ(e.num_tasks, a.num_tasks) << label << " batch " << i;
    ASSERT_EQ(e.valid_pairs, a.valid_pairs) << label << " batch " << i;
    ASSERT_EQ(e.score, a.score) << label << " batch " << i;  // bitwise
    ASSERT_EQ(e.assigned_workers, a.assigned_workers)
        << label << " batch " << i;
    ASSERT_EQ(e.completed_tasks, a.completed_tasks)
        << label << " batch " << i;
    ASSERT_EQ(e.gt_rounds, a.gt_rounds) << label << " batch " << i;
    const ServiceMetrics& es = expected.service[i];
    const ServiceMetrics& as = actual.service[i];
    ASSERT_EQ(es.solve_moves, as.solve_moves) << label << " batch " << i;
    ASSERT_EQ(es.dirty_workers, as.dirty_workers) << label << " batch " << i;
    ASSERT_EQ(es.warm_started, as.warm_started) << label << " batch " << i;
  }
}

// ---------------------------------------------------------------------------
// (a) Zero churn: warm batches make no moves and repeat the previous
// commit bit-for-bit (monolithic path).
// ---------------------------------------------------------------------------

TEST(WarmStartTest, ZeroChurnBatchesMakeNoMovesAndRepeatTheCommit) {
  // Cluster A (starts in batch 0 and leaves for the whole run): task T0
  // with three co-located workers. Cluster B (carries over unchanged):
  // one task with only two workers in range — below B, so it can never
  // be staffed or started, and the pool repeats identically. A final
  // already-expired task extends the horizon without perturbing anything.
  std::vector<Worker> workers = {
      {0, {0.2, 0.2}, 1.0, 0.1, 0.0}, {1, {0.2, 0.2}, 1.0, 0.1, 0.0},
      {2, {0.2, 0.2}, 1.0, 0.1, 0.0}, {3, {0.8, 0.8}, 1.0, 0.1, 0.0},
      {4, {0.8, 0.8}, 1.0, 0.1, 0.0},
  };
  std::vector<Task> tasks = {
      {100, {0.2, 0.2}, 0.0, 100.0, 3},
      {101, {0.8, 0.8}, 0.0, 1000.0, 3},
      {102, {0.5, 0.5}, 8.0, 7.5, 3},  // expired on arrival (horizon pad)
  };
  CooperationMatrix coop(5);
  Rng rng(11);
  for (int i = 0; i < 5; ++i) {
    for (int k = i + 1; k < 5; ++k) {
      coop.SetSymmetric(i, k, 0.3 + 0.5 * rng.Uniform());
    }
  }
  const EventStream stream(workers, tasks);

  // Cluster A never returns in this run.
  Records records;
  const StreamRun run = RunRecorded(MonolithicConfig(/*task_duration=*/100.0),
                                    stream, coop, &records);
  const RunSummary& summary = run.summary;

  ASSERT_GE(summary.batches.size(), 8u);
  ASSERT_EQ(summary.batches.size(), records.size());

  // Batch 0 is cold and starts cluster A.
  EXPECT_FALSE(run.service[0].warm_started);
  EXPECT_EQ(summary.batches[0].completed_tasks, 1);
  EXPECT_EQ(summary.batches[0].assigned_workers, 3);
  EXPECT_TRUE(records[0].nash);

  // Every later batch sees the identical cluster-B pool: warm, no dirty
  // workers, no moves, one (verification-only) round, and the committed
  // assignment repeats the previous one exactly.
  for (size_t i = 1; i < summary.batches.size(); ++i) {
    const BatchMetrics& batch = summary.batches[i];
    const ServiceMetrics& metrics = run.service[i];
    EXPECT_TRUE(metrics.warm_started) << "batch " << i;
    EXPECT_EQ(metrics.solve_moves, 0) << "batch " << i;
    EXPECT_EQ(metrics.dirty_workers, 0) << "batch " << i;
    EXPECT_EQ(batch.gt_rounds, 1) << "batch " << i;
    const RecordingGtAssigner::Record& record = records[i];
    EXPECT_TRUE(record.nash) << "batch " << i;
    EXPECT_TRUE(record.converged) << "batch " << i;
    if (i >= 2) {
      EXPECT_EQ(record.pairs, records[i - 1].pairs)
          << "batch " << i << " diverged from the previous commit";
      EXPECT_EQ(batch.score, summary.batches[i - 1].score) << "batch " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// (b) All-fresh batches: zero carry-over falls back to the literal cold
// path, bit-identical to the warm start switched off.
// ---------------------------------------------------------------------------

TEST(WarmStartTest, AllFreshBatchesAreBitIdenticalToCold) {
  // Waves of 3 co-located workers plus one capacity-3 task, far apart in
  // time: every wave's group starts and leaves, so each batch begins with
  // an empty pool and nothing ever carries over.
  std::vector<Worker> workers;
  std::vector<Task> tasks;
  const int kWaves = 12;
  Rng geo(23);
  for (int k = 0; k < kWaves; ++k) {
    const double t = 2.0 * k;
    const Point center{0.1 + 0.8 * geo.Uniform(), 0.1 + 0.8 * geo.Uniform()};
    for (int j = 0; j < 3; ++j) {
      workers.push_back({3 * k + j, center, 1.0, 0.1, t});
    }
    tasks.push_back({1000 + k, center, t, t + 1.5, 3});
  }
  CooperationMatrix coop(3 * kWaves);
  Rng rng(29);
  for (int i = 0; i < 3 * kWaves; ++i) {
    for (int k = i + 1; k < 3 * kWaves; ++k) {
      coop.SetSymmetric(i, k, 0.2 + 0.6 * rng.Uniform());
    }
  }
  const EventStream stream(workers, tasks);

  // Started workers never come back.
  DispatchConfig config = MonolithicConfig(/*task_duration=*/1000.0);

  Records warm_records;
  const StreamRun warm = RunRecorded(config, stream, coop, &warm_records);
  ASSERT_GE(warm.summary.batches.size(), static_cast<size_t>(kWaves));
  for (size_t i = 0; i < warm.summary.batches.size(); ++i) {
    // Zero carry-over: the delta is never published, every batch is cold.
    EXPECT_FALSE(warm.service[i].warm_started) << "batch " << i;
    EXPECT_TRUE(warm_records[i].nash) << "batch " << i;
  }

  config.enable_warm_start = false;
  Records cold_records;
  const StreamRun cold = RunRecorded(config, stream, coop, &cold_records);
  ExpectIdenticalBatches(cold, warm, "all-fresh warm vs cold");
  ASSERT_EQ(cold_records.size(), warm_records.size());
  for (size_t i = 0; i < cold_records.size(); ++i) {
    EXPECT_EQ(cold_records[i].pairs, warm_records[i].pairs) << "batch " << i;
  }
}

// ---------------------------------------------------------------------------
// (c) 200+-batch audited trace: every batch (warm or cold) must be a
// certified Nash equilibrium, warm batches must be common, and the warm
// run must do strictly less best-response work than the cold run.
// ---------------------------------------------------------------------------

TEST(WarmStartTest, LongAuditedTraceCertifiesEveryBatch) {
  const StreamFixture fixture = MakeLongFixture(701);
  ASSERT_FALSE(fixture.trace.workers.empty());
  ASSERT_FALSE(fixture.trace.tasks.empty());
  const EventStream stream(fixture.trace.workers, fixture.trace.tasks);
  DispatchConfig config = MonolithicConfig(/*task_duration=*/2.0);
  // The audit additionally CHECKs every incrementally-built CSR index
  // byte-for-byte against a from-scratch build inside the run.
  config.audit_streaming = true;

  Records warm_records;
  const RunSummary warm =
      RunRecorded(config, stream, fixture.coop, &warm_records).summary;
  ASSERT_GE(warm.batches.size(), 200u) << "trace too short for the test";

  int64_t warm_evals = 0;
  int warm_batches = 0;
  for (size_t i = 0; i < warm_records.size(); ++i) {
    const RecordingGtAssigner::Record& record = warm_records[i];
    ASSERT_TRUE(record.nash) << "batch " << i << " is not an equilibrium";
    ASSERT_TRUE(record.converged) << "batch " << i;
    warm_evals += record.evals;
    if (record.warm) ++warm_batches;
  }
  // The carry-over-heavy trace must actually exercise the warm path.
  EXPECT_GT(warm_batches, static_cast<int>(warm.batches.size()) / 2);

  config.enable_warm_start = false;
  Records cold_records;
  const RunSummary cold =
      RunRecorded(config, stream, fixture.coop, &cold_records).summary;
  int64_t cold_evals = 0;
  for (const RecordingGtAssigner::Record& record : cold_records) {
    ASSERT_TRUE(record.nash);
    cold_evals += record.evals;
    EXPECT_FALSE(record.warm);
  }
  // The point of the warm start: strictly less best-response work.
  EXPECT_LT(warm_evals, cold_evals);
  // And comparable solution quality (different equilibria are allowed;
  // a collapse to trivial equilibria is not).
  EXPECT_GT(warm.TotalScore(), 0.8 * cold.TotalScore());
}

// ---------------------------------------------------------------------------
// (d) Dispatch sweep: pipeline x shard threads {1,2,4,8} x {warm on,
// warm off} — bit-identical within each warm mode.
// ---------------------------------------------------------------------------

TEST(WarmStartTest, DispatchSweepBitIdenticalWithinEachWarmMode) {
  const StreamFixture fixture = MakeLongFixture(703, /*horizon=*/140.0);
  const EventStream stream(fixture.trace.workers, fixture.trace.tasks);

  auto run = [&](bool warm, bool pipeline, int threads) {
    DispatchConfig config;
    config.sharded.shards_per_side = 2;
    config.sharded.num_threads = threads;
    config.min_group_size = 3;
    config.task_duration = 2.0;
    config.max_tasks_per_batch = 4;  // exercise deferral carry-over
    config.enable_pipeline = pipeline;
    config.enable_warm_start = warm;
    DispatchService service(
        config, &fixture.coop,
        [] { return std::make_unique<GtAssigner>(); });
    return RunService(&service, stream);
  };

  struct Combo {
    bool pipeline;
    int threads;
  };
  const std::vector<Combo> combos = {
      {true, 1}, {false, 2}, {false, 4}, {true, 4}, {true, 8},
  };

  for (const bool warm : {true, false}) {
    const StreamRun baseline =
        run(warm, /*pipeline=*/false, /*threads=*/1);
    ASSERT_GE(baseline.summary.batches.size(), 80u) << "trace too short";

    int warm_batches = 0;
    for (const ServiceMetrics& metrics : baseline.service) {
      if (metrics.warm_started) ++warm_batches;
    }
    if (warm) {
      EXPECT_GT(warm_batches, 0) << "warm mode never engaged";
    } else {
      EXPECT_EQ(warm_batches, 0) << "warm engaged with the switch off";
    }

    for (const Combo& combo : combos) {
      const std::string label =
          std::string("warm=") + (warm ? "1" : "0") +
          " pipe=" + (combo.pipeline ? "1" : "0") +
          " threads=" + std::to_string(combo.threads);
      const StreamRun actual = run(warm, combo.pipeline, combo.threads);
      ExpectIdenticalBatches(baseline, actual, label);
      for (size_t i = 0; i < actual.service.size(); ++i) {
        const ServiceMetrics& e = baseline.service[i];
        const ServiceMetrics& a = actual.service[i];
        ASSERT_EQ(e.solve_rounds, a.solve_rounds) << label << " batch " << i;
        ASSERT_EQ(e.adopted_boundary, a.adopted_boundary)
            << label << " batch " << i;
        ASSERT_EQ(e.polish_moves, a.polish_moves) << label << " batch " << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// (e) Feasibility-gap regime under the multiskill objective: tasks demand
// 5 of 64 skills while workers carry 2, so standing tasks stay
// unstaffable for many batches amid a large idle pool. Warm must keep
// most of cold's score, and stay bit-identical across solver threads and
// pipeline modes on the multiskill GT game.
// ---------------------------------------------------------------------------

TEST(WarmStartTest, FeasibilityGapTraceKeepsWarmQualityAndIdentity) {
  constexpr uint64_t kSeed = 42;
  TraceConfig trace_config;
  trace_config.horizon = 120.0;
  trace_config.worker_rate = 60.0;
  trace_config.task_rate = 25.0;
  trace_config.rush_windows.push_back({0.0, 120.0 * 0.15, 4.0});
  trace_config.worker.radius_min = 0.07;
  trace_config.worker.radius_max = 0.12;
  trace_config.worker.speed_min = 0.05;
  trace_config.worker.speed_max = 0.10;
  trace_config.worker.num_skills = 64;
  trace_config.worker.skills_per_worker = 2;
  trace_config.task.remaining_time = 40.0;
  trace_config.task.capacity = 4;
  trace_config.task.num_skills = 64;
  trace_config.task.skills_per_task = 5;
  Rng rng(kSeed);
  const Trace trace = GenerateTrace(trace_config, &rng);
  const CooperationMatrix coop = CooperationMatrix::Procedural(
      static_cast<int>(trace.workers.size()), kSeed ^ 0x9E3779B9u);
  const EventStream stream(trace.workers, trace.tasks);

  auto run = [&](bool warm, bool pipeline, int threads) {
    DispatchConfig config;
    config.sharded.shards_per_side = 2;
    config.sharded.num_threads = threads;
    config.min_group_size = 3;
    config.batch_interval = 1.0;
    config.task_duration = 2.0;
    config.max_tasks_per_batch = 140;
    config.enable_pipeline = pipeline;
    config.enable_warm_start = warm;
    config.objective = "multiskill";
    DispatchService service(config, &coop,
                            [] { return std::make_unique<GtAssigner>(); });
    return RunService(&service, stream);
  };

  const StreamRun cold =
      run(/*warm=*/false, /*pipeline=*/false, /*threads=*/4);
  const StreamRun warm =
      run(/*warm=*/true, /*pipeline=*/false, /*threads=*/1);
  const StreamRun warm_pipelined =
      run(/*warm=*/true, /*pipeline=*/true, /*threads=*/4);

  ASSERT_FALSE(warm.summary.batches.empty());
  int warm_batches = 0;
  for (const ServiceMetrics& metrics : warm.service) {
    if (metrics.warm_started) ++warm_batches;
  }
  EXPECT_GT(warm_batches, 0) << "warm mode never engaged";
  // Warm and cold reach different equilibria of the same game; a large
  // quality gap would mean the warm path converged somewhere degenerate.
  EXPECT_GT(warm.summary.TotalScore(), 0.8 * cold.summary.TotalScore());
  ExpectIdenticalBatches(warm, warm_pipelined,
                         "warm sequential t1 vs warm pipelined t4");
}

// ---------------------------------------------------------------------------
// Telemetry: the convergence counters surface in the JSON records.
// ---------------------------------------------------------------------------

TEST(WarmStartTest, ConvergenceTelemetrySurfacesInJson) {
  const StreamFixture fixture = MakeLongFixture(705, /*horizon=*/40.0);
  const EventStream stream(fixture.trace.workers, fixture.trace.tasks);
  DispatchConfig config;
  config.sharded.shards_per_side = 2;
  config.min_group_size = 3;
  config.task_duration = 2.0;
  DispatchService service(config, &fixture.coop,
                          [] { return std::make_unique<GtAssigner>(); });
  const RunSummary summary = service.Run(stream);

  ASSERT_FALSE(summary.batches.empty());
  for (const BatchMetrics& batch : summary.batches) {
    EXPECT_NE(ToJson(batch).find("\"gt_rounds\""), std::string::npos);
  }
  ASSERT_FALSE(service.batch_metrics().empty());
  bool saw_warm = false;
  for (const ServiceMetrics& metrics : service.batch_metrics()) {
    saw_warm = saw_warm || metrics.warm_started;
  }
  EXPECT_TRUE(saw_warm);

  const std::string service_json = service.batch_metrics().back().ToJson();
  EXPECT_NE(service_json.find("\"solve_rounds\""), std::string::npos);
  EXPECT_NE(service_json.find("\"solve_moves\""), std::string::npos);
  EXPECT_NE(service_json.find("\"dirty_workers\""), std::string::npos);
  EXPECT_NE(service_json.find("\"dirty_fraction\""), std::string::npos);
  EXPECT_NE(service_json.find("\"warm_started\""), std::string::npos);
  EXPECT_NE(service_json.find("\"adopted_boundary\""), std::string::npos);

  const RunLatencyStats& latency = service.run_latency();
  const std::string latency_json = latency.ToJson();
  EXPECT_NE(latency_json.find("\"solve_rounds_p50\""), std::string::npos);
  EXPECT_NE(latency_json.find("\"solve_rounds_p99\""), std::string::npos);
  EXPECT_GE(latency.solve_rounds_p99, latency.solve_rounds_p50);
}

}  // namespace
}  // namespace casc
