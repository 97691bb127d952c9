// Bit-identity tests for the incremental streaming data plane: the
// delta-maintained StreamingPlane must emit exactly the valid pairs of a
// from-scratch build on every batch (audited), and the dispatch loop must
// produce identical outputs in both pipeline modes and at any engine
// thread count. Each identity holds with the cross-batch warm start on and
// off.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "algo/gt_assigner.h"
#include "algo/tpg_assigner.h"
#include "common/rng.h"
#include "gen/trace.h"
#include "model/cooperation_matrix.h"
#include "service/dispatch_service.h"
#include "sim/event_stream.h"

namespace casc {
namespace {

struct StreamFixture {
  Trace trace;
  CooperationMatrix coop{0};
};

/// A long carry-over-heavy trace: ~270 batch intervals, generous task
/// lifetimes so open tasks and idle workers persist across many batches
/// (a batch with no open tasks records no metrics, so the horizon leaves
/// headroom above the 200-recorded-batch floor the tests assert).
StreamFixture MakeLongFixture(uint64_t seed, double horizon = 270.0,
                              double worker_rate = 3.0,
                              double task_rate = 1.5) {
  StreamFixture fixture;
  Rng rng(seed);
  TraceConfig config;
  config.horizon = horizon;
  config.worker_rate = worker_rate;
  config.task_rate = task_rate;
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

/// Exact equality over everything except wall times: if a pipelined or
/// multi-threaded run diverges by one ULP anywhere, this fails.
void ExpectIdenticalBatches(const RunSummary& expected,
                            const RunSummary& actual,
                            const std::string& label) {
  ASSERT_EQ(expected.batches.size(), actual.batches.size()) << label;
  for (size_t i = 0; i < expected.batches.size(); ++i) {
    const BatchMetrics& e = expected.batches[i];
    const BatchMetrics& a = actual.batches[i];
    ASSERT_EQ(e.round, a.round) << label << " batch " << i;
    ASSERT_EQ(e.now, a.now) << label << " batch " << i;
    ASSERT_EQ(e.num_workers, a.num_workers) << label << " batch " << i;
    ASSERT_EQ(e.num_tasks, a.num_tasks) << label << " batch " << i;
    ASSERT_EQ(e.valid_pairs, a.valid_pairs) << label << " batch " << i;
    ASSERT_EQ(e.score, a.score) << label << " batch " << i;  // bitwise
    ASSERT_EQ(e.assigned_workers, a.assigned_workers)
        << label << " batch " << i;
    ASSERT_EQ(e.completed_tasks, a.completed_tasks)
        << label << " batch " << i;
    ASSERT_EQ(e.gt_rounds, a.gt_rounds) << label << " batch " << i;
  }
}

// ---------------------------------------------------------------------------
// EventStream cursor
// ---------------------------------------------------------------------------

TEST(EventStreamCursorTest, MatchesArrivingInOverRandomWindows) {
  const StreamFixture fixture = MakeLongFixture(501, /*horizon=*/40.0);
  const EventStream stream(fixture.trace.workers, fixture.trace.tasks);
  EventStream::Cursor cursor = stream.NewCursor();

  Rng rng(77);
  double from = -1.0;
  std::vector<Worker> workers;
  std::vector<Task> tasks;
  size_t total_workers = 0;
  size_t total_tasks = 0;
  while (from < 45.0) {
    const double to = from + rng.Uniform(0.0, 3.0);
    workers.clear();
    tasks.clear();
    cursor.NextBatch(from, to, &workers, &tasks);
    const auto expected_workers = stream.WorkersArrivingIn(from, to);
    const auto expected_tasks = stream.TasksArrivingIn(from, to);
    ASSERT_EQ(workers.size(), expected_workers.size())
        << "[" << from << ", " << to << ")";
    for (size_t i = 0; i < workers.size(); ++i) {
      EXPECT_EQ(workers[i].id, expected_workers[i].id);
    }
    ASSERT_EQ(tasks.size(), expected_tasks.size())
        << "[" << from << ", " << to << ")";
    for (size_t i = 0; i < tasks.size(); ++i) {
      EXPECT_EQ(tasks[i].id, expected_tasks[i].id);
    }
    total_workers += workers.size();
    total_tasks += tasks.size();
    from = to;
  }
  EXPECT_TRUE(cursor.Exhausted());
  EXPECT_EQ(total_workers, stream.num_workers());
  EXPECT_EQ(total_tasks, stream.num_tasks());
}

TEST(EventStreamCursorTest, AppendsIntoNonEmptyBuffers) {
  const EventStream stream(
      {Worker{0, {0.5, 0.5}, 0.1, 0.2, 1.0}},
      {Task{0, {0.5, 0.5}, 2.0, 9.0, 3}});
  EventStream::Cursor cursor = stream.NewCursor();
  std::vector<Worker> workers(3);
  std::vector<Task> tasks;
  cursor.NextBatch(0.0, 1.5, &workers, &tasks);
  EXPECT_EQ(workers.size(), 4u);  // appended, not overwritten
  EXPECT_TRUE(tasks.empty());
  cursor.NextBatch(1.5, 2.5, nullptr, &tasks);  // null side is skipped
  EXPECT_EQ(tasks.size(), 1u);
  EXPECT_TRUE(cursor.Exhausted());
}

TEST(EventStreamCursorDeathTest, RejectsOverlappingWindows) {
  const EventStream stream({Worker{0, {0.5, 0.5}, 0.1, 0.2, 1.0}}, {});
  EventStream::Cursor cursor = stream.NewCursor();
  std::vector<Worker> workers;
  cursor.NextBatch(0.0, 2.0, &workers, nullptr);
  EXPECT_DEATH(cursor.NextBatch(1.0, 3.0, &workers, nullptr),
               "non-overlapping");
}

// ---------------------------------------------------------------------------
// First/LastEventTime merge the worker AND task timelines
// ---------------------------------------------------------------------------

TEST(EventStreamTest, FirstAndLastEventTimeCoverTaskOnlyIntervals) {
  // The first and last events are both tasks; a worker sits in between.
  // The batch clock must start at the leading task and run past the
  // trailing one, or those tasks would never enter any batch.
  const EventStream stream(
      {Worker{0, {0.5, 0.5}, 0.1, 0.2, 5.0}},
      {Task{0, {0.4, 0.4}, 1.0, 20.0, 3},
       Task{1, {0.6, 0.6}, 9.0, 30.0, 3}});
  EXPECT_EQ(stream.FirstEventTime(), 1.0);
  EXPECT_EQ(stream.LastEventTime(), 9.0);

  // Symmetric case: workers bracket the tasks.
  const EventStream flipped(
      {Worker{0, {0.5, 0.5}, 0.1, 0.2, 0.5},
       Worker{1, {0.5, 0.5}, 0.1, 0.2, 12.0}},
      {Task{0, {0.4, 0.4}, 3.0, 20.0, 3}});
  EXPECT_EQ(flipped.FirstEventTime(), 0.5);
  EXPECT_EQ(flipped.LastEventTime(), 12.0);
}

// ---------------------------------------------------------------------------
// Audited monolithic stream: the delta-maintained CSR equals the scratch
// build on every one of 200+ batches
// ---------------------------------------------------------------------------

TEST(StreamingIncrementalTest, AuditedStreamMatchesScratchBuildEveryBatch) {
  const StreamFixture fixture = MakeLongFixture(601);
  ASSERT_FALSE(fixture.trace.workers.empty());
  ASSERT_FALSE(fixture.trace.tasks.empty());
  const EventStream stream(fixture.trace.workers, fixture.trace.tasks);

  auto run = [&](bool audit, bool warm) {
    DispatchConfig config;
    config.sharded.shards_per_side = 1;
    config.min_group_size = 3;
    config.task_duration = 2.0;
    config.audit_streaming = audit;
    config.enable_warm_start = warm;
    DispatchService service(config, &fixture.coop,
                            [] { return std::make_unique<TpgAssigner>(); });
    return service.Run(stream);
  };

  // The audit CHECKs every incrementally-built CSR index byte-for-byte
  // against Instance::ComputeValidPairs() inside the run, so a pass means
  // every batch solved exactly the instance a per-batch rebuild would
  // have produced.
  for (const bool warm : {true, false}) {
    const std::string label =
        std::string("audited-vs-plain warm=") + (warm ? "1" : "0");
    const RunSummary audited = run(true, warm);
    ASSERT_GE(audited.batches.size(), 200u) << "trace too short for the test";
    EXPECT_GT(audited.TotalScore(), 0.0) << label;
    // The audit only reads: the audited run's outputs equal a plain run's.
    ExpectIdenticalBatches(run(false, warm), audited, label);
  }
}

/// Solves every batch with the service's own engine and counts, for one
/// watched task, the batches that admitted it and the batches whose
/// instance held each of two watched workers' pairs with it.
class PairWatch : public ShardedBatchSolver {
 public:
  PairWatch(ShardedAssigner* engine, int64_t task_id, int64_t near_id,
            int64_t far_id)
      : engine_(engine),
        task_id_(task_id),
        near_id_(near_id),
        far_id_(far_id) {}

  Assignment Solve(const Instance& instance) override {
    for (TaskIndex t = 0; t < instance.num_tasks(); ++t) {
      if (instance.tasks()[static_cast<size_t>(t)].id != task_id_) continue;
      ++admitted;
      for (WorkerIndex w = 0; w < instance.num_workers(); ++w) {
        const int64_t id = instance.workers()[static_cast<size_t>(w)].id;
        if (!instance.IsValidPair(w, t)) continue;
        if (id == near_id_) ++near_pairs;
        if (id == far_id_) ++far_pairs;
      }
    }
    return engine_->Solve(instance);
  }
  const ServiceMetrics& metrics() const override {
    return engine_->metrics();
  }
  void AttachWorkspace(BatchWorkspace* workspace) override {
    engine_->AttachWorkspace(workspace);
  }
  void SetSolveDelta(const SolveDelta* delta) override {
    engine_->SetSolveDelta(delta);
  }

  int admitted = 0;
  int near_pairs = 0;
  int far_pairs = 0;

 private:
  ShardedAssigner* engine_;
  int64_t task_id_;
  int64_t near_id_;
  int64_t far_id_;
};

TEST(StreamingIncrementalTest, PairThatDiesWhileDeferredIsNeverEmitted) {
  // A budget of one task per batch admits the unreachable task 0 (deadline
  // 3) ahead of task 1 (deadline 5) until task 0 expires at now = 4. The
  // far worker 1 (0.45 away at speed 0.1) reaches task 1 at now = 0, so
  // the pair enters its row, and dies at now = 1 while task 1 is
  // deferred. Task 1 is admitted at now = 4 and 5; only the near worker 0
  // still reaches it, at now = 4. Worker 2 arrives late to stretch the
  // stream and reaches nothing.
  const std::vector<Worker> workers = {
      Worker{0, {0.5, 0.5}, 0.1, 0.5, 0.0},
      Worker{1, {0.1, 0.5}, 0.1, 0.5, 0.0},
      Worker{2, {0.9, 0.1}, 0.1, 0.05, 6.0},
  };
  const std::vector<Task> tasks = {
      Task{0, {0.95, 0.95}, 0.0, 3.0, 2},
      Task{1, {0.55, 0.5}, 0.0, 5.0, 2},
  };
  const EventStream stream(workers, tasks);
  CooperationMatrix coop(3);
  coop.SetSymmetric(0, 1, 0.5);
  coop.SetSymmetric(0, 2, 0.25);
  coop.SetSymmetric(1, 2, 0.75);

  auto watch = [&](int budget, bool pipeline, int shard_threads) {
    DispatchConfig config;
    config.sharded.shards_per_side = 1;
    config.sharded.num_threads = shard_threads;
    config.min_group_size = 2;
    config.max_tasks_per_batch = budget;
    config.enable_pipeline = pipeline;
    config.audit_streaming = true;  // CHECKs SameAs on every batch
    DispatchService service(config, &coop,
                            [] { return std::make_unique<GtAssigner>(); });
    PairWatch pairs(&service.sharded_assigner(), /*task_id=*/1,
                    /*near_id=*/0, /*far_id=*/1);
    service.set_batch_solver(&pairs);
    (void)service.Run(stream);
    return pairs;
  };

  // Without the budget, task 1 is admitted at now = 0, and the far pair is
  // emitted there: it really was in the worker's row.
  const PairWatch unbudgeted = watch(0, false, 1);
  EXPECT_GE(unbudgeted.admitted, 1);
  EXPECT_EQ(unbudgeted.far_pairs, 1);

  for (const bool pipeline : {false, true}) {
    for (const int shard_threads : {1, 4}) {
      const std::string label = std::string("pipe=") +
                                (pipeline ? "1" : "0") + " shard_threads=" +
                                std::to_string(shard_threads);
      const PairWatch budgeted = watch(1, pipeline, shard_threads);
      EXPECT_EQ(budgeted.admitted, 2) << label;
      EXPECT_EQ(budgeted.near_pairs, 1) << label;
      EXPECT_EQ(budgeted.far_pairs, 0) << label;
    }
  }
}

// ---------------------------------------------------------------------------
// DispatchService::Run: {pipeline} x shard threads (200+ batches)
// ---------------------------------------------------------------------------

TEST(StreamingIncrementalTest, DispatchRunIdenticalAcrossAllCombos) {
  const StreamFixture fixture = MakeLongFixture(602);
  ASSERT_FALSE(fixture.trace.workers.empty());
  ASSERT_FALSE(fixture.trace.tasks.empty());
  const EventStream stream(fixture.trace.workers, fixture.trace.tasks);

  auto run = [&](bool warm, bool pipeline, int threads, bool audit,
                 std::vector<ServiceMetrics>* service_out) {
    DispatchConfig config;
    config.sharded.shards_per_side = 2;
    config.sharded.num_threads = threads;
    config.min_group_size = 3;
    config.task_duration = 2.0;
    config.max_tasks_per_batch = 4;  // exercise deferral carry-over
    config.enable_pipeline = pipeline;
    config.audit_streaming = audit;
    config.enable_warm_start = warm;
    DispatchService service(
        config, &fixture.coop,
        [] { return std::make_unique<GtAssigner>(); });
    RunSummary summary = service.Run(stream);
    if (service_out != nullptr) *service_out = service.batch_metrics();
    return summary;
  };

  struct Combo {
    bool pipeline;
    int threads;
  };
  const std::vector<Combo> combos = {
      {true, 1},   // pipeline alone
      {false, 4},  // multi-threaded shards alone
      {true, 4},   // both
  };
  for (const bool warm : {true, false}) {
    // Sequential, single-threaded and audited against the scratch build.
    std::vector<ServiceMetrics> baseline_service;
    const RunSummary baseline = run(warm, false, 1, true, &baseline_service);
    ASSERT_GE(baseline.batches.size(), 200u) << "trace too short";

    for (const Combo& combo : combos) {
      const std::string label =
          std::string("warm=") + (warm ? "1" : "0") +
          " pipe=" + (combo.pipeline ? "1" : "0") +
          " threads=" + std::to_string(combo.threads);
      std::vector<ServiceMetrics> service_metrics;
      const RunSummary actual =
          run(warm, combo.pipeline, combo.threads, false, &service_metrics);
      ExpectIdenticalBatches(baseline, actual, label);
      // Admission-queue state must also carry over identically.
      ASSERT_EQ(service_metrics.size(), baseline_service.size()) << label;
      for (size_t i = 0; i < service_metrics.size(); ++i) {
        ASSERT_EQ(service_metrics[i].admitted_tasks,
                  baseline_service[i].admitted_tasks)
            << label << " batch " << i;
        ASSERT_EQ(service_metrics[i].deferred_tasks,
                  baseline_service[i].deferred_tasks)
            << label << " batch " << i;
        ASSERT_EQ(service_metrics[i].queue_depth,
                  baseline_service[i].queue_depth)
            << label << " batch " << i;
      }
    }
  }
}

TEST(StreamingIncrementalTest, PipelineFlagControlsOverlap) {
  const StreamFixture fixture = MakeLongFixture(603, /*horizon=*/30.0);
  ASSERT_FALSE(fixture.trace.workers.empty());
  ASSERT_FALSE(fixture.trace.tasks.empty());
  const EventStream stream(fixture.trace.workers, fixture.trace.tasks);

  auto overlapped_batches = [&](bool pipeline) {
    DispatchConfig config;
    config.sharded.shards_per_side = 1;
    config.min_group_size = 3;
    config.enable_pipeline = pipeline;
    DispatchService service(config, &fixture.coop,
                            [] { return std::make_unique<GtAssigner>(); });
    EXPECT_FALSE(service.Run(stream).batches.empty());
    int overlapped = 0;
    for (const ServiceMetrics& metrics : service.batch_metrics()) {
      if (metrics.pipelined) ++overlapped;
    }
    return overlapped;
  };
  // With the pipeline off, no batch may report overlapped ingest; with it
  // on, the carry-over-heavy trace overlaps most batches.
  EXPECT_EQ(overlapped_batches(false), 0);
  EXPECT_GT(overlapped_batches(true), 0);
}

// ---------------------------------------------------------------------------
// Engine thread sweep x pipeline (200+ batches, audited)
// ---------------------------------------------------------------------------

TEST(ParallelIngestTest, ThreadSweepBitIdenticalAcrossPipelineCombos) {
  const StreamFixture fixture = MakeLongFixture(605);
  ASSERT_FALSE(fixture.trace.workers.empty());
  ASSERT_FALSE(fixture.trace.tasks.empty());
  const EventStream stream(fixture.trace.workers, fixture.trace.tasks);

  // The audit CHECKs every incrementally-built CSR index byte-for-byte
  // against a from-scratch build inside each run, so a sweep pass means
  // the emission on the engine's pool produced the exact serial bytes.
  auto run = [&](bool warm, int threads, bool pipeline,
                 std::vector<ServiceMetrics>* service_out) {
    DispatchConfig config;
    config.sharded.shards_per_side = 2;
    config.sharded.num_threads = threads;
    config.min_group_size = 3;
    config.task_duration = 2.0;
    config.max_tasks_per_batch = 4;  // exercise deferral carry-over
    config.enable_pipeline = pipeline;
    config.audit_streaming = true;
    config.enable_warm_start = warm;
    DispatchService service(config, &fixture.coop,
                            [] { return std::make_unique<GtAssigner>(); });
    RunSummary summary = service.Run(stream);
    if (service_out != nullptr) *service_out = service.batch_metrics();
    return summary;
  };

  for (const bool warm : {true, false}) {
    // Serial reference: one engine thread runs every loop inline.
    std::vector<ServiceMetrics> serial_service;
    const RunSummary serial = run(warm, 1, false, &serial_service);
    ASSERT_GE(serial.batches.size(), 200u) << "trace too short for the test";

    for (const int threads : {1, 2, 4, 8}) {
      for (const bool pipeline : {false, true}) {
        const std::string label = std::string("warm=") + (warm ? "1" : "0") +
                                  " threads=" + std::to_string(threads) +
                                  " pipe=" + (pipeline ? "1" : "0");
        std::vector<ServiceMetrics> service_metrics;
        const RunSummary actual =
            run(warm, threads, pipeline, &service_metrics);
        ExpectIdenticalBatches(serial, actual, label);
        ASSERT_EQ(service_metrics.size(), serial_service.size()) << label;
      }
    }
  }
}

TEST(ParallelIngestTest, WideEmissionOnEnginePoolBitIdentical) {
  // The CSR emission fans out on the engine's pool; on batches of 512 or
  // more workers it splits into several chunks, which must change no
  // output.
  const StreamFixture fixture =
      MakeLongFixture(607, /*horizon=*/80.0, /*worker_rate=*/12.0);
  ASSERT_FALSE(fixture.trace.workers.empty());
  ASSERT_FALSE(fixture.trace.tasks.empty());
  const EventStream stream(fixture.trace.workers, fixture.trace.tasks);

  auto run = [&](int shard_threads, bool pipeline,
                 std::vector<ServiceMetrics>* service_out) {
    DispatchConfig config;
    config.sharded.shards_per_side = 2;
    config.sharded.num_threads = shard_threads;
    config.min_group_size = 3;
    config.task_duration = 2.0;
    config.max_tasks_per_batch = 4;  // exercise deferral carry-over
    config.enable_pipeline = pipeline;
    config.audit_streaming = true;
    DispatchService service(config, &fixture.coop,
                            [] { return std::make_unique<GtAssigner>(); });
    RunSummary summary = service.Run(stream);
    if (service_out != nullptr) *service_out = service.batch_metrics();
    return summary;
  };

  std::vector<ServiceMetrics> serial_service;
  const RunSummary serial = run(1, false, &serial_service);
  ASSERT_GE(serial.batches.size(), 60u) << "trace too short for the test";
  // Pools of two kMinRowsPerChunk (256) rows or more split the emission
  // into several chunks on a pool of two or more threads.
  int wide_batches = 0;
  for (const BatchMetrics& batch : serial.batches) {
    if (batch.num_workers >= 512) ++wide_batches;
  }
  EXPECT_GT(wide_batches, 0);

  for (const int shard_threads : {1, 3, 4}) {
    for (const bool pipeline : {false, true}) {
      const std::string label = "shard_threads=" +
                                std::to_string(shard_threads) +
                                " pipe=" + (pipeline ? "1" : "0");
      std::vector<ServiceMetrics> service_metrics;
      const RunSummary actual = run(shard_threads, pipeline, &service_metrics);
      ExpectIdenticalBatches(serial, actual, label);
      ASSERT_EQ(service_metrics.size(), serial_service.size()) << label;
      for (size_t i = 0; i < service_metrics.size(); ++i) {
        ASSERT_EQ(service_metrics[i].deferred_tasks,
                  serial_service[i].deferred_tasks)
            << label << " batch " << i;
        ASSERT_EQ(service_metrics[i].queue_depth,
                  serial_service[i].queue_depth)
            << label << " batch " << i;
      }
    }
  }
}

TEST(ParallelIngestTest, IngestPhaseSplitReported) {
  const StreamFixture fixture = MakeLongFixture(606, /*horizon=*/30.0);
  ASSERT_FALSE(fixture.trace.workers.empty());
  ASSERT_FALSE(fixture.trace.tasks.empty());
  const EventStream stream(fixture.trace.workers, fixture.trace.tasks);

  DispatchConfig config;
  config.sharded.shards_per_side = 1;
  config.sharded.num_threads = 4;
  config.min_group_size = 3;
  config.enable_pipeline = false;  // splits nest inside ingest_seconds
  DispatchService service(config, &fixture.coop,
                          [] { return std::make_unique<GtAssigner>(); });
  (void)service.Run(stream);

  ASSERT_FALSE(service.batch_metrics().empty());
  for (const ServiceMetrics& metrics : service.batch_metrics()) {
    EXPECT_GE(metrics.ingest_splice_seconds, 0.0);
    EXPECT_GE(metrics.ingest_fresh_rows_seconds, 0.0);
    EXPECT_GE(metrics.ingest_spatial_seconds, 0.0);
    EXPECT_GE(metrics.csr_emit_seconds, 0.0);
    // The three ingest phases are timed inside the ingest stopwatch, the
    // CSR emission inside the index-build stopwatch (monotonic clock, so
    // nested intervals cannot exceed the enclosing one).
    EXPECT_LE(metrics.ingest_splice_seconds +
                  metrics.ingest_fresh_rows_seconds +
                  metrics.ingest_spatial_seconds,
              metrics.ingest_seconds + 1e-9);
    EXPECT_LE(metrics.csr_emit_seconds,
              metrics.index_build_seconds + 1e-9);
    const std::string json = metrics.ToJson();
    EXPECT_NE(json.find("\"ingest_splice_seconds\""), std::string::npos);
  }
}

/// Returns an empty assignment at once, so every overlapped ingest
/// outlasts the solve it rides along.
class InstantSolver : public ShardedBatchSolver {
 public:
  Assignment Solve(const Instance& instance) override {
    return Assignment(instance);
  }
  const ServiceMetrics& metrics() const override { return metrics_; }
  void AttachWorkspace(BatchWorkspace*) override {}

 private:
  ServiceMetrics metrics_;
};

TEST(StreamingIncrementalTest, OverlappedIngestChargesItsExcessOverTheSolve) {
  const StreamFixture fixture = MakeLongFixture(608, /*horizon=*/40.0);
  ASSERT_FALSE(fixture.trace.workers.empty());
  ASSERT_FALSE(fixture.trace.tasks.empty());
  const EventStream stream(fixture.trace.workers, fixture.trace.tasks);

  DispatchConfig config;
  config.sharded.shards_per_side = 1;
  config.min_group_size = 3;
  DispatchService service(config, &fixture.coop,
                          [] { return std::make_unique<GtAssigner>(); });
  InstantSolver solver;
  service.set_batch_solver(&solver);
  const RunSummary summary = service.Run(stream);

  const std::vector<ServiceMetrics>& metrics = service.batch_metrics();
  ASSERT_EQ(metrics.size(), summary.batches.size());
  int pipelined = 0;
  int excess_batches = 0;
  for (size_t i = 0; i < metrics.size(); ++i) {
    const ServiceMetrics& m = metrics[i];
    const double solve = summary.batches[i].seconds;
    if (!m.pipelined) {
      EXPECT_EQ(m.batch_seconds,
                m.ingest_seconds + m.index_build_seconds + solve)
          << "batch " << i;
      continue;
    }
    // The overlapped ingest rode along the previous batch's solve; the
    // join waited for whatever it took beyond that solve.
    ASSERT_GT(i, 0u);
    ++pipelined;
    const double excess =
        std::max(0.0, m.ingest_seconds - summary.batches[i - 1].seconds);
    if (excess > 0.0) ++excess_batches;
    EXPECT_EQ(m.batch_seconds, excess + m.index_build_seconds + solve)
        << "batch " << i;
  }
  EXPECT_GT(pipelined, 0);
  EXPECT_GT(excess_batches, 0);
}

TEST(StreamingIncrementalTest, RunLatencyStatsSummarizeBatchSeconds) {
  const StreamFixture fixture = MakeLongFixture(604, /*horizon=*/30.0);
  ASSERT_FALSE(fixture.trace.workers.empty());
  ASSERT_FALSE(fixture.trace.tasks.empty());
  const EventStream stream(fixture.trace.workers, fixture.trace.tasks);
  DispatchConfig config;
  config.sharded.shards_per_side = 1;
  config.min_group_size = 3;
  DispatchService service(config, &fixture.coop,
                          [] { return std::make_unique<GtAssigner>(); });
  (void)service.Run(stream);

  const RunLatencyStats& latency = service.run_latency();
  ASSERT_GT(latency.batches, 0);
  ASSERT_EQ(latency.batches,
            static_cast<int64_t>(service.batch_metrics().size()));
  EXPECT_GT(latency.max_seconds, 0.0);
  EXPECT_LE(latency.p50_seconds, latency.p99_seconds);
  EXPECT_LE(latency.p99_seconds,
            latency.max_seconds * (1.0 + 1e-6));
  EXPECT_GT(latency.mean_seconds, 0.0);
  EXPECT_LE(latency.mean_seconds, latency.max_seconds * (1.0 + 1e-6));
  const std::string json = latency.ToJson();
  EXPECT_NE(json.find("\"p99_seconds\""), std::string::npos);
}

}  // namespace
}  // namespace casc
