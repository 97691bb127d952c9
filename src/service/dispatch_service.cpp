#include "service/dispatch_service.h"

#include <algorithm>
#include <limits>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "common/histogram.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "model/objective.h"
#include "model/objective_model.h"
#include "sim/streaming_plane.h"

namespace casc {
namespace {

void AppendIntArray(std::ostringstream& out, const char* key,
                    const std::vector<int>& values) {
  out << "\"" << key << "\":[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out << ",";
    out << values[i];
  }
  out << "]";
}

void AppendDoubleArray(std::ostringstream& out, const char* key,
                       const std::vector<double>& values) {
  out << "\"" << key << "\":[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out << ",";
    out << values[i];
  }
  out << "]";
}

/// Copies the solver's convergence telemetry into the batch record. It is
/// invariant across thread counts and pipeline modes (the delta is
/// mode-independent and the shard solves deterministic), so the
/// combo-identity tests may compare it.
void CopySolveTelemetry(const ServiceMetrics& metrics, BatchMetrics* batch) {
  batch->gt_rounds = metrics.solve_rounds;
  batch->solve_moves = metrics.solve_moves;
  batch->dirty_workers = metrics.dirty_workers;
  batch->dirty_fraction = metrics.dirty_fraction;
  batch->warm_started = metrics.warm_started;
}

}  // namespace

std::string ServiceMetrics::ToJson() const {
  std::ostringstream out;
  out.precision(std::numeric_limits<double>::max_digits10);
  out << "{\"num_shards\":" << num_shards << ",";
  AppendIntArray(out, "shard_workers", shard_workers);
  out << ",";
  AppendIntArray(out, "shard_tasks", shard_tasks);
  out << ",";
  AppendDoubleArray(out, "shard_seconds", shard_seconds);
  out << ",\"interior_workers\":" << interior_workers
      << ",\"boundary_workers\":" << boundary_workers
      << ",\"adopted_boundary\":" << adopted_boundary
      << ",\"inserted_boundary\":" << inserted_boundary
      << ",\"seeded_boundary\":" << seeded_boundary
      << ",\"polish_moves\":" << polish_moves
      << ",\"solve_rounds\":" << solve_rounds
      << ",\"solve_moves\":" << solve_moves
      << ",\"dirty_workers\":" << dirty_workers
      << ",\"dirty_fraction\":" << dirty_fraction
      << ",\"warm_started\":" << (warm_started ? 1 : 0)
      << ",\"partition_seconds\":" << partition_seconds
      << ",\"phase1_seconds\":" << phase1_seconds
      << ",\"phase2_seconds\":" << phase2_seconds
      << ",\"admitted_tasks\":" << admitted_tasks
      << ",\"deferred_tasks\":" << deferred_tasks
      << ",\"queue_depth\":" << queue_depth
      << ",\"prune_evals\":" << prune_evals
      << ",\"prune_skips\":" << prune_skips
      << ",\"objective\":\"" << objective << "\""
      << ",\"feasibility_rejects\":" << feasibility_rejects
      << ",\"lost_shards\":" << lost_shards
      << ",\"net_messages\":" << net_messages
      << ",\"net_bytes\":" << net_bytes
      << ",\"net_dropped\":" << net_dropped
      << ",\"net_retries\":" << net_retries
      << ",\"net_failovers\":" << net_failovers
      << ",\"net_rtt_p50_seconds\":" << net_rtt_p50_seconds
      << ",\"net_rtt_p99_seconds\":" << net_rtt_p99_seconds
      << ",\"ingest_seconds\":" << ingest_seconds
      << ",\"index_build_seconds\":" << index_build_seconds
      << ",\"batch_seconds\":" << batch_seconds
      << ",\"pipelined\":" << (pipelined ? 1 : 0)
      << ",\"ingest_splice_seconds\":" << ingest_splice_seconds
      << ",\"ingest_fresh_rows_seconds\":" << ingest_fresh_rows_seconds
      << ",\"ingest_spatial_seconds\":" << ingest_spatial_seconds
      << ",\"csr_emit_seconds\":" << csr_emit_seconds
      << ",\"ingest_threads\":" << ingest_threads << "}";
  return out.str();
}

std::string RunLatencyStats::ToJson() const {
  std::ostringstream out;
  out.precision(std::numeric_limits<double>::max_digits10);
  out << "{\"batches\":" << batches << ",\"mean_seconds\":" << mean_seconds
      << ",\"p50_seconds\":" << p50_seconds
      << ",\"p99_seconds\":" << p99_seconds
      << ",\"max_seconds\":" << max_seconds
      << ",\"solve_rounds_p50\":" << solve_rounds_p50
      << ",\"solve_rounds_p99\":" << solve_rounds_p99 << "}";
  return out.str();
}

ShardedAssigner::ShardedAssigner(ShardedOptions options,
                                 AssignerFactory factory)
    : options_(options),
      factory_(std::move(factory)),
      executor_(options.num_threads),
      reconciler_(options.reconcile) {
  CASC_CHECK(factory_ != nullptr);
  CASC_CHECK_GE(options_.shards_per_side, 1);
  name_ = "SHARD" + std::to_string(options_.shards_per_side) + "x" +
          std::to_string(options_.shards_per_side) + "(" +
          factory_()->Name() + ")";
}

std::string ShardedAssigner::Name() const { return name_; }

Assignment ShardedAssigner::Run(const Instance& instance) {
  CASC_CHECK(instance.valid_pairs_ready());
  stats_ = AssignerStats{};
  metrics_ = ServiceMetrics{};

  // Cross-batch warm start: a usable attached delta is sliced per shard
  // (phase 1 adopts in-shard seeds) and handed to the reconciler (phase 2
  // re-seats boundary workers whose seeds phase 1 could not keep). A
  // stale or absent delta degrades to the cold path.
  const SolveDelta* delta = solve_delta();
  if (delta != nullptr &&
      (delta->num_carried == 0 ||
       static_cast<int>(delta->seed_task.size()) != instance.num_workers())) {
    delta = nullptr;
  }

  Stopwatch watch;
  ShardMapConfig map_config;
  map_config.shards_per_side = options_.shards_per_side;
  map_config.world = options_.world;
  const ShardMap map(instance.workers(), instance.tasks(), map_config);
  std::vector<ShardProblem> problems =
      executor_.BuildProblems(instance, map, delta);
  metrics_.partition_seconds = watch.ElapsedSeconds();

  const ShardLoadStats load = map.LoadStats();
  metrics_.num_shards = map.num_shards();
  metrics_.shard_workers = load.workers_per_shard;
  metrics_.shard_tasks = load.tasks_per_shard;
  metrics_.interior_workers = load.interior_workers;
  metrics_.boundary_workers = load.boundary_workers;

  watch.Restart();
  std::vector<AssignerStats> shard_stats;
  std::vector<int> dropped_shards;
  Assignment assignment =
      executor_.Run(instance, problems, factory_, &metrics_.shard_seconds,
                    workspace(), &shard_stats, options_.fault_hook,
                    batch_index_++, &dropped_shards);
  metrics_.lost_shards = static_cast<int>(dropped_shards.size());
  metrics_.phase1_seconds = watch.ElapsedSeconds();
  for (const AssignerStats& stats : shard_stats) {
    metrics_.prune_evals += stats.candidates_evaluated;
    metrics_.feasibility_rejects += stats.feasibility_rejects;
    // Rounds aggregate as the max (shards run in parallel — the critical
    // path); moves and the dirty frontier as sums.
    metrics_.solve_rounds = std::max(metrics_.solve_rounds, stats.rounds);
    metrics_.solve_moves += stats.moves;
    metrics_.dirty_workers += stats.dirty_workers;
    metrics_.warm_started = metrics_.warm_started || stats.warm_started;
  }
  metrics_.dirty_fraction =
      instance.num_workers() > 0
          ? static_cast<double>(metrics_.dirty_workers) /
                static_cast<double>(instance.num_workers())
          : 0.0;
  stats_.candidates_evaluated = metrics_.prune_evals;
  stats_.feasibility_rejects = metrics_.feasibility_rejects;
  stats_.rounds = metrics_.solve_rounds;
  stats_.dirty_workers = metrics_.dirty_workers;
  stats_.warm_started = metrics_.warm_started;
  metrics_.objective = std::string(instance.objective().Id());

  watch.Restart();
  const ReconcileStats reconcile = reconciler_.Reconcile(
      instance, map.boundary_workers(), &assignment, delta);
  metrics_.phase2_seconds = watch.ElapsedSeconds();
  metrics_.adopted_boundary = reconcile.adopted;
  metrics_.inserted_boundary = reconcile.inserted;
  metrics_.seeded_boundary = reconcile.seeded;
  metrics_.polish_moves = reconcile.polish_moves;

  stats_.moves = reconcile.polish_moves;
  stats_.final_score = TotalScore(instance, assignment);
  executor_.RecycleProblems(&problems);
  return assignment;
}

DispatchService::DispatchService(DispatchConfig config,
                                 const CooperationMatrix* global_coop,
                                 AssignerFactory factory)
    : config_(config),
      global_coop_(global_coop),
      sharded_(config.sharded, std::move(factory)) {
  CASC_CHECK(global_coop_ != nullptr);
  CASC_CHECK_GE(config_.max_tasks_per_batch, 0);
  CASC_CHECK_GE(config_.ingest_threads, 0);
  CASC_CHECK_GT(config_.batch_interval, 0.0);
  if (config_.objective.empty()) {
    objective_ = &ProcessDefaultObjective();
  } else {
    objective_ = ObjectiveByName(config_.objective);
    CASC_CHECK(objective_ != nullptr)
        << "DispatchConfig::objective names unknown objective '"
        << config_.objective << "'";
  }
  set_batch_solver(nullptr);  // default: the in-process engine
}

void DispatchService::set_batch_solver(ShardedBatchSolver* solver) {
  solver_ = solver != nullptr ? solver : &sharded_;
  solver_->AttachWorkspace(&solve_workspace_);
}

DispatchResult DispatchService::RunBatch(std::vector<Worker> workers,
                                         std::vector<Task> tasks,
                                         double now) {
  // Admission: earliest deadline first under the per-batch budget.
  std::vector<Task> deferred;
  const int budget = config_.max_tasks_per_batch;
  if (budget > 0 && static_cast<int>(tasks.size()) > budget) {
    std::stable_sort(tasks.begin(), tasks.end(),
                     [](const Task& a, const Task& b) {
                       if (a.deadline != b.deadline) {
                         return a.deadline < b.deadline;
                       }
                       return a.id < b.id;
                     });
    deferred.assign(tasks.begin() + budget, tasks.end());
    tasks.resize(static_cast<size_t>(budget));
  }

  std::vector<int> ids;
  ids.reserve(workers.size());
  for (const Worker& worker : workers) {
    CASC_CHECK_GE(worker.id, 0)
        << "worker ids index the service's global cooperation matrix";
    CASC_CHECK_LT(worker.id, global_coop_->num_workers())
        << "worker id beyond the global cooperation matrix";
    ids.push_back(static_cast<int>(worker.id));
  }
  const int num_admitted = static_cast<int>(tasks.size());
  Instance instance(std::move(workers), std::move(tasks),
                    global_coop_->View(std::move(ids)), now,
                    config_.min_group_size);
  instance.set_objective(objective_);
  Stopwatch build_watch;
  instance.ComputeValidPairs(&build_workspace_);
  const double index_build_seconds = build_watch.ElapsedSeconds();

  BatchMetrics batch;
  batch.now = now;
  batch.index_build_seconds = index_build_seconds;
  Stopwatch watch;
  // One-shot batches have no previous equilibrium to seed from; clear any
  // delta a prior streaming Run() left attached.
  solver_->SetSolveDelta(nullptr);
  Assignment assignment = solver_->Solve(instance);
  batch.seconds = watch.ElapsedSeconds();
  RecordBatchOutcome(instance, assignment, &batch);

  ServiceMetrics metrics = solver_->metrics();
  CopySolveTelemetry(metrics, &batch);
  metrics.admitted_tasks = num_admitted;
  metrics.deferred_tasks = static_cast<int>(deferred.size());
  metrics.queue_depth = static_cast<int>(deferred.size());
  metrics.index_build_seconds = index_build_seconds;
  metrics.batch_seconds = index_build_seconds + batch.seconds;
  batch_metrics_.push_back(metrics);

  return DispatchResult{std::move(instance), std::move(assignment),
                        std::move(deferred), std::move(metrics), batch};
}

RunSummary DispatchService::Run(const EventStream& stream) {
  CASC_CHECK(stream.HasDenseWorkerIds())
      << "the dispatch service indexes global_coop by worker .id: the "
         "stream's worker ids must be exactly a permutation of "
         "0..num_workers-1";
  CASC_CHECK_GE(global_coop_->num_workers(),
                static_cast<int>(stream.num_workers()))
      << "global_coop is smaller than the stream's worker population";
  batch_metrics_.clear();
  run_latency_ = RunLatencyStats{};

  // Effective streaming-plane knobs: config combined with the remaining
  // process-wide switches (audit, warm start, retry epoch).
  StreamingPlaneConfig plane_config = StreamingPlaneConfig::FromEnv();
  plane_config.audit |= config_.audit_streaming;
  plane_config.warm_start &= config_.enable_warm_start;
  // Pool-slice policy: when the pipeline is on, ingest runs concurrently
  // with the shard solvers, so the plane gets its own slice of the host
  // (what the shard executor does not use) instead of competing for the
  // same cores. An explicit ingest_threads always wins.
  plane_config.ingest_threads = config_.ingest_threads;
  if (plane_config.ingest_threads == 0) {
    const int hw = ThreadPool::DefaultThreads();
    plane_config.ingest_threads =
        config_.enable_pipeline ? std::max(1, hw - config_.sharded.num_threads)
                                : hw;
  }

  // Cross-batch pools and delta-maintained valid-pair rows.
  StreamingPlane plane(plane_config);
  EventStream::Cursor cursor = stream.NewCursor();
  // Two-slot pipeline: chunk 0 (the caller) solves batch N while chunk 1
  // ingests batch N+1's arrivals into the plane. The solver only reads
  // its Instance and the solve-side workspace; the ingest only mutates
  // the plane, the cursor and the arrival buffers — no shared state, so
  // the join makes Commit() deterministic.
  ThreadPool pipeline_pool(config_.enable_pipeline ? 2 : 1);

  std::vector<Worker> arrived_workers;
  std::vector<Task> arrived_tasks;
  std::vector<Worker> batch_workers;
  std::vector<Task> batch_tasks;

  RunSummary summary;
  double now = stream.FirstEventTime();
  const double end = stream.LastEventTime() + config_.batch_interval;
  int round = 0;
  double window_start = -std::numeric_limits<double>::infinity();
  // Set when the previous iteration's overlap already ingested this
  // batch's arrivals (and staged its pre-existing releases).
  bool ingested_ahead = false;
  double overlapped_ingest_seconds = 0.0;

  while (now < end) {
    double ingest_seconds = 0.0;
    const bool was_overlapped = ingested_ahead;
    if (!ingested_ahead) {
      Stopwatch ingest_watch;
      arrived_workers.clear();
      arrived_tasks.clear();
      cursor.NextBatch(window_start, now + 1e-12, &arrived_workers,
                       &arrived_tasks);
      window_start = now + 1e-12;
      plane.Ingest(now, arrived_workers, arrived_tasks);
      ingest_seconds = ingest_watch.ElapsedSeconds();
    } else {
      ingest_seconds = overlapped_ingest_seconds;
      ingested_ahead = false;
    }
    // Snapshot the phase split before the overlap chunk's Ingest of the
    // NEXT batch overwrites the plane's counters. When this batch's
    // ingest rode along the previous solve, the plane still holds its
    // stats (nothing ingested since), so the same snapshot covers both.
    const StreamingIngestStats ingest_stats = plane.ingest_stats();
    plane.StageReleases(now);
    plane.FlushReleases();
    plane.Expire(now);

    if (plane.HasWork()) {
      plane.Admit(config_.max_tasks_per_batch);
      plane.MaterializeWorkers(&batch_workers);
      plane.MaterializeAdmittedTasks(&batch_tasks);
      std::vector<int> ids;
      ids.reserve(batch_workers.size());
      for (const Worker& worker : batch_workers) {
        CASC_CHECK_GE(worker.id, 0)
            << "worker ids index the service's global cooperation matrix";
        CASC_CHECK_LT(worker.id, global_coop_->num_workers())
            << "worker id beyond the global cooperation matrix";
        ids.push_back(static_cast<int>(worker.id));
      }
      Stopwatch build_watch;
      Instance instance(batch_workers, batch_tasks,
                        global_coop_->View(std::move(ids)), now,
                        config_.min_group_size);
      instance.set_objective(objective_);
      plane.BuildValidPairs(&instance, &build_workspace_);
      const double index_build_seconds = build_watch.ElapsedSeconds();
      const StreamingEmitStats emit_stats = plane.emit_stats();

      // Cross-batch warm start: export the previous equilibrium's
      // retained skeleton plus the dirty frontier (null when cold —
      // first batch, zero carry-over, CASC_NO_WARM_START). Built
      // serially here, before the overlap below: the pipelined ingest of
      // batch N+1 mutates only the plane's pools, never the exported
      // delta (a self-contained snapshot), so the solver may read it
      // concurrently.
      solver_->SetSolveDelta(plane.BuildSolveDelta(instance));

      const double next_now = now + config_.batch_interval;
      const bool overlap = config_.enable_pipeline && next_now < end;
      Assignment assignment;
      double solve_seconds = 0.0;
      if (overlap) {
        pipeline_pool.ParallelFor(2, [&](int64_t chunk) {
          if (chunk == 0) {
            Stopwatch solve_watch;
            assignment = solver_->Solve(instance);
            solve_seconds = solve_watch.ElapsedSeconds();
          } else {
            Stopwatch overlap_watch;
            arrived_workers.clear();
            arrived_tasks.clear();
            cursor.NextBatch(window_start, next_now + 1e-12,
                             &arrived_workers, &arrived_tasks);
            window_start = next_now + 1e-12;
            plane.Ingest(next_now, arrived_workers, arrived_tasks);
            plane.StageReleases(next_now);
            overlapped_ingest_seconds = overlap_watch.ElapsedSeconds();
          }
        });
        ingested_ahead = true;
      } else {
        Stopwatch solve_watch;
        assignment = solver_->Solve(instance);
        solve_seconds = solve_watch.ElapsedSeconds();
      }
      solver_->SetSolveDelta(nullptr);

      BatchMetrics batch;
      batch.round = round;
      batch.now = now;
      batch.seconds = solve_seconds;
      RecordBatchOutcome(instance, assignment, &batch);
      batch.ingest_seconds = ingest_seconds;
      batch.index_build_seconds = index_build_seconds;
      batch.ingest_splice_seconds = ingest_stats.splice_seconds;
      batch.ingest_fresh_rows_seconds = ingest_stats.fresh_rows_seconds;
      batch.ingest_spatial_seconds = ingest_stats.spatial_insert_seconds;
      batch.csr_emit_seconds = emit_stats.csr_emit_seconds;

      // Commit: groups reaching B start now; everyone else carries over,
      // together with the admission queue's deferred overflow.
      plane.Commit(instance, assignment, now + config_.task_duration);

      ServiceMetrics metrics = solver_->metrics();
      CopySolveTelemetry(metrics, &batch);
      metrics.admitted_tasks = instance.num_tasks();
      metrics.deferred_tasks = plane.num_deferred();
      metrics.queue_depth = plane.queue_depth_after_commit();
      metrics.ingest_seconds = ingest_seconds;
      metrics.index_build_seconds = index_build_seconds;
      metrics.ingest_splice_seconds = ingest_stats.splice_seconds;
      metrics.ingest_fresh_rows_seconds = ingest_stats.fresh_rows_seconds;
      metrics.ingest_spatial_seconds = ingest_stats.spatial_insert_seconds;
      metrics.csr_emit_seconds = emit_stats.csr_emit_seconds;
      metrics.ingest_threads = plane.ingest_threads();
      metrics.pipelined = was_overlapped;
      // Critical path: ingest counts only when it did not ride along a
      // previous solve.
      metrics.batch_seconds = (was_overlapped ? 0.0 : ingest_seconds) +
                              index_build_seconds + solve_seconds;
      batch_metrics_.push_back(metrics);
      summary.batches.push_back(batch);

      // The committed batch is finished with its scratch state: return
      // the CSR pair index and the assignment's slabs to the pools so
      // the next batch allocates nothing in steady state.
      build_workspace_.Recycle(instance.ReleaseValidPairs());
      solve_workspace_.Recycle(std::move(assignment));
    }

    now += config_.batch_interval;
    ++round;
  }

  // Run-level latency distribution over the batches' critical paths.
  if (!batch_metrics_.empty()) {
    double worst = 0.0;
    double total = 0.0;
    for (const ServiceMetrics& metrics : batch_metrics_) {
      worst = std::max(worst, metrics.batch_seconds);
      total += metrics.batch_seconds;
    }
    Histogram histogram(0.0, std::max(worst * (1.0 + 1e-9), 1e-9), 1000);
    QuantileSketch rounds_sketch;
    for (const ServiceMetrics& metrics : batch_metrics_) {
      histogram.Add(metrics.batch_seconds);
      rounds_sketch.Add(static_cast<double>(metrics.solve_rounds));
    }
    run_latency_.batches = static_cast<int64_t>(batch_metrics_.size());
    run_latency_.mean_seconds =
        total / static_cast<double>(batch_metrics_.size());
    run_latency_.p50_seconds = histogram.Quantile(0.5);
    run_latency_.p99_seconds = histogram.Quantile(0.99);
    run_latency_.max_seconds = worst;
    run_latency_.solve_rounds_p50 = rounds_sketch.Quantile(0.5);
    run_latency_.solve_rounds_p99 = rounds_sketch.Quantile(0.99);
  }
  return summary;
}

}  // namespace casc
