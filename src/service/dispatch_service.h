#ifndef CASC_SERVICE_DISPATCH_SERVICE_H_
#define CASC_SERVICE_DISPATCH_SERVICE_H_

#include <string>
#include <vector>

#include "algo/assigner.h"
#include "model/cooperation_matrix.h"
#include "service/boundary_reconciler.h"
#include "service/shard_executor.h"
#include "service/shard_map.h"
#include "sim/event_stream.h"
#include "sim/metrics.h"

namespace casc {

/// Options of the sharded assignment path, shared by the in-process
/// ShardedAssigner and the networked NetShardedAssigner. Only the net
/// path can lose a shard, under DistributedConfig's crash and drop
/// schedule.
struct ShardedOptions {
  /// S: the world is split into S x S shards. S = 1 reproduces the
  /// monolithic assigner bit-for-bit.
  int shards_per_side = 4;

  /// Threads of the engine's pool (1 = inline), the one pool every
  /// fan-out of the dispatch service runs on: per-shard problem building
  /// and solving, the phase-2 memo refresh, the valid-pair builds and the
  /// streaming CSR emission. The streaming pipeline adds one thread for
  /// the overlapped ingest. The output is independent of this value.
  int num_threads = 1;

  /// The partitioned area.
  Rect world{0.0, 0.0, 1.0, 1.0};

  /// Phase-2 knobs.
  ReconcileOptions reconcile;
};

/// Observability of one dispatched batch: shard loads, boundary-worker
/// counts, phase timings and admission-queue state.
struct ServiceMetrics {
  int num_shards = 0;
  std::vector<int> shard_workers;    ///< phase-1 (home) workers per shard
  std::vector<int> shard_tasks;      ///< tasks per shard
  std::vector<double> shard_seconds; ///< per-shard solver wall time
  int interior_workers = 0;
  int boundary_workers = 0;
  int adopted_boundary = 0;   ///< phase-2 warm-start re-seatings
  int inserted_boundary = 0;  ///< phase-2 marginal insertions
  int seeded_boundary = 0;    ///< phase-2 under-B seedings
  int polish_moves = 0;       ///< phase-2 best-response moves

  /// Phase-1 solver convergence telemetry (GT family; zero for
  /// single-pass shard solvers): best-response rounds (max over shards —
  /// the parallel critical path), strategy moves (sum), the warm-start
  /// dirty frontier and whether any shard seeded from the previous
  /// equilibrium's skeleton.
  int solve_rounds = 0;          ///< max best-response rounds over shards
  int64_t solve_moves = 0;       ///< strategy changes summed over shards
  int64_t dirty_workers = 0;     ///< initial dirty frontier (warm only)
  double dirty_fraction = 0.0;   ///< dirty_workers / batch workers
  bool warm_started = false;     ///< any shard seeded from the skeleton
  double partition_seconds = 0.0;  ///< shard map + problem building
  double phase1_seconds = 0.0;     ///< parallel per-shard assignment
  double phase2_seconds = 0.0;     ///< boundary reconciliation
  int admitted_tasks = 0;  ///< tasks admitted to this batch
  int deferred_tasks = 0;  ///< overflow tasks pushed to the next batch
  int queue_depth = 0;     ///< open tasks carried after the batch

  /// Streaming data-plane timings. `ingest_seconds` covers arrival
  /// ingest plus incremental row maintenance (overlapped with the
  /// previous solve when the pipeline is on — `pipelined` records where
  /// it ran); `index_build_seconds` covers the valid-pair build (in
  /// Run(), the instance construction too); `batch_seconds` is the
  /// batch's critical path, the quantity the run-level p50/p99 summarize:
  /// ingest + build + solve, where an overlapped ingest counts only the
  /// time it outlasted the solve it rode along.
  double ingest_seconds = 0.0;
  double index_build_seconds = 0.0;
  double batch_seconds = 0.0;
  bool pipelined = false;  ///< ingest ran overlapped with the prior solve

  /// Split of the streaming data-plane work (zero for RunBatch): delta
  /// splice into known rows (arrival grid included), fresh rows for new
  /// workers, and ingest_spatial_seconds, the build of the open-pool grid
  /// those fresh rows query, are parts of ingest_seconds;
  /// csr_emit_seconds is the CSR emission (on the engine's pool) inside
  /// index_build_seconds.
  double ingest_splice_seconds = 0.0;
  double ingest_fresh_rows_seconds = 0.0;
  double ingest_spatial_seconds = 0.0;
  double csr_emit_seconds = 0.0;

  /// Candidate-scan work across the phase-1 shard solvers: exact
  /// marginal evaluations performed (AssignerStats::candidates_evaluated).
  /// Phase-2 polishing is not included — the reconciler reports moves,
  /// not scan work.
  int64_t prune_evals = 0;
  /// Always 0: no solver skips candidates on upper bounds. Kept so
  /// readers of the metrics record (the JSON dump, the perfbench
  /// `algo.prune_skip_frac` layer) keep their schema.
  int64_t prune_skips = 0;

  /// Registry id of the ObjectiveModel the batch was scored under
  /// ("casc", "multiskill", ...).
  std::string objective;

  /// Candidate joins the objective's feasibility predicate rejected
  /// across the phase-1 shard solvers (AssignerStats::feasibility_rejects;
  /// always 0 under the default objective). Same phase-1-only scope as
  /// prune_evals.
  int64_t feasibility_rejects = 0;

  /// Shards the distributed path declared unrecoverable after exhausting
  /// failover this batch (always 0 in process). The lost shards' workers
  /// go through phase 2 like boundary workers; those still idle carry
  /// over to the next batch.
  int lost_shards = 0;

  /// Distributed-mode (simulated network) observability; all zero on the
  /// in-process path. Counters are per-batch deltas of the simulator's
  /// NetStats; RTT quantiles summarize per-shard dispatch -> result
  /// round-trip times at the coordinator (QuantileSketch).
  int64_t net_messages = 0;       ///< messages put on the wire
  int64_t net_bytes = 0;          ///< modeled payload bytes sent
  int64_t net_dropped = 0;        ///< drops (rng + partition + dead)
  int net_retries = 0;            ///< retransmissions after timeout
  int net_failovers = 0;          ///< shards re-dispatched to another node
  double net_rtt_p50_seconds = 0.0;
  double net_rtt_p99_seconds = 0.0;

  /// Compact JSON object (machine-readable bench/monitoring output).
  std::string ToJson() const;
};

/// A batch split for phase 1: its shard map, the per-shard problems and
/// the warm-start delta both phases use (null = cold).
struct BatchPartition {
  ShardMap map;
  std::vector<ShardProblem> problems;
  const SolveDelta* delta = nullptr;
};

/// The phase-1 prologue every sharded solver shares: gates `delta` with
/// UsableSolveDelta, maps the batch onto the S x S grid of `options`,
/// builds the shard problems with `executor` (slicing the usable delta)
/// and records the partition time, the shard loads and the objective
/// into `metrics`.
BatchPartition PartitionBatch(const Instance& instance,
                              const ShardedOptions& options,
                              const SolveDelta* delta, ShardExecutor* executor,
                              ServiceMetrics* metrics);

/// Folds one batch's solver telemetry into `metrics`: the per-shard
/// phase-1 AssignerStats (rounds as the max over shards — they run in
/// parallel, so that is the critical path; moves, the dirty frontier and
/// the scan counters as sums; warm if any shard warm-started) and the
/// phase-2 ReconcileStats.
void FoldSolveTelemetry(const std::vector<AssignerStats>& shard_stats,
                        const ReconcileStats& reconcile, int num_workers,
                        ServiceMetrics* metrics);

/// How DispatchService solves one admitted batch. The default
/// implementation is the in-process ShardedAssigner below; the net layer
/// injects a message-driven implementation (NetShardedAssigner) that runs
/// the same shard solvers on simulated nodes. Implementations must be
/// deterministic and must honor the ShardedAssigner determinism contract:
/// for a fixed instance and options the assignment is bit-identical to
/// the in-process path at zero network delay and zero loss.
class ShardedBatchSolver {
 public:
  virtual ~ShardedBatchSolver() = default;

  /// Solves one batch instance (valid pairs ready) into an assignment.
  virtual Assignment Solve(const Instance& instance) = 0;

  /// Per-batch observability of the most recent Solve().
  virtual const ServiceMetrics& metrics() const = 0;

  /// Lets the service lend its pooled solve-side workspace (may be null).
  virtual void AttachWorkspace(BatchWorkspace* workspace) = 0;

  /// Attaches the next Solve()'s cross-batch warm-start delta (may be
  /// null = cold). The delta must stay alive for the duration of that
  /// Solve(); the streaming loop re-attaches a fresh one every batch.
  /// Default: ignore it (a cold solver stays correct — the warm start is
  /// purely an optimization).
  virtual void SetSolveDelta(const SolveDelta* delta) { (void)delta; }
};

/// The sharded dispatch engine as a drop-in Assigner (Algorithm 1 line
/// 6): partitions the batch with a ShardMap, solves each shard's home
/// workers in parallel (ShardExecutor; boundary workers restricted to
/// home-shard tasks) and re-arbitrates the boundary workers
/// deterministically (BoundaryReconciler).
///
/// Determinism contract: for a fixed instance and options, the produced
/// assignment is identical regardless of num_threads (shard problems
/// are solved independently and folded in shard order; phase 2 moves
/// workers serially in ascending worker order, and the memo refresh it
/// runs on the pool only prices ahead). With shards_per_side == 1 the
/// result is bit-identical to running the factory's assigner directly.
class ShardedAssigner : public Assigner, public ShardedBatchSolver {
 public:
  /// `factory` creates the per-shard solver (see AssignerFactory's
  /// thread-safety and determinism requirements).
  ShardedAssigner(ShardedOptions options, AssignerFactory factory);

  std::string Name() const override;
  Assignment Run(const Instance& instance) override;

  // -- ShardedBatchSolver --
  Assignment Solve(const Instance& instance) override {
    return Run(instance);
  }
  void AttachWorkspace(BatchWorkspace* workspace) override {
    set_workspace(workspace);
  }
  void SetSolveDelta(const SolveDelta* delta) override {
    set_solve_delta(delta);
  }

  /// Shard/phase observability of the most recent Run(). Admission
  /// fields stay zero here — they belong to the DispatchService.
  const ServiceMetrics& metrics() const override { return metrics_; }

  const ShardedOptions& options() const { return options_; }

  /// The shard executor's pool, idle outside Run(). Run() lends it to
  /// the phase-2 polish; DispatchService lends it to every batch's
  /// valid-pair build (RunBatch) and CSR emission (Run).
  ThreadPool* pool() { return executor_.pool(); }

 private:
  ShardedOptions options_;
  AssignerFactory factory_;
  ShardExecutor executor_;
  BoundaryReconciler reconciler_;
  ServiceMetrics metrics_;
  std::string name_;
};

/// Per-batch configuration of the dispatch service.
struct DispatchConfig {
  ShardedOptions sharded;

  /// Minimum group size B per batch instance.
  int min_group_size = 3;

  /// Registry id of the ObjectiveModel every batch instance scores
  /// under ("casc", "multiskill", ...). Empty selects the process
  /// default — CascObjective, overridable by the CASC_OBJECTIVE
  /// environment variable (see ProcessDefaultObjective). An unknown id
  /// CHECK-fails at service construction.
  std::string objective;

  /// Wall-clock time between streaming batches.
  double batch_interval = 1.0;

  /// How long a started task occupies its workers (streaming mode).
  double task_duration = 1.0;

  /// Admission budget: at most this many open tasks enter one batch
  /// (earliest deadline first; ties by task id). 0 = unlimited.
  /// Overflow tasks stay queued and carry to the next batch until their
  /// deadlines expire.
  int max_tasks_per_batch = 0;

  /// Overlap batch N+1's ingest + incremental index maintenance with
  /// batch N's solve on a two-slot pipeline. The solved outputs are
  /// bit-identical to the sequential loop (the solver never reads the
  /// mutating cross-batch state; see StreamingPlane's pipelining
  /// contract).
  bool enable_pipeline = true;

  /// Differentially check every incrementally-built valid-pair index
  /// against a from-scratch build (slow; a test and debugging tool).
  bool audit_streaming = false;

  /// Seed each streaming batch's solve from the previous batch's
  /// committed equilibrium restricted to the still-present players, and
  /// converge only the dirty frontier (fresh workers / changed tasks).
  /// Off restores the cold per-batch solve exactly. The warm output is
  /// still a certified Nash equilibrium (the GT family's full
  /// verification pass runs unchanged), and batches with zero carry-over
  /// are bit-identical to the cold path.
  bool enable_warm_start = true;
};

/// Run-level latency distribution of a streaming Run(): per-batch
/// critical-path seconds (ServiceMetrics::batch_seconds) folded through
/// a QuantileSketch, so the service reports tail latency, not just means.
struct RunLatencyStats {
  int64_t batches = 0;
  double mean_seconds = 0.0;
  double p50_seconds = 0.0;
  double p99_seconds = 0.0;
  double max_seconds = 0.0;

  /// Rounds-to-convergence distribution over the run's batches
  /// (ServiceMetrics::solve_rounds through a QuantileSketch): the
  /// quantity the cross-batch warm start shrinks in steady state.
  double solve_rounds_p50 = 0.0;
  double solve_rounds_p99 = 0.0;

  /// Compact JSON object (bench/monitoring output).
  std::string ToJson() const;
};

/// One solved batch.
struct DispatchResult {
  Instance instance;        ///< the admitted instance (valid pairs ready)
  Assignment assignment;    ///< over `instance`
  std::vector<Task> deferred;  ///< tasks the admission budget rejected
  ServiceMetrics metrics;
  BatchMetrics batch;
};

/// The top-level dispatch layer: owns the sharded engine and an
/// admission queue, and turns the batch framework into a serving loop.
/// Workers' `.id` fields index `global_coop` (0 <= id < num_workers);
/// batch instances are built over zero-copy views of it.
class DispatchService {
 public:
  /// `global_coop` must outlive the service.
  DispatchService(DispatchConfig config,
                  const CooperationMatrix* global_coop,
                  AssignerFactory factory);

  /// Admits (budget permitting), shards, assigns and reconciles one
  /// batch at timestamp `now`. Deferred overflow tasks are returned to
  /// the caller (the streaming loop re-queues them).
  DispatchResult RunBatch(std::vector<Worker> workers,
                          std::vector<Task> tasks, double now);

  /// Streaming mode (Algorithm 1) — the library's one streaming loop:
  /// drives batches over the stream's arrivals with idle-worker/open-task
  /// carry-over, busy-worker bookkeeping and the admission budget; workers
  /// of a started task return after task_duration. Worker ids must be a
  /// permutation of 0..num_workers-1 (EventStream::HasDenseWorkerIds).
  /// With shards_per_side = 1 and no admission budget every batch is
  /// solved exactly as the factory's assigner would solve it alone.
  ///
  /// The cross-batch state lives in a StreamingPlane that delta-maintains
  /// the spatial index and valid-pair rows; batch N+1's ingest overlaps
  /// batch N's solve when enable_pipeline is set. Assignments, scores and
  /// carry-over are bit-identical in both pipeline modes and at any
  /// shard thread count.
  RunSummary Run(const EventStream& stream);

  /// Per-batch service metrics of the most recent Run()/RunBatch()
  /// sequence (parallel to RunSummary::batches for Run()).
  const std::vector<ServiceMetrics>& batch_metrics() const {
    return batch_metrics_;
  }

  /// Latency distribution of the most recent Run().
  const RunLatencyStats& run_latency() const { return run_latency_; }

  const DispatchConfig& config() const { return config_; }

  /// Replaces the in-process batch solver with `solver` (not owned; must
  /// outlive the service) — the seam the simulated-network layer uses to
  /// route batches through message-driven dispatch. The service lends the
  /// solver its pooled solve-side workspace. Pass nullptr to restore the
  /// built-in ShardedAssigner.
  void set_batch_solver(ShardedBatchSolver* solver);

  /// The built-in in-process engine (for tests comparing paths).
  ShardedAssigner& sharded_assigner() { return sharded_; }

 private:
  DispatchConfig config_;
  const CooperationMatrix* global_coop_;
  /// Objective resolved from config_.objective at construction (process
  /// default when the config id is empty); every batch instance is
  /// stamped with it before solving. Not owned (registry singleton).
  const ObjectiveModel* objective_ = nullptr;
  ShardedAssigner sharded_;
  ShardedBatchSolver* solver_ = nullptr;  ///< set in the constructor
  /// Double-buffered scratch: the build side pools the spatial scratch
  /// and CSR pair indexes the streaming plane's valid-pair build draws
  /// from; the solve side (attached to the sharded engine) pools
  /// assignments and keepers. The split keeps the two
  /// pipeline stages free of shared pooled state — the overlapped ingest
  /// never touches either workspace, and build N+1 can recycle into the
  /// build side while solve N's outputs are still live on the solve
  /// side.
  BatchWorkspace build_workspace_;
  BatchWorkspace solve_workspace_;
  std::vector<ServiceMetrics> batch_metrics_;
  RunLatencyStats run_latency_;
};

}  // namespace casc

#endif  // CASC_SERVICE_DISPATCH_SERVICE_H_
