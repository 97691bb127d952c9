#ifndef CASC_SIM_STREAMING_PLANE_H_
#define CASC_SIM_STREAMING_PLANE_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "model/assignment.h"
#include "model/batch_workspace.h"
#include "model/instance.h"
#include "model/solve_delta.h"
#include "model/task.h"
#include "model/worker.h"
#include "spatial/grid_index.h"

namespace casc {

/// Configuration of the incremental streaming data plane. The dispatch
/// service fills it from DispatchConfig.
struct StreamingPlaneConfig {
  /// Differential self-check: after every incremental emission, also run
  /// the from-scratch build and CHECK the two CSR indexes are
  /// byte-identical (ValidPairIndex::SameAs). Set from
  /// DispatchConfig::audit_streaming.
  bool audit = false;

  /// Track the cross-batch assignment skeleton and publish a SolveDelta
  /// each batch (BuildSolveDelta) so warm-capable solvers seed from the
  /// previous equilibrium. The delta is a pure function of the pool
  /// bookkeeping and the built instance, never of how the valid pairs
  /// were computed or on how many threads, which is what keeps warm runs
  /// bit-identical across every pipeline mode and thread count. Off
  /// restores pre-warm behavior exactly: BuildSolveDelta returns null and
  /// solvers run cold. Set from DispatchConfig::enable_warm_start.
  bool warm_start = true;
};

/// Where one Ingest() call's wall time went. Reset at the start of every
/// Ingest(); the pipelined service loop snapshots this right after the
/// overlapped ingest returns.
struct StreamingIngestStats {
  double splice_seconds = 0.0;        ///< delta splice into known rows
  double fresh_rows_seconds = 0.0;    ///< full queries for new workers
  double spatial_insert_seconds = 0.0;  ///< open-pool grid build
};

/// The cross-batch state of a streaming run (Algorithm 1), maintained
/// incrementally: the idle-worker pool, the open-task pool, the busy-
/// worker queue and a delta-maintained valid-pair row per worker.
/// Between consecutive batches the plane touches O(arrivals +
/// departures) rows instead of re-running one circle query per worker:
///
/// * New tasks are spliced into every known worker's row via a
///   GridIndex over just the arrivals.
/// * New workers get one circle query each against a GridIndex over the
///   whole open pool, built only by an Ingest() that brings new workers.
///   No task index outlives the Ingest() that built it, so departures
///   and expiries cost nothing beyond the row entries they kill.
/// * Surviving row entries only need a deadline re-check at emission,
///   and only when their task is admitted, because the two non-trivial
///   validity conditions of Definition 3 behave monotonically: the
///   working-area test is time-invariant, and CanArriveByDeadline(now)
///   implies CanArriveByDeadline(now') for every now' < now — so a pair
///   that is valid at emission time was valid when the row was spliced,
///   and a pair that fails the deadline re-check can never become valid
///   again (the entry is dropped permanently). An entry whose task the
///   budget defers stays in the row untested until a batch admits the
///   task or the task leaves the pool; the test at that later `now`
///   drops it exactly when an earlier test would have.
///
/// Rows are keyed by internal task *handles* (dense, monotonically
/// increasing), not pool slots or task ids: slots move on compaction and
/// external ids are not guaranteed unique. Rows therefore survive pool
/// reordering (EDF admission), task departures (lazy: the handle's slot
/// is -1 and the entry is dropped at the next emission) and worker busy
/// spells (rows of busy workers keep being spliced, so a returning worker
/// needs no rebuild).
///
/// One batch cycle, in order (DispatchService::Run's sequential loop):
///
///   Ingest(now, arrivals)        // appends workers, then tasks
///   StageReleases(now); FlushReleases();
///   Expire(now);
///   if (HasWork()) {
///     Admit(budget);             // EDF under the batch budget
///     MaterializeWorkers/MaterializeAdmittedTasks -> Instance
///     BuildValidPairs(&instance, &workspace, engine_pool);
///     ... solve ...
///     Commit(instance, assignment, now + task_duration);
///   }
///
/// Pipelining contract: between BuildValidPairs() and Commit(), the
/// methods Ingest() and StageReleases() for the *next* batch may run on a
/// different thread while the current instance is being solved — the
/// solver only reads the Instance (which owns copies), never the plane.
/// Appended arrivals land past the instance's prefix of the pools, so
/// Commit()'s stable compaction reproduces the sequential pool order
/// [survivors][arrivals][earlier releases][just-returned workers]
/// exactly; overlapping therefore never changes any output.
///
/// The plane owns no threads. Ingest() runs inline on its caller (the
/// pipeline slot that calls it). The CSR emission
/// (ValidPairIndex::BuildChunked) fans out over deterministic contiguous
/// ranges of worker slots on the pool the caller lends BuildValidPairs();
/// every row is independent of every other, so the CSR is byte-identical
/// at any width. The plane owns all its ingest scratch — it never touches
/// the service's BatchWorkspaces, which is what lets an overlapped
/// Ingest(N+1) run concurrently with solve(N) without sharing a single
/// allocation.
///
/// Not thread-safe beyond that contract: at most one mutating call at a
/// time.
class StreamingPlane {
 public:
  explicit StreamingPlane(StreamingPlaneConfig config);
  ~StreamingPlane();

  StreamingPlane(const StreamingPlane&) = delete;
  StreamingPlane& operator=(const StreamingPlane&) = delete;

  /// Appends this window's arrivals to the pools at batch time `now`,
  /// splices the tasks into every known worker's row (one query per
  /// worker against a grid over the arrivals) and computes fresh rows for
  /// the new workers (one query each against a grid over the open pool,
  /// arrivals included; built only when workers arrived, and timed into
  /// ingest_stats().spatial_insert_seconds).
  void Ingest(double now, std::span<const Worker> workers,
              std::span<const Task> tasks);

  /// Moves busy workers whose release time is <= `now` to the staged
  /// list, preserving their start order. Safe to call more than once per
  /// batch (the pipelined loop stages pre-existing releases during the
  /// overlap and the just-returned ones after Commit()).
  void StageReleases(double now);

  /// Appends the staged released workers to the idle pool.
  void FlushReleases();

  /// Drops open tasks whose deadline has passed (deadline < now), stably.
  void Expire(double now);

  /// True when both pools are non-empty (a batch can run).
  bool HasWork() const {
    return !pool_worker_handles_.empty() && !pool_tasks_.empty();
  }

  /// Selects this batch's tasks: all of them when `budget` <= 0 or the
  /// pool fits, else the earliest-deadline `budget` tasks (stable EDF,
  /// ties by task id — the admission order of the dispatch service).
  /// Instance task i corresponds to pool slot admitted()[i].
  void Admit(int budget);

  /// Pool slots of the admitted tasks, in instance task order. Valid
  /// until the next Commit()/Expire().
  std::span<const int32_t> admitted() const {
    return {admitted_.data(), static_cast<size_t>(admitted_count_)};
  }

  /// Tasks deferred by the last Admit()'s budget.
  int num_deferred() const {
    return static_cast<int>(admitted_.size()) - admitted_count_;
  }

  size_t num_pool_workers() const { return pool_worker_handles_.size(); }
  size_t num_pool_tasks() const { return pool_tasks_.size(); }

  /// Open tasks carried past the last Commit() (non-started admitted plus
  /// deferred), excluding any arrivals already ingested for the next
  /// batch — the queue-depth metric of the sequential loop.
  int queue_depth_after_commit() const { return committed_queue_depth_; }

  /// Copies the idle pool (in pool order) into `out` (cleared first).
  void MaterializeWorkers(std::vector<Worker>* out) const;

  /// Copies the admitted tasks (in instance order) into `out`.
  void MaterializeAdmittedTasks(std::vector<Task>* out) const;

  /// Fills `instance`'s valid pairs by emission from the maintained rows
  /// (audited against Instance::ComputeValidPairs() when configured). The
  /// instance must have been materialized from this plane's current
  /// pools/admission. Only row entries of admitted tasks are
  /// deadline-tested; entries of deferred tasks are kept as they are. The
  /// emission fans out on `pool` (the caller lends an idle pool, e.g. the
  /// shard engine's between solves, so it must not be running anything
  /// else) and runs inline when `pool` is null or has one thread. The
  /// emitted CSR is byte-identical to the from-scratch build at any
  /// width.
  void BuildValidPairs(Instance* instance, BatchWorkspace* workspace,
                       ThreadPool* pool);

  /// Publishes the cross-batch warm-start delta for the instance about to
  /// be solved: the previous equilibrium's skeleton remapped through the
  /// slot back-map onto this batch's indices, plus the dirty frontier
  /// (fresh workers, returners, workers whose seed pair died, and every
  /// candidate of a task that is new to the instance or whose retained
  /// group lost a member). Call after BuildValidPairs() and before the
  /// solve; returns null (cold) when warm start is disabled or no worker
  /// carries over — including always on the first batch — so the cold
  /// path stays bit-identical to pre-warm behavior. The returned pointer
  /// stays valid until the next BuildSolveDelta() call; the pipelined
  /// overlap may run the next Ingest() while a solver reads it (ingest
  /// never touches the delta).
  const SolveDelta* BuildSolveDelta(const Instance& instance);

  /// Commits the solved batch: workers of started groups (>= B members)
  /// go busy until `release_time`; started tasks leave the pool;
  /// non-started admitted tasks, deferred tasks and any overlapped
  /// arrivals remain, in exactly the sequential loop's carry-over order.
  void Commit(const Instance& instance, const Assignment& assignment,
              double release_time);

  /// Phase timings of the most recent Ingest() call.
  const StreamingIngestStats& ingest_stats() const { return ingest_stats_; }

  /// Prune + sort + CSR fill time of the most recent BuildValidPairs().
  double csr_emit_seconds() const { return csr_emit_seconds_; }

 private:

  /// Invalidates the handle of the task at pool `slot`. Row entries
  /// referencing it die lazily at the next emission.
  void RemoveTask(int32_t slot);

  /// Restores slot_of_handle_ after a pool compaction/reorder.
  void RefreshSlots();

  /// Appends, for each worker handle in [first, first + count), the row
  /// entries valid at `now` among `tasks` (a grid keyed by task handle)
  /// into that worker's row.
  void SpliceRows(int32_t first, size_t count, const GridIndex& tasks,
                  double now);

  /// Prunes rows_[handle of worker slot w] in place and appends the
  /// emitted instance indexes (sorted ascending) to `emit`. Entries of
  /// deferred tasks are kept without a deadline test.
  void EmitWorkerRow(WorkerIndex w, double now, std::vector<TaskIndex>* emit);

  StreamingPlaneConfig config_;

  /// Every worker ever seen, by handle; parallel to rows_.
  std::vector<Worker> worker_store_;
  /// Per-worker valid-task rows, entries are task handles (unordered).
  std::vector<std::vector<int32_t>> rows_;
  /// Idle pool, in the sequential loop's carry-over order (handles).
  std::vector<int32_t> pool_worker_handles_;

  /// Open-task pool in carry-over order, with parallel handles.
  std::vector<Task> pool_tasks_;
  std::vector<int32_t> pool_task_handles_;
  /// Task handle -> pool slot, -1 once the task left the pool. Grows by
  /// one entry per task ever ingested (4 bytes each).
  std::vector<int32_t> slot_of_handle_;

  /// Busy workers as (release time, handle), in start order.
  std::vector<std::pair<double, int32_t>> busy_;
  std::vector<int32_t> staged_releases_;

  /// Ingest's task grid, keyed by handle: over the arrivals for the
  /// splice, then rebuilt over the open pool for fresh rows. Kept as a
  /// member only to reuse its storage; nothing reads it after Ingest().
  GridIndex task_grid_;
  std::vector<SpatialItem> grid_items_;  ///< its Build() input
  std::vector<int64_t> query_;           ///< SpliceRows' circle query

  /// Admission state of the current batch.
  std::vector<int32_t> admitted_;  ///< permutation of slots (prefix used)
  int admitted_count_ = 0;
  size_t pool_size_at_admit_ = 0;
  int committed_queue_depth_ = 0;

  /// Emission scratch (reused across batches).
  std::vector<int32_t> instance_index_of_slot_;
  std::vector<int32_t> emit_row_;
  std::vector<Task> scratch_tasks_;
  std::vector<int32_t> scratch_handles_;

  /// Warm-start skeleton state (config_.warm_start). Seeds and presence
  /// stamps are keyed by handle, like rows_/slot_of_handle_: a worker
  /// (task) is carried into the next solve iff its stamp equals the
  /// previous BuildSolveDelta() sequence number, which makes returners
  /// from busy spells, skipped no-work batches and overlap arrivals all
  /// read as fresh/dirty without any per-batch set differencing.
  std::vector<int32_t> seed_task_of_worker_;  ///< by worker handle; -1 idle
  std::vector<int64_t> worker_solved_stamp_;  ///< by worker handle
  std::vector<int64_t> task_solved_stamp_;    ///< by task handle
  /// Fresh candidates a standing task accumulated since its last
  /// re-seed, by task handle — drives the retry-epoch re-entry
  /// (kWarmRetryEpoch in streaming_plane.cpp).
  std::vector<int32_t> task_fresh_candidates_;
  int64_t solve_seq_ = 0;
  std::vector<int32_t> task_instance_of_handle_;  ///< per-batch scratch
  std::vector<uint8_t> group_lost_;               ///< per-batch scratch
  SolveDelta delta_;

  /// Per-chunk emission buffers, kept across batches (their count follows
  /// the lent pool). Chunk k of the emission owns entry k exclusively.
  std::vector<std::vector<TaskIndex>> emit_buffers_;
  StreamingIngestStats ingest_stats_;
  double csr_emit_seconds_ = 0.0;
};

}  // namespace casc

#endif  // CASC_SIM_STREAMING_PLANE_H_
