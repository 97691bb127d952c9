#ifndef CASC_MODEL_VALID_PAIR_INDEX_H_
#define CASC_MODEL_VALID_PAIR_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "model/worker.h"

namespace casc {

/// CSR (compressed sparse row) store of the valid worker-and-task pairs
/// (Definition 3), flat in both directions:
///
///   task_flat_[task_offsets_[w] .. task_offsets_[w+1])   = T_i of worker w
///   worker_flat_[worker_offsets_[t] .. worker_offsets_[t+1]) = candidates
///                                                              of task t
///
/// Both directions keep ascending index order, matching what the nested
/// `vector<vector<...>>` representation produced. The index is built once
/// per batch (worker-major) and the task-major direction is derived by a
/// counting pass in FinishBuild(); shard views adopt a pre-remapped
/// instance of this class zero-copy (Instance::AdoptValidPairs).
///
/// Reuse contract: Clear() and BeginBuild() never release the backing
/// arrays, so a pooled index (BatchWorkspace) reaches a steady state with
/// zero allocations per batch. Growth events of the backing arrays are
/// counted process-wide (TotalReallocs) for the data-plane tests.
class ValidPairIndex {
 public:
  ValidPairIndex() = default;

  /// Build protocol (worker-major, ascending):
  ///   BeginBuild(W, T);
  ///   for w = 0..W-1: AppendValidTask(t)...; FinishWorker();
  ///   FinishBuild();
  void BeginBuild(int num_workers, int num_tasks);

  /// Appends one valid task for the worker currently being built.
  /// Tasks must arrive in ascending order per worker.
  void AppendValidTask(TaskIndex t);

  /// Seals the current worker's row. Must be called exactly num_workers
  /// times between BeginBuild() and FinishBuild().
  void FinishWorker();

  /// Derives the task-major (candidates) direction and makes the index
  /// ready. Candidates come out in ascending worker order because workers
  /// are scanned in ascending order.
  void FinishBuild();

  /// Parallel build protocol (counting pass -> exclusive prefix sum ->
  /// parallel fill), used by the streaming plane's fanned-out CSR
  /// emission. The caller computes every row length up front, writes the
  /// final worker-major offsets directly, then fills the flat array with
  /// each worker's tasks (ascending per worker) through disjoint ranges —
  /// safe from many threads because no two workers share a range:
  ///
  ///   int32_t* offsets = index.StartParallelBuild(W, T);
  ///   offsets[0] = 0; offsets[w + 1] = offsets[w] + row_length(w);
  ///   TaskIndex* flat = index.AllocateParallelFlat();
  ///   // fill flat[offsets[w] .. offsets[w+1]) per worker, any order of
  ///   // workers across threads
  ///   index.FinishParallelBuild();
  ///
  /// The resulting arrays are byte-identical to a serial
  /// BeginBuild/AppendValidTask/FinishWorker/FinishBuild sequence
  /// appending the same rows.
  int32_t* StartParallelBuild(int num_workers, int num_tasks);

  /// Sizes the worker-major flat array to offsets[num_workers] (which the
  /// caller must have filled) and returns it for parallel writing.
  TaskIndex* AllocateParallelFlat();

  /// Seals a StartParallelBuild() construction: checks the offsets are
  /// monotone, derives the task-major direction and makes the index ready.
  void FinishParallelBuild();

  /// True between FinishBuild() and the next Clear()/BeginBuild().
  bool ready() const { return ready_; }

  int num_workers() const {
    return static_cast<int>(task_offsets_.size()) - 1;
  }
  int num_tasks() const {
    return static_cast<int>(worker_offsets_.size()) - 1;
  }

  /// Valid tasks T_i for worker `w`, ascending. Requires ready().
  std::span<const TaskIndex> ValidTasks(WorkerIndex w) const;

  /// Position of ValidTasks(w)[0] in the worker-major pair order:
  /// ValidTasks(w)[k] is pair number ValidTaskOffset(w) + k of
  /// [0, NumValidPairs()). Lets callers keep one slot per valid pair in a
  /// flat array. Requires ready().
  size_t ValidTaskOffset(WorkerIndex w) const;

  /// Candidate workers for task `t`, ascending. Requires ready().
  std::span<const WorkerIndex> Candidates(TaskIndex t) const;

  /// Total number of valid pairs, O(1).
  size_t NumValidPairs() const { return task_flat_.size(); }

  /// True when both indexes are ready and hold byte-identical CSR arrays
  /// (offsets and flats in both directions). The streaming plane's
  /// differential audit (CASC_STREAM_AUDIT) compares its delta-maintained
  /// index against a from-scratch rebuild with this.
  bool SameAs(const ValidPairIndex& other) const;

  /// Returns to the not-ready state keeping all capacity (pooling hook).
  void Clear();

  /// Process-wide count of backing-array growth events. Steady-state
  /// streaming batches must not move this counter.
  static int64_t TotalReallocs();

 private:
  /// Counting pass + prefix sum + cursor fill turning the worker-major
  /// arrays into the task-major direction; shared tail of FinishBuild()
  /// and FinishParallelBuild().
  void DeriveTaskMajor();

  bool ready_ = false;
  bool building_ = false;
  int expected_workers_ = 0;
  int built_workers_ = 0;
  std::vector<int32_t> task_offsets_;     // num_workers + 1
  std::vector<TaskIndex> task_flat_;      // worker-major valid tasks
  std::vector<int32_t> worker_offsets_;   // num_tasks + 1
  std::vector<WorkerIndex> worker_flat_;  // task-major candidates
  std::vector<int32_t> cursor_;           // FinishBuild scratch
};

}  // namespace casc

#endif  // CASC_MODEL_VALID_PAIR_INDEX_H_
