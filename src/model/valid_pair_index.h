#ifndef CASC_MODEL_VALID_PAIR_INDEX_H_
#define CASC_MODEL_VALID_PAIR_INDEX_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/thread_pool.h"
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

  /// Chunked two-pass build, the one way to fill the index from rows that
  /// are computed independently per worker, on `pool` or inline:
  ///   1. each chunk of the ThreadPool::ChunkBounds split of [0, W) into
  ///      `chunks` appends its workers' rows, in worker order, to its own
  ///      buffer through append_row(chunk, w, &buffer) (ascending tasks per
  ///      row, one call per row), and each row's length lands in the
  ///      offsets;
  ///   2. a serial prefix sum turns the lengths into offsets;
  ///   3. each chunk copies its buffer into the flat array in one piece.
  /// No row's content depends on another's, so the arrays are
  /// byte-identical to a serial BeginBuild/AppendValidTask/FinishWorker/
  /// FinishBuild sequence appending the same rows, at any chunk count.
  ///
  /// `buffers` is resized to at least `chunks` and keeps its capacity, for
  /// a caller that builds every batch. Null builds into per-call buffers,
  /// freed before the task-major pass so that pass reuses their memory.
  template <typename AppendRow>
  void BuildChunked(int num_workers, int num_tasks, ThreadPool* pool,
                    int chunks, std::vector<std::vector<TaskIndex>>* buffers,
                    AppendRow&& append_row);

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
  /// differential audit (DispatchConfig::audit_streaming) compares its
  /// delta-maintained index against a from-scratch rebuild with this.
  bool SameAs(const ValidPairIndex& other) const;

  /// Returns to the not-ready state keeping all capacity (pooling hook).
  void Clear();

  /// Process-wide count of backing-array growth events. Steady-state
  /// streaming batches must not move this counter.
  static int64_t TotalReallocs();

 private:
  /// BuildChunked's steps: size the offsets (returned for the caller to
  /// fill with final offsets), size the flat array to offsets[W] (returned
  /// for disjoint per-row writes), then check the offsets, derive the
  /// task-major direction and make the index ready.
  int32_t* StartParallelBuild(int num_workers, int num_tasks);
  TaskIndex* AllocateParallelFlat();
  void FinishParallelBuild();

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

template <typename AppendRow>
void ValidPairIndex::BuildChunked(int num_workers, int num_tasks,
                                  ThreadPool* pool, int chunks,
                                  std::vector<std::vector<TaskIndex>>* buffers,
                                  AppendRow&& append_row) {
  std::vector<std::vector<TaskIndex>> per_call;
  std::vector<std::vector<TaskIndex>>& rows =
      buffers != nullptr ? *buffers : per_call;
  if (rows.size() < static_cast<size_t>(chunks)) {
    rows.resize(static_cast<size_t>(chunks));
  }
  int32_t* offsets = StartParallelBuild(num_workers, num_tasks);
  offsets[0] = 0;
  ThreadPool::RunChunks(
      pool, num_workers, chunks, [&](int chunk, int64_t begin, int64_t end) {
        // Appended through a local: the chunks' vector headers sit side by
        // side, and writing them on every append would share cache lines.
        std::vector<TaskIndex> buffer =
            std::move(rows[static_cast<size_t>(chunk)]);
        buffer.clear();
        for (int64_t w = begin; w < end; ++w) {
          const size_t row_start = buffer.size();
          append_row(chunk, static_cast<WorkerIndex>(w), &buffer);
          offsets[w + 1] = static_cast<int32_t>(buffer.size() - row_start);
        }
        rows[static_cast<size_t>(chunk)] = std::move(buffer);
      });
  for (int w = 0; w < num_workers; ++w) offsets[w + 1] += offsets[w];
  TaskIndex* flat = AllocateParallelFlat();
  ThreadPool::RunChunks(
      pool, num_workers, chunks, [&](int chunk, int64_t begin, int64_t) {
        const std::vector<TaskIndex>& buffer = rows[static_cast<size_t>(chunk)];
        std::copy(buffer.begin(), buffer.end(), flat + offsets[begin]);
      });
  per_call = {};
  FinishParallelBuild();
}

}  // namespace casc

#endif  // CASC_MODEL_VALID_PAIR_INDEX_H_
