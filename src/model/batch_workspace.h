#ifndef CASC_MODEL_BATCH_WORKSPACE_H_
#define CASC_MODEL_BATCH_WORKSPACE_H_

#include <utility>
#include <vector>

#include "model/assignment.h"
#include "model/score_keeper.h"
#include "model/valid_pair_index.h"
#include "spatial/grid_index.h"

namespace casc {

class CoopTile;

/// Pools the per-batch scratch state of the hot data plane — CSR
/// valid-pair indexes, slab-backed assignments, score keepers and spatial
/// scratch — so the streaming loop and per-shard solvers stop paying
/// allocation churn on every batch. Acquire hands out a recycled object
/// (or a fresh one on first use); Recycle returns it once the batch is
/// committed. After the warm-up batch a steady-state stream performs
/// zero group-store / pair-index heap allocations (asserted by
/// data_plane_test via GroupStore/ValidPairIndex::TotalReallocs).
///
/// Not thread-safe: one workspace per thread (the shard executor keeps
/// one per shard slot).
class BatchWorkspace {
 public:
  BatchWorkspace() = default;
  BatchWorkspace(const BatchWorkspace&) = delete;
  BatchWorkspace& operator=(const BatchWorkspace&) = delete;

  /// A cleared pair index whose backing arrays keep their capacity.
  ValidPairIndex AcquireValidPairIndex() {
    if (pair_indexes_.empty()) return ValidPairIndex{};
    ValidPairIndex out = std::move(pair_indexes_.back());
    pair_indexes_.pop_back();
    out.Clear();
    return out;
  }

  void Recycle(ValidPairIndex index) {
    pair_indexes_.push_back(std::move(index));
  }

  /// An empty assignment shaped for `instance`, backing arrays reused.
  Assignment AcquireAssignment(const Instance& instance) {
    if (assignments_.empty()) return Assignment(instance);
    Assignment out = std::move(assignments_.back());
    assignments_.pop_back();
    out.Reset(instance);
    return out;
  }

  void Recycle(Assignment assignment) {
    assignments_.push_back(std::move(assignment));
  }

  /// A detached keeper rebound to `instance` (Sync() to attach).
  ScoreKeeper AcquireScoreKeeper(const Instance& instance) {
    if (keepers_.empty()) return ScoreKeeper(instance);
    ScoreKeeper out = std::move(keepers_.back());
    keepers_.pop_back();
    out.Rebind(instance);
    return out;
  }

  void Recycle(ScoreKeeper keeper) { keepers_.push_back(std::move(keeper)); }

  /// Scratch item list for the task grid of ComputeValidPairs().
  std::vector<SpatialItem>& spatial_items() { return spatial_items_; }

  /// Kept only for the benchmark's layer probe, which still times this
  /// call. The workspace builds no CoopTile (the type is only declared),
  /// so the result is always nullptr. Nothing in the library calls it.
  const CoopTile* PrepareCoopTile(const Instance&) const { return nullptr; }

 private:
  std::vector<ValidPairIndex> pair_indexes_;
  std::vector<Assignment> assignments_;
  std::vector<ScoreKeeper> keepers_;
  std::vector<SpatialItem> spatial_items_;
};

}  // namespace casc

#endif  // CASC_MODEL_BATCH_WORKSPACE_H_
