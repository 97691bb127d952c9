#ifndef CASC_MODEL_BATCH_WORKSPACE_H_
#define CASC_MODEL_BATCH_WORKSPACE_H_

#include <cerrno>
#include <cstdlib>
#include <limits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "kernel/coop_tile.h"
#include "model/assignment.h"
#include "model/objective_model.h"
#include "model/score_keeper.h"
#include "model/valid_pair_index.h"
#include "spatial/spatial_index.h"

namespace casc {

/// Pools the per-batch scratch state of the hot data plane — CSR
/// valid-pair indexes, slab-backed assignments, score keepers and spatial
/// scratch — so the streaming loop and per-shard solvers stop paying
/// allocation churn on every batch. Acquire hands out a recycled object
/// (or a fresh one on first use); Recycle returns it once the batch is
/// committed. After the warm-up batch a steady-state stream performs
/// zero group-store / pair-index heap allocations (asserted by
/// bench_micro_data_plane via GroupStore/ValidPairIndex::TotalReallocs).
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

  /// Scratch buffer for spatial-index bulk loads (ComputeValidPairs).
  std::vector<SpatialItem>& spatial_items() { return spatial_items_; }

  /// The workspace's CoopTile for `instance`'s cooperation matrix, or
  /// nullptr when tiling is gated off (matrix larger than the
  /// CASC_TILE_MAX_WORKERS ceiling, default 2048 — a dense tile at
  /// city scale would dwarf the problem itself). The tile is cached by
  /// (CooperationMatrix::IdentityHash, objective identity), so a
  /// steady-state stream whose batches view the same matrix under the
  /// same objective rebuilds nothing. The objective key is a
  /// correctness guard for the pluggable scoring layer: today's tile
  /// holds only raw pair affinities (objective-independent), but an
  /// objective is free to grow tile-resident precomputation later, and
  /// a cache hit across objectives would then serve stale data — the
  /// same staleness class the matrix identity hash already guards. The
  /// pointer stays valid until the next PrepareCoopTile call with a
  /// *different* (matrix, objective) key; keepers drawn from this
  /// workspace within one batch all see the same tile.
  const CoopTile* PrepareCoopTile(const Instance& instance) {
    const CooperationMatrix& coop = instance.coop();
    if (coop.num_workers() > TileMaxWorkers()) {
      tile_.Clear();
      tile_objective_ = nullptr;
      return nullptr;
    }
    const uint64_t identity = coop.IdentityHash();
    const ObjectiveModel* objective = &instance.objective();
    if (tile_.built() && tile_.source_identity() == identity &&
        tile_objective_ == objective) {
      return &tile_;
    }
    if (!tile_.BuildFrom(coop, TileMaxWorkers())) {
      tile_objective_ = nullptr;
      return nullptr;
    }
    tile_objective_ = objective;
    return &tile_;
  }

 private:
  /// Tile worker-count ceiling: CASC_TILE_MAX_WORKERS (a non-negative
  /// integer, 0 disables tiling; anything else CHECK-fails), default
  /// 2048. Read once per process.
  static int TileMaxWorkers() {
    static const int kMax = [] {
      const char* env = std::getenv("CASC_TILE_MAX_WORKERS");
      if (env == nullptr) return 2048;
      char* end = nullptr;
      errno = 0;
      const long value = std::strtol(env, &end, 10);
      CASC_CHECK(end != env && *end == '\0' && errno == 0 && value >= 0 &&
                 value <= std::numeric_limits<int>::max())
          << "CASC_TILE_MAX_WORKERS must be a non-negative integer, got '"
          << env << "'";
      return static_cast<int>(value);
    }();
    return kMax;
  }

  std::vector<ValidPairIndex> pair_indexes_;
  std::vector<Assignment> assignments_;
  std::vector<ScoreKeeper> keepers_;
  std::vector<SpatialItem> spatial_items_;
  CoopTile tile_;
  /// Objective half of the tile cache key (objectives are process-wide
  /// singletons, so pointer identity is objective identity). Not owned.
  const ObjectiveModel* tile_objective_ = nullptr;
};

}  // namespace casc

#endif  // CASC_MODEL_BATCH_WORKSPACE_H_
