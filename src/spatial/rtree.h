#ifndef CASC_SPATIAL_RTREE_H_
#define CASC_SPATIAL_RTREE_H_

#include <memory>
#include <vector>

#include "spatial/spatial_index.h"

namespace casc {

/// An R-tree over 2-D points, the index the paper cites ([24]) for the
/// working-area range queries of the batch framework (Algorithm 1).
///
/// * Bulk loading uses Sort-Tile-Recursive (STR), producing a packed tree;
///   the batch framework rebuilds the task index once per batch, so this
///   is the common path.
/// * Incremental Insert() uses Guttman's least-enlargement descent with
///   quadratic split.
/// * Incremental Remove() deletes the item from its leaf without
///   condensing: bounding boxes are left loose (still containing, so
///   queries stay correct) and emptied nodes are pruned. Every removal is
///   counted in removed_since_build(); once the count passes a caller-
///   chosen tombstone threshold, the accumulated slack makes a fresh
///   Build() cheaper than continuing to query the degraded tree — the
///   streaming plane rebuilds at removed_since_build() >
///   fraction * Size().
/// * Queries: circle (the working area).
///
/// The streaming plane's persistent task index is the only mutated one,
/// so Remove() and InsertBatch() live here rather than on SpatialIndex.
class RTree : public SpatialIndex {
 public:
  /// Tree node; opaque to callers, public so internal helpers can name it.
  struct Node;

  /// Creates an R-tree with the given node fan-out bounds.
  /// Requires 2 <= min_entries <= max_entries / 2.
  explicit RTree(int max_entries = 16, int min_entries = 4);
  ~RTree() override;

  RTree(const RTree&) = delete;
  RTree& operator=(const RTree&) = delete;
  RTree(RTree&&) = default;
  RTree& operator=(RTree&&) = default;

  void Insert(const SpatialItem& item) override;
  void Build(const std::vector<SpatialItem>& items) override;

  /// Removes one item previously inserted with exactly this (id, location)
  /// pair; returns false (and changes nothing) when no such item exists.
  /// With duplicates, removes one arbitrary matching copy.
  bool Remove(const SpatialItem& item);

  /// Guttman-inserts small batches; once the batch reaches half the live
  /// size, collects the tree and STR-rebuilds over old + new instead
  /// (cheaper than n/2 one-by-one descents, and it resets any loose
  /// bounds accumulated by removals). Either path yields the same query
  /// results — all queries sort by id — so callers never observe which
  /// one ran.
  void InsertBatch(const std::vector<SpatialItem>& items);
  void CircleQueryInto(const Point& center, double radius,
                       std::vector<int64_t>* out) const override;
  size_t Size() const override { return size_; }

  /// Removals applied since the last Build() (or construction). Loose
  /// bounds accumulate with each removal; callers compare this against
  /// their tombstone threshold to decide when to rebuild.
  int64_t removed_since_build() const { return removed_since_build_; }

  /// Height of the tree (0 for empty, 1 for a single leaf).
  int Height() const;

  /// Verifies structural invariants (bounding boxes tight enough to
  /// contain children, fan-out bounds, uniform leaf depth); CHECK-fails on
  /// violation. Exposed for tests.
  void CheckInvariants() const;

 private:
  /// Removes one (id, location) match under `node`; returns true when
  /// found. Prunes children that become empty.
  bool RemoveFrom(Node* node, const SpatialItem& item);

  /// Appends every stored item under `node` to `out` (traversal order).
  static void CollectInto(const Node* node, std::vector<SpatialItem>* out);

  std::unique_ptr<Node> root_;
  int max_entries_;
  int min_entries_;
  size_t size_ = 0;
  int64_t removed_since_build_ = 0;
};

}  // namespace casc

#endif  // CASC_SPATIAL_RTREE_H_
