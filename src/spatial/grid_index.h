#ifndef CASC_SPATIAL_GRID_INDEX_H_
#define CASC_SPATIAL_GRID_INDEX_H_

#include <cstdint>
#include <vector>

#include "geo/point.h"

namespace casc {

/// An indexed point with an opaque caller-owned identifier (a task index
/// in an Instance, a task handle in the streaming plane).
struct SpatialItem {
  int64_t id = 0;
  Point location;
};

/// The spatial index behind Algorithm 1 lines 4-5: the tasks inside each
/// worker's working area. A uniform grid over the items' bounding box,
/// built once from a list of items and then only queried. Every use
/// builds a fresh one (one per ComputeValidPairs() call, two per
/// streaming ingest), so there is no insert, remove or rebuild policy.
///
/// Build() sizes the grid from the item count alone:
///
/// * below 16 items, one cell. Building any finer index costs more than
///   the handful of comparisons per query it would save. The cutoff was
///   measured on the streaming splice, which queries a small arrival
///   index once per known worker (so at 1M workers even a ~40-item
///   index deserves cell pruning): the grid overtakes a brute-force scan
///   between ~12 and ~24 items for the small working radii large worlds
///   use, and 16 sits in that window on every host tried (EXPERIMENTS.md,
///   the probe-sizing note).
/// * otherwise floor(sqrt(n)) cells per side, about one item per cell so
///   a cell walk stays O(output), clamped to [8, 64] so small sets keep
///   cells coarse enough to be worth walking and huge sets do not
///   allocate a million empty cells.
///
/// The grid spans the bounding box, not [0,1]^2, so coordinates far
/// outside the unit square (a loaded instance) still spread over the
/// cells. An axis of zero width gets one cell. Queries outside the box
/// clamp into the edge cells, so every query is exact whatever its
/// coordinates.
///
/// Queries are const and touch no shared state: any number of threads
/// may query one built index concurrently.
class GridIndex {
 public:
  /// Replaces the contents with `items` and sizes the grid for them.
  void Build(const std::vector<SpatialItem>& items);

  /// Ids of all items within `radius` of `center` (boundary inclusive),
  /// in ascending id order, written into a caller-owned buffer: `out` is
  /// cleared and refilled, reusing its capacity, so the per-worker
  /// queries of a streaming batch allocate nothing. A negative radius
  /// matches nothing.
  void CircleQueryInto(const Point& center, double radius,
                       std::vector<int64_t>* out) const;

  /// CircleQueryInto() into a fresh vector.
  std::vector<int64_t> CircleQuery(const Point& center, double radius) const;

  /// Number of stored items.
  size_t Size() const { return items_.size(); }

  /// Cells along each axis of the last Build().
  int cells_x() const { return cells_x_; }
  int cells_y() const { return cells_y_; }

 private:
  /// The cell along one axis holding `coord`, clamped into [0, cells).
  static int CellOf(double coord, double origin, double scale, int cells);

  /// Row-major index of the cell holding `p`.
  size_t CellIndex(const Point& p) const;

  int cells_x_ = 1;
  int cells_y_ = 1;
  double origin_x_ = 0.0;
  double origin_y_ = 0.0;
  double scale_x_ = 0.0;  ///< cells_x_ / box width (0 for one cell)
  double scale_y_ = 0.0;
  /// Items grouped by row-major cell; cell c holds
  /// items_[cell_start_[c], cell_start_[c + 1]), in input order.
  std::vector<SpatialItem> items_;
  std::vector<int32_t> cell_start_ = {0, 0};
};

}  // namespace casc

#endif  // CASC_SPATIAL_GRID_INDEX_H_
