#ifndef CASC_SPATIAL_SPATIAL_INDEX_H_
#define CASC_SPATIAL_SPATIAL_INDEX_H_

#include <cstdint>
#include <vector>

#include "geo/point.h"

namespace casc {

/// An indexed point with an opaque caller-owned identifier (a task or
/// worker index in the model layer).
struct SpatialItem {
  int64_t id = 0;
  Point location;
};

/// Interface for 2-D point indexes used by the batch framework to retrieve
/// the valid tasks inside each worker's working area (Algorithm 1, lines
/// 4-5). Implementations: RTree (the task index), GridIndex and
/// LinearScan (per-batch probe indexes; LinearScan is also the test
/// reference).
class SpatialIndex {
 public:
  virtual ~SpatialIndex() = default;

  /// Adds one item. Duplicate ids are allowed and returned independently.
  virtual void Insert(const SpatialItem& item) = 0;

  /// Bulk-loads `items`, replacing current contents.
  virtual void Build(const std::vector<SpatialItem>& items) = 0;

  /// Ids of all items within `radius` of `center` (boundary inclusive),
  /// in ascending id order, written into a caller-owned buffer: `out` is
  /// cleared and refilled, reusing its capacity. Hot streaming paths
  /// issue one circle query per worker per batch; the reused buffer
  /// removes that allocation churn entirely.
  virtual void CircleQueryInto(const Point& center, double radius,
                               std::vector<int64_t>* out) const = 0;

  /// CircleQueryInto() into a fresh vector.
  std::vector<int64_t> CircleQuery(const Point& center, double radius) const;

  /// Number of stored items.
  virtual size_t Size() const = 0;
};

}  // namespace casc

#endif  // CASC_SPATIAL_SPATIAL_INDEX_H_
