#include "spatial/linear_scan.h"

#include <algorithm>

namespace casc {

void LinearScan::Insert(const SpatialItem& item) { items_.push_back(item); }

void LinearScan::Build(const std::vector<SpatialItem>& items) {
  items_ = items;
}

void LinearScan::CircleQueryInto(const Point& center, double radius,
                                 std::vector<int64_t>* out) const {
  const double r2 = radius * radius;
  out->clear();
  for (const auto& item : items_) {
    if (SquaredDistance(center, item.location) <= r2) out->push_back(item.id);
  }
  std::sort(out->begin(), out->end());
}

}  // namespace casc
