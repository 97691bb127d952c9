#include "spatial/grid_index.h"

#include <algorithm>

#include "common/check.h"
#include "geo/rect.h"

namespace casc {

GridIndex::GridIndex(int cells_per_side) : cells_per_side_(cells_per_side) {
  CASC_CHECK_GE(cells_per_side, 1);
  cells_.resize(static_cast<size_t>(cells_per_side) * cells_per_side);
}

int GridIndex::CellOf(double coord) const {
  const int cell = static_cast<int>(coord * cells_per_side_);
  return std::clamp(cell, 0, cells_per_side_ - 1);
}

const std::vector<SpatialItem>& GridIndex::Cell(int cx, int cy) const {
  return cells_[static_cast<size_t>(cy) * cells_per_side_ + cx];
}

void GridIndex::Insert(const SpatialItem& item) {
  const int cx = CellOf(item.location.x);
  const int cy = CellOf(item.location.y);
  cells_[static_cast<size_t>(cy) * cells_per_side_ + cx].push_back(item);
  ++size_;
}

void GridIndex::Build(const std::vector<SpatialItem>& items) {
  for (auto& cell : cells_) cell.clear();
  size_ = 0;
  for (const auto& item : items) Insert(item);
}

void GridIndex::CircleQueryInto(const Point& center, double radius,
                                std::vector<int64_t>* out) const {
  out->clear();
  if (radius < 0.0) return;
  const Rect box = Rect::FromCircle(center, radius);
  const double r2 = radius * radius;
  const int x_lo = CellOf(box.min_x);
  const int x_hi = CellOf(box.max_x);
  const int y_lo = CellOf(box.min_y);
  const int y_hi = CellOf(box.max_y);
  for (int cy = y_lo; cy <= y_hi; ++cy) {
    for (int cx = x_lo; cx <= x_hi; ++cx) {
      for (const auto& item : Cell(cx, cy)) {
        if (SquaredDistance(center, item.location) <= r2) {
          out->push_back(item.id);
        }
      }
    }
  }
  std::sort(out->begin(), out->end());
}

}  // namespace casc
