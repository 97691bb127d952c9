#include "spatial/grid_index.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>

#include "common/check.h"
#include "geo/rect.h"

namespace casc {
namespace {

/// Below this many items the grid is one cell (see the class comment).
constexpr size_t kOneCellBelow = 16;

int CellsPerSide(size_t n) {
  if (n < kOneCellBelow) return 1;
  return std::clamp(static_cast<int>(std::sqrt(static_cast<double>(n))), 8,
                    64);
}

/// Cells along one axis spanning [lo, hi]; sets the axis origin and
/// scale. An empty, degenerate or overflowing (infinite-width) axis gets
/// one cell and a zero scale.
int SizeAxis(int side, double lo, double hi, double* origin, double* scale) {
  const double width = hi - lo;
  *origin = lo;
  if (side == 1 || !(width > 0.0) || !std::isfinite(width)) {
    *scale = 0.0;
    return 1;
  }
  *scale = side / width;
  return side;
}

}  // namespace

int GridIndex::CellOf(double coord, double origin, double scale, int cells) {
  // Clamp in double before the cast: converting a finite double outside
  // int's range is undefined, and a NaN position (an infinite offset
  // times a zero scale) must land in a cell too, so it takes cell 0.
  const double pos = (coord - origin) * scale;
  if (!(pos > 0.0)) return 0;
  if (pos >= static_cast<double>(cells - 1)) return cells - 1;
  return static_cast<int>(pos);
}

size_t GridIndex::CellIndex(const Point& p) const {
  return static_cast<size_t>(CellOf(p.y, origin_y_, scale_y_, cells_y_)) *
             static_cast<size_t>(cells_x_) +
         static_cast<size_t>(CellOf(p.x, origin_x_, scale_x_, cells_x_));
}

void GridIndex::Build(const std::vector<SpatialItem>& items) {
  CASC_CHECK_LE(items.size(),
                static_cast<size_t>(std::numeric_limits<int32_t>::max()));
  double min_x = std::numeric_limits<double>::infinity();
  double min_y = min_x;
  double max_x = -min_x;
  double max_y = -min_x;
  for (const SpatialItem& item : items) {
    min_x = std::min(min_x, item.location.x);
    min_y = std::min(min_y, item.location.y);
    max_x = std::max(max_x, item.location.x);
    max_y = std::max(max_y, item.location.y);
  }
  const int side = CellsPerSide(items.size());
  cells_x_ = SizeAxis(side, min_x, max_x, &origin_x_, &scale_x_);
  cells_y_ = SizeAxis(side, min_y, max_y, &origin_y_, &scale_y_);

  // Counting sort by row-major cell, stable within a cell.
  const size_t num_cells = static_cast<size_t>(cells_x_) * cells_y_;
  cell_start_.assign(num_cells + 1, 0);
  for (const SpatialItem& item : items) {
    ++cell_start_[CellIndex(item.location) + 1];
  }
  for (size_t c = 0; c < num_cells; ++c) cell_start_[c + 1] += cell_start_[c];
  items_.resize(items.size());
  for (const SpatialItem& item : items) {
    items_[static_cast<size_t>(cell_start_[CellIndex(item.location)]++)] =
        item;
  }
  // Each cursor now sits at its cell's end, which is the next cell's
  // start: shift them up one slot to restore the starts.
  std::copy_backward(cell_start_.begin(), cell_start_.end() - 1,
                     cell_start_.end());
  cell_start_[0] = 0;
}

void GridIndex::CircleQueryInto(const Point& center, double radius,
                                std::vector<int64_t>* out) const {
  out->clear();
  if (radius < 0.0) return;
  const Rect box = Rect::FromCircle(center, radius);
  const double r2 = radius * radius;
  const int x_lo = CellOf(box.min_x, origin_x_, scale_x_, cells_x_);
  const int x_hi = CellOf(box.max_x, origin_x_, scale_x_, cells_x_);
  const int y_lo = CellOf(box.min_y, origin_y_, scale_y_, cells_y_);
  const int y_hi = CellOf(box.max_y, origin_y_, scale_y_, cells_y_);
  for (int cy = y_lo; cy <= y_hi; ++cy) {
    // Cells x_lo..x_hi of one row are adjacent in items_: one run.
    const size_t row = static_cast<size_t>(cy) * cells_x_;
    const size_t begin =
        static_cast<size_t>(cell_start_[row + static_cast<size_t>(x_lo)]);
    const size_t end =
        static_cast<size_t>(cell_start_[row + static_cast<size_t>(x_hi) + 1]);
    for (size_t i = begin; i < end; ++i) {
      if (SquaredDistance(center, items_[i].location) <= r2) {
        out->push_back(items_[i].id);
      }
    }
  }
  std::sort(out->begin(), out->end());
}

std::vector<int64_t> GridIndex::CircleQuery(const Point& center,
                                            double radius) const {
  std::vector<int64_t> out;
  CircleQueryInto(center, radius, &out);
  return out;
}

}  // namespace casc
