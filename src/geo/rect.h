#ifndef CASC_GEO_RECT_H_
#define CASC_GEO_RECT_H_

#include "geo/point.h"

namespace casc {

/// An axis-aligned rectangle: the shard map's world and shard cells, and
/// the bounding box of a working-area circle query.
///
/// An empty rectangle is represented with min > max (the default).
struct Rect {
  double min_x = 1.0;
  double min_y = 1.0;
  double max_x = 0.0;
  double max_y = 0.0;

  /// Returns the tight bounding box of a circle (used for worker working
  /// areas: center `c`, radius `r`).
  static Rect FromCircle(const Point& c, double r);

  /// True when the rectangle contains no points.
  bool IsEmpty() const { return min_x > max_x || min_y > max_y; }

  /// True when `p` lies inside or on the boundary.
  bool Contains(const Point& p) const;

  /// Minimum squared distance from `p` to any point of the rectangle
  /// (0 when inside); used for circle-query pruning.
  double MinSquaredDistance(const Point& p) const;
};

}  // namespace casc

#endif  // CASC_GEO_RECT_H_
