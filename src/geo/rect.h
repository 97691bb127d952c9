#ifndef CASC_GEO_RECT_H_
#define CASC_GEO_RECT_H_

#include <string>

#include "geo/point.h"

namespace casc {

/// An axis-aligned bounding rectangle, the building block of the R-tree.
///
/// An empty rectangle is represented with min > max and behaves as the
/// identity under Extend().
struct Rect {
  double min_x = 1.0;
  double min_y = 1.0;
  double max_x = 0.0;
  double max_y = 0.0;

  /// Returns the canonical empty rectangle.
  static Rect Empty();

  /// Returns the degenerate rectangle containing exactly `p`.
  static Rect FromPoint(const Point& p);

  /// Returns the tight bounding box of a circle (used for worker working
  /// areas: center `c`, radius `r`).
  static Rect FromCircle(const Point& c, double r);

  /// True when the rectangle contains no points.
  bool IsEmpty() const { return min_x > max_x || min_y > max_y; }

  /// True when `p` lies inside or on the boundary.
  bool Contains(const Point& p) const;

  /// True when `other` is fully inside this rectangle.
  bool Contains(const Rect& other) const;

  /// True when the two rectangles share at least one point.
  bool Intersects(const Rect& other) const;

  /// Area (0 for empty or degenerate rectangles).
  double Area() const;

  /// Half-perimeter, the R-tree split heuristic's "margin".
  double Margin() const;

  /// Smallest rectangle covering both this and `other`.
  Rect Union(const Rect& other) const;

  /// How much Area() would grow if extended to cover `other`.
  double Enlargement(const Rect& other) const;

  /// Extends in place to cover `other`.
  void Extend(const Rect& other);

  /// Extends in place to cover `p`.
  void Extend(const Point& p);

  /// Minimum squared distance from `p` to any point of the rectangle
  /// (0 when inside); used for circle-query pruning.
  double MinSquaredDistance(const Point& p) const;

  Point Center() const;

  friend bool operator==(const Rect& a, const Rect& b) {
    return a.min_x == b.min_x && a.min_y == b.min_y && a.max_x == b.max_x &&
           a.max_y == b.max_y;
  }
};

/// Renders "[min_x,min_y – max_x,max_y]" for diagnostics.
std::string ToString(const Rect& r);

}  // namespace casc

#endif  // CASC_GEO_RECT_H_
