#include "geo/rect.h"

#include <algorithm>

namespace casc {

Rect Rect::FromCircle(const Point& c, double r) {
  return Rect{c.x - r, c.y - r, c.x + r, c.y + r};
}

bool Rect::Contains(const Point& p) const {
  return p.x >= min_x && p.x <= max_x && p.y >= min_y && p.y <= max_y;
}

double Rect::MinSquaredDistance(const Point& p) const {
  const double dx = std::max({min_x - p.x, 0.0, p.x - max_x});
  const double dy = std::max({min_y - p.y, 0.0, p.y - max_y});
  return dx * dx + dy * dy;
}

}  // namespace casc
