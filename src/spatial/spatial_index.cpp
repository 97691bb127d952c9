#include "spatial/spatial_index.h"

namespace casc {

std::vector<int64_t> SpatialIndex::CircleQuery(const Point& center,
                                               double radius) const {
  std::vector<int64_t> out;
  CircleQueryInto(center, radius, &out);
  return out;
}

}  // namespace casc
