#ifndef CASC_SPATIAL_GRID_INDEX_H_
#define CASC_SPATIAL_GRID_INDEX_H_

#include <vector>

#include "spatial/spatial_index.h"

namespace casc {

/// Uniform grid over [0,1]^2. Points outside the unit square are clamped
/// into the boundary cells, so the index remains correct (if slower) for
/// out-of-range inputs.
///
/// Cell resolution is fixed at construction; a resolution near
/// 1 / expected_query_radius keeps candidate lists short for the working-
/// area queries issued by the batch framework. Built once per batch as a
/// throwaway probe index (MakeProbeIndex), never mutated afterwards.
class GridIndex : public SpatialIndex {
 public:
  /// Creates a `cells_per_side` x `cells_per_side` grid.
  /// Requires cells_per_side >= 1.
  explicit GridIndex(int cells_per_side = 32);

  void Insert(const SpatialItem& item) override;
  void Build(const std::vector<SpatialItem>& items) override;
  void CircleQueryInto(const Point& center, double radius,
                       std::vector<int64_t>* out) const override;
  size_t Size() const override { return size_; }

 private:
  int CellOf(double coord) const;
  const std::vector<SpatialItem>& Cell(int cx, int cy) const;

  int cells_per_side_;
  std::vector<std::vector<SpatialItem>> cells_;
  size_t size_ = 0;
};

}  // namespace casc

#endif  // CASC_SPATIAL_GRID_INDEX_H_
