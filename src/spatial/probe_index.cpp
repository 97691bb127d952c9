#include "spatial/probe_index.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "spatial/grid_index.h"
#include "spatial/linear_scan.h"

namespace casc {
namespace {

/// Below the cutoff a brute-force linear scan wins: building any index
/// costs more than the handful of comparisons per probe it would save.
/// The cutoff was measured on the splice path (one probe per known
/// worker, so at 1M workers even a ~40-item delta deserves cell pruning):
/// the grid overtakes the scan between ~12 and ~24 items for the small
/// working radii large worlds use, and 16 sits in that window on every
/// host tried (see EXPERIMENTS.md, PR 10 micro-bench note).
constexpr size_t kProbeLinearScanCutoff = 16;

/// Cells per side for a probe grid over `n` items: sqrt(n) targets ~1
/// item per cell, clamped so tiny deltas keep cells coarse enough to be
/// worth walking and huge batches don't allocate a million empty cells.
int ProbeGridCells(size_t n) {
  return std::clamp(static_cast<int>(std::sqrt(static_cast<double>(n))), 8,
                    64);
}

}  // namespace

std::unique_ptr<SpatialIndex> MakeProbeIndex(
    const std::vector<SpatialItem>& items) {
  if (items.size() < kProbeLinearScanCutoff) {
    auto linear = std::make_unique<LinearScan>();
    linear->Build(items);
    return linear;
  }
  auto grid = std::make_unique<GridIndex>(ProbeGridCells(items.size()));
  grid->Build(items);
  return grid;
}

}  // namespace casc
