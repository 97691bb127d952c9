#ifndef CASC_SPATIAL_PROBE_INDEX_H_
#define CASC_SPATIAL_PROBE_INDEX_H_

#include <memory>
#include <vector>

#include "spatial/spatial_index.h"

namespace casc {

/// Builds a throwaway index over `items` for one batch of probes (the
/// streaming splice's arrival-delta index): a LinearScan below a small
/// cutoff, a sqrt(n)-sized GridIndex otherwise. Every index returns
/// ascending ids, so the choice tunes only speed, never an output.
std::unique_ptr<SpatialIndex> MakeProbeIndex(
    const std::vector<SpatialItem>& items);

}  // namespace casc

#endif  // CASC_SPATIAL_PROBE_INDEX_H_
