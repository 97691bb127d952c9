#ifndef CASC_MODEL_GROUP_STORE_H_
#define CASC_MODEL_GROUP_STORE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "model/worker.h"

namespace casc {

/// Slab-backed storage for per-task worker groups. Every group g gets a
/// fixed slab of `min(capacities[g], max_members) + slack` contiguous
/// slots in one flat array (capacity a_j is known per task, so slabs
/// never move and no per-group heap allocation ever happens). A group
/// never holds more than the batch's workers, so a capacity beyond them
/// costs no memory. The extra `slack` slot lets the GT crowding rule
/// transiently overfill a full group by one while deciding whom to evict.
///
/// PushBack appends; Erase shifts the suffix left one slot, preserving
/// insertion order — group order is part of the determinism contract
/// (floating-point pair sums are accumulated in group order).
///
/// Reset() reshapes for a new batch without releasing the backing
/// arrays; growth events are counted process-wide (TotalReallocs) so the
/// data-plane tests can assert zero steady-state allocations.
class GroupStore {
 public:
  GroupStore() = default;

  /// Lays out one empty slab per group. `capacities[g] >= 0`;
  /// `max_members` bounds every group's size (the batch's worker count).
  /// The slots must total at most INT32_MAX.
  void Reset(std::span<const int> capacities, int max_members, int slack);

  int num_groups() const { return static_cast<int>(sizes_.size()); }

  int size(int g) const { return sizes_[static_cast<size_t>(g)]; }

  /// Members of group `g` in insertion order. The span is invalidated
  /// only by Reset(), never by mutations of other groups.
  std::span<const WorkerIndex> Group(int g) const {
    const int32_t begin = offsets_[static_cast<size_t>(g)];
    return {slab_.data() + begin,
            static_cast<size_t>(sizes_[static_cast<size_t>(g)])};
  }

  /// Appends `w` to group `g`. Requires a free slot in the slab.
  void PushBack(int g, WorkerIndex w);

  /// Removes `w` from group `g`, shifting later members left (insertion
  /// order preserved). Requires membership.
  void Erase(int g, WorkerIndex w);

  /// Empties every group, keeping the slab layout.
  void ClearGroups();

  /// Process-wide count of backing-array growth events.
  static int64_t TotalReallocs();

 private:
  std::vector<int32_t> offsets_;  // num_groups + 1 slab boundaries
  std::vector<int32_t> sizes_;    // live members per group
  std::vector<WorkerIndex> slab_;
};

}  // namespace casc

#endif  // CASC_MODEL_GROUP_STORE_H_
