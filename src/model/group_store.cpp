#include "model/group_store.h"

#include <algorithm>
#include <atomic>
#include <limits>

#include "common/check.h"

namespace casc {
namespace {

std::atomic<int64_t> g_reallocs{0};

template <typename T>
void NoteGrowth(const std::vector<T>& v, size_t upcoming) {
  if (upcoming > v.capacity()) {
    g_reallocs.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace

void GroupStore::Reset(std::span<const int> capacities, int max_members,
                       int slack) {
  CASC_CHECK_GE(max_members, 0);
  CASC_CHECK_GE(slack, 0);
  const size_t n = capacities.size();
  NoteGrowth(offsets_, n + 1);
  offsets_.clear();
  offsets_.reserve(n + 1);
  offsets_.push_back(0);
  int64_t total = 0;
  for (const int capacity : capacities) {
    CASC_CHECK_GE(capacity, 0);
    total += int64_t{std::min(capacity, max_members)} + slack;
    CASC_CHECK_LE(total, std::numeric_limits<int32_t>::max())
        << "group slabs exceed the int32 slot range";
    offsets_.push_back(static_cast<int32_t>(total));
  }
  NoteGrowth(sizes_, n);
  sizes_.assign(n, 0);
  NoteGrowth(slab_, static_cast<size_t>(total));
  slab_.resize(static_cast<size_t>(total));
}

void GroupStore::PushBack(int g, WorkerIndex w) {
  CASC_CHECK_GE(g, 0);
  CASC_CHECK_LT(g, num_groups());
  const int32_t begin = offsets_[static_cast<size_t>(g)];
  const int32_t slots = offsets_[static_cast<size_t>(g) + 1] - begin;
  int32_t& size = sizes_[static_cast<size_t>(g)];
  CASC_CHECK_LT(size, slots)
      << "group " << g << " slab overflow (capacity + slack exceeded)";
  slab_[static_cast<size_t>(begin + size)] = w;
  ++size;
}

void GroupStore::Erase(int g, WorkerIndex w) {
  CASC_CHECK_GE(g, 0);
  CASC_CHECK_LT(g, num_groups());
  const int32_t begin = offsets_[static_cast<size_t>(g)];
  int32_t& size = sizes_[static_cast<size_t>(g)];
  for (int32_t i = 0; i < size; ++i) {
    if (slab_[static_cast<size_t>(begin + i)] != w) continue;
    for (int32_t j = i + 1; j < size; ++j) {
      slab_[static_cast<size_t>(begin + j - 1)] =
          slab_[static_cast<size_t>(begin + j)];
    }
    --size;
    return;
  }
  CASC_CHECK(false) << "worker " << w << " not in group " << g;
}

void GroupStore::ClearGroups() {
  sizes_.assign(sizes_.size(), 0);
}

int64_t GroupStore::TotalReallocs() {
  return g_reallocs.load(std::memory_order_relaxed);
}

}  // namespace casc
