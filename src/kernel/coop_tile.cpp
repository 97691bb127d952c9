#include "kernel/coop_tile.h"

#include <algorithm>
#include <new>

#include "model/cooperation_matrix.h"

namespace casc {
namespace {

constexpr std::align_val_t kAlign{64};

/// Grows `*buffer` (64-byte aligned, uninitialized) to at least `needed`
/// elements, reusing the old block when it is already big enough. Growth
/// is geometric: a streaming pool that creeps up batch by batch then
/// reallocates O(log) times instead of once per batch, which keeps the
/// freed multi-megabyte blocks from fragmenting the heap.
void EnsureCapacity(double** buffer, int64_t* capacity, int64_t needed) {
  if (*capacity >= needed) return;
  if (*buffer != nullptr) {
    ::operator delete[](*buffer, kAlign);
  }
  const int64_t grown = std::max(needed, *capacity + *capacity / 2);
  *buffer = static_cast<double*>(
      ::operator new[](static_cast<size_t>(grown) * sizeof(double), kAlign));
  *capacity = grown;
}

}  // namespace

CoopTile::~CoopTile() {
  if (pair_ != nullptr) ::operator delete[](pair_, kAlign);
}

bool CoopTile::BuildFrom(const CooperationMatrix& coop, int max_workers) {
  const int m = coop.num_workers();
  if (m <= 0 || m > max_workers) {
    Clear();
    return false;
  }
  const int64_t stride = (static_cast<int64_t>(m) + 7) & ~int64_t{7};
  EnsureCapacity(&pair_, &pair_capacity_, stride * m);
  num_workers_ = m;
  stride_ = stride;
  source_identity_ = coop.IdentityHash();

  const double* cells = coop.DenseCellsOrNull();
  for (int i = 0; i < m; ++i) {
    double* pair_row = pair_ + i * stride;
    if (cells != nullptr) {
      const double* fwd = cells + static_cast<int64_t>(i) * m;
      for (int k = 0; k < m; ++k) {
        // q_i(w_k) + q_k(w_i); the dense diagonal is stored as 0.
        pair_row[k] = fwd[k] + cells[static_cast<int64_t>(k) * m + i];
      }
    } else {
      for (int k = 0; k < m; ++k) {
        pair_row[k] = coop.Quality(i, k) + coop.Quality(k, i);
      }
    }
    pair_row[i] = 0.0;
    for (int64_t k = m; k < stride; ++k) pair_row[k] = 0.0;
  }
  return true;
}

}  // namespace casc
