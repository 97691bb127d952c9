#include "kernel/coop_tile.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

#include "model/cooperation_matrix.h"

namespace casc {
namespace {

/// Marks doubles [used, capacity) of a mapped buffer as unaddressable
/// under AddressSanitizer (which does not track mmap), so a kernel that
/// reads past the built plane is still reported. No-op otherwise.
void PoisonTail(double* buffer, int64_t used, int64_t capacity) {
#if defined(__SANITIZE_ADDRESS__)
  const size_t cell = sizeof(double);
  ASAN_UNPOISON_MEMORY_REGION(buffer, static_cast<size_t>(used) * cell);
  ASAN_POISON_MEMORY_REGION(buffer + used,
                            static_cast<size_t>(capacity - used) * cell);
#else
  (void)buffer, (void)used, (void)capacity;
#endif
}

void Unmap(double* buffer, int64_t capacity) {
  if (buffer != nullptr) {
    // The pages may be mapped again later; leave no poisoned shadow.
    PoisonTail(buffer, capacity, capacity);
    munmap(buffer, static_cast<size_t>(capacity) * sizeof(double));
  }
}

/// Grows `*buffer` (page aligned, uninitialized) to at least `needed`
/// elements, reusing the old block when it is already big enough. Growth
/// is geometric: a streaming pool that creeps up batch by batch then
/// reallocates O(log) times instead of once per batch.
///
/// The block is mapped from the OS, not taken from the heap. glibc maps
/// a multi-megabyte malloc itself only until the first such block is
/// freed; it then raises its mmap threshold to that size, later tiles
/// come from the heap, and their freed blocks fragment it. With heap
/// tiles gap-warm's peak RSS read 106-141 MiB; the same build with the
/// threshold pinned (MALLOC_MMAP_THRESHOLD_=131072), or with mapped
/// tiles, read about 60 MiB. munmap returns the pages at once.
void EnsureCapacity(double** buffer, int64_t* capacity, int64_t needed) {
  if (*capacity >= needed) return;
  // Whole pages: the capacity then covers the entire mapping.
  const int64_t page = sysconf(_SC_PAGESIZE) / int64_t{sizeof(double)};
  const int64_t grown =
      (std::max(needed, *capacity + *capacity / 2) + page - 1) / page * page;
  Unmap(*buffer, *capacity);
  *buffer = nullptr;
  *capacity = 0;
  void* block = mmap(nullptr, static_cast<size_t>(grown) * sizeof(double),
                     PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1,
                     0);
  if (block == MAP_FAILED) throw std::bad_alloc();
  *buffer = static_cast<double*>(block);
  *capacity = grown;
}

}  // namespace

CoopTile::~CoopTile() { Unmap(pair_, pair_capacity_); }

bool CoopTile::BuildFrom(const CooperationMatrix& coop, int max_workers) {
  const int m = coop.num_workers();
  if (m <= 0 || m > max_workers) {
    Clear();
    return false;
  }
  const int64_t stride = (static_cast<int64_t>(m) + 7) & ~int64_t{7};
  EnsureCapacity(&pair_, &pair_capacity_, stride * m);
  PoisonTail(pair_, stride * m, pair_capacity_);
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
