#ifndef CASC_KERNEL_COOP_TILE_H_
#define CASC_KERNEL_COOP_TILE_H_

#include <cstdint>

namespace casc {

class CooperationMatrix;

/// Flat, kernel-friendly image of a CooperationMatrix, rebuilt once per
/// batch into BatchWorkspace and shared read-only by every ScoreKeeper
/// of that batch. One plane, page aligned (mapped straight from the OS,
/// see EnsureCapacity in coop_tile.cpp) and stride-padded (stride = m
/// rounded up to 8, so every row is 64-byte aligned):
///
/// * **pair plane** (double): s(i,k) = q_i(w_k) + q_k(w_i), diagonal 0.
///   This is the exact value ScoreKeeper's marginals accumulate — double
///   addition of the two directions is commutative bit-for-bit, so
///   kernels over this plane reproduce the matrix path exactly.
///
/// Building is O(m^2) time and 8 bytes/cell; BatchWorkspace gates it
/// behind a worker-count ceiling (procedural city-scale matrices stay
/// tile-less) and caches it by CooperationMatrix::IdentityHash.
class CoopTile {
 public:
  CoopTile() = default;
  ~CoopTile();
  CoopTile(const CoopTile&) = delete;
  CoopTile& operator=(const CoopTile&) = delete;

  /// (Re)builds the pair plane from `coop`. When coop.num_workers() >
  /// `max_workers` the tile clears itself and returns false — callers
  /// fall back to the matrix path. The buffer is reused across rebuilds.
  bool BuildFrom(const CooperationMatrix& coop, int max_workers);

  /// Drops the built plane (its buffer is kept for reuse).
  void Clear() { num_workers_ = 0; }

  bool built() const { return num_workers_ > 0; }
  int num_workers() const { return num_workers_; }
  int64_t stride() const { return stride_; }

  /// Row i of the exact double pair plane (64-byte aligned).
  const double* PairRow(int i) const { return pair_ + i * stride_; }
  const double* pair_plane() const { return pair_; }

  /// IdentityHash of the matrix this tile was built from (undefined when
  /// !built()).
  uint64_t source_identity() const { return source_identity_; }

 private:
  int num_workers_ = 0;
  int64_t stride_ = 0;
  uint64_t source_identity_ = 0;
  double* pair_ = nullptr;
  int64_t pair_capacity_ = 0;  ///< doubles allocated behind pair_
};

}  // namespace casc

#endif  // CASC_KERNEL_COOP_TILE_H_
