#include "model/cooperation_matrix.h"

#include <algorithm>
#include <atomic>

#include "common/check.h"

namespace casc {
namespace {

/// splitmix64 finalizer: a full-avalanche 64-bit mix.
uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Deterministic symmetric quality in [0, 1) for the procedural mode.
double HashQuality(uint64_t seed, int i, int k) {
  const uint64_t lo = static_cast<uint64_t>(std::min(i, k));
  const uint64_t hi = static_cast<uint64_t>(std::max(i, k));
  const uint64_t h = Mix64(seed ^ Mix64((lo << 32) | hi));
  // Top 53 bits -> uniform double in [0, 1).
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Process-unique generation id for dense cell content. Every dense
/// allocation *and* every mutation draws a fresh one, so (id, remap)
/// pins a matrix's content even if the allocator recycles addresses.
uint64_t NextCellsId() {
  static std::atomic<uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

CooperationMatrix::CooperationMatrix(int num_workers, double initial)
    : num_workers_(num_workers), stride_(num_workers) {
  cells_id_ = NextCellsId();
  CASC_CHECK_GE(num_workers, 0);
  CASC_CHECK_GE(initial, 0.0);
  CASC_CHECK_LE(initial, 1.0);
  cells_ = std::make_shared<std::vector<double>>(
      static_cast<size_t>(num_workers) * num_workers, initial);
  for (int i = 0; i < num_workers; ++i) {
    (*cells_)[static_cast<size_t>(i) * stride_ + i] = 0.0;
  }
}

CooperationMatrix CooperationMatrix::Procedural(int num_workers,
                                                uint64_t seed) {
  CASC_CHECK_GE(num_workers, 0);
  CooperationMatrix matrix;
  matrix.num_workers_ = num_workers;
  matrix.stride_ = num_workers;
  matrix.procedural_ = true;
  matrix.seed_ = seed;
  return matrix;
}

void CooperationMatrix::CheckLogicalIndex(int i) const {
  CASC_CHECK_GE(i, 0);
  CASC_CHECK_LT(i, num_workers_);
}

int CooperationMatrix::BackingIndex(int i) const {
  return remap_.empty() ? i : remap_[static_cast<size_t>(i)];
}

std::size_t CooperationMatrix::CellIndex(int i, int k) const {
  return static_cast<size_t>(i) * stride_ + k;
}

double CooperationMatrix::Quality(int i, int k) const {
  CheckLogicalIndex(i);
  CheckLogicalIndex(k);
  if (i == k) return 0.0;
  const int bi = BackingIndex(i);
  const int bk = BackingIndex(k);
  // Remapped views may alias two logical workers onto one backing worker;
  // treat that as the (unused) diagonal for consistency.
  if (bi == bk) return 0.0;
  if (procedural_) return HashQuality(seed_, bi, bk);
  return (*cells_)[CellIndex(bi, bk)];
}

double CooperationMatrix::Mutual(int i, int k) const {
  CheckLogicalIndex(i);
  CheckLogicalIndex(k);
  const int bi = BackingIndex(i);
  const int bk = BackingIndex(k);
  if (bi == bk) return 0.0;  // the diagonal, or an aliased view pair
  if (procedural_) {
    const double q = HashQuality(seed_, bi, bk);  // symmetric
    return q + q;
  }
  return (*cells_)[CellIndex(bi, bk)] + (*cells_)[CellIndex(bk, bi)];
}

void CooperationMatrix::DetachIfShared() {
  if (cells_ && cells_.use_count() > 1) {
    cells_ = std::make_shared<std::vector<double>>(*cells_);
  }
}

void CooperationMatrix::SetQuality(int i, int k, double value) {
  CASC_CHECK(!is_view() && !is_procedural())
      << "CooperationMatrix views and procedural matrices are read-only";
  CheckLogicalIndex(i);
  CheckLogicalIndex(k);
  CASC_CHECK_NE(i, k);
  CASC_CHECK_GE(value, 0.0);
  CASC_CHECK_LE(value, 1.0);
  DetachIfShared();
  cells_id_ = NextCellsId();
  (*cells_)[CellIndex(i, k)] = value;
}

void CooperationMatrix::SetSymmetric(int i, int k, double value) {
  SetQuality(i, k, value);
  SetQuality(k, i, value);
}

double CooperationMatrix::PairSum(std::span<const int> group) const {
#ifndef NDEBUG
  // Precondition (see the header): ids are distinct. O(g^2) like the sum
  // itself, but only in debug builds.
  for (size_t a = 0; a < group.size(); ++a) {
    for (size_t b = a + 1; b < group.size(); ++b) {
      CASC_CHECK_NE(group[a], group[b])
          << "PairSum group contains a duplicated worker id";
    }
  }
#endif
  double total = 0.0;
  for (size_t a = 0; a < group.size(); ++a) {
    for (size_t b = a + 1; b < group.size(); ++b) {
      total += Mutual(group[a], group[b]);
    }
  }
  return total;
}

double CooperationMatrix::RowSum(int i,
                                std::span<const int> group) const {
  double total = 0.0;
  for (const int k : group) {
    if (k != i) total += Quality(i, k);
  }
  return total;
}

void CooperationMatrix::MutualRow(int i, std::span<const int> ids,
                                  std::span<double> out) const {
  CheckLogicalIndex(i);
  CASC_CHECK_EQ(out.size(), ids.size());
  // One range check for the whole row: an id is in [0, num_workers_)
  // exactly when it is below num_workers_ as an unsigned value.
  const auto limit = static_cast<unsigned>(num_workers_);
  bool in_range = true;
  for (const int id : ids) in_range &= static_cast<unsigned>(id) < limit;
  CASC_CHECK(in_range) << "MutualRow id out of [0, " << num_workers_ << ")";

  const int bi = BackingIndex(i);
  // The diagonal and two logical ids aliasing one worker give 0; the
  // arithmetic is Mutual()'s, so every entry is bit-equal to it.
  const auto fill = [&](auto backing) {
    if (procedural_) {
      for (size_t k = 0; k < ids.size(); ++k) {
        const int bk = backing(ids[k]);
        const double q = bk == bi ? 0.0 : HashQuality(seed_, bi, bk);
        out[k] = q + q;  // symmetric
      }
      return;
    }
    const double* cells = cells_->data();
    const double* row = cells + CellIndex(bi, 0);
    for (size_t k = 0; k < ids.size(); ++k) {
      const int bk = backing(ids[k]);
      out[k] = bk == bi ? 0.0 : row[bk] + cells[CellIndex(bk, bi)];
    }
  };
  if (remap_.empty()) {
    fill([](int id) { return id; });
  } else {
    fill([this](int id) { return remap_[static_cast<size_t>(id)]; });
  }
}

uint64_t CooperationMatrix::IdentityHash() const {
  uint64_t h = Mix64(0xCA5Cu ^ static_cast<uint64_t>(num_workers_));
  h = Mix64(h ^ cells_id_);
  h = Mix64(h ^ seed_);
  if (procedural_) h = Mix64(h ^ 0xA11CEull);
  for (const int id : remap_) {
    h = Mix64(h ^ static_cast<uint64_t>(id));
  }
  return h;
}

CooperationMatrix CooperationMatrix::View(std::vector<int> ids) const {
  CooperationMatrix view;
  view.num_workers_ = static_cast<int>(ids.size());
  view.stride_ = stride_;
  view.procedural_ = procedural_;
  view.seed_ = seed_;
  view.cells_id_ = cells_id_;
  view.cells_ = cells_;
  for (int& id : ids) {
    CASC_CHECK_GE(id, 0);
    CASC_CHECK_LT(id, num_workers_);
    // Compose with this matrix's own remap so views of views stay flat.
    id = BackingIndex(id);
  }
  view.remap_ = std::move(ids);
  if (view.remap_.empty()) {
    // An empty view has no indexable workers; keep the identity remap
    // convention (empty vector) harmless by zeroing the logical size.
    view.num_workers_ = 0;
  }
  return view;
}

CooperationHistory::CooperationHistory(int num_workers, double alpha,
                                       double omega)
    : num_workers_(num_workers), alpha_(alpha), omega_(omega) {
  CASC_CHECK_GE(num_workers, 0);
  CASC_CHECK_GE(alpha, 0.0);
  CASC_CHECK_LE(alpha, 1.0);
  CASC_CHECK_GE(omega, 0.0);
  CASC_CHECK_LE(omega, 1.0);
}

void CooperationHistory::RecordTask(const std::vector<int>& group,
                                    double rating) {
  CASC_CHECK_GE(rating, 0.0);
  CASC_CHECK_LE(rating, 1.0);
  for (size_t a = 0; a < group.size(); ++a) {
    for (size_t b = a + 1; b < group.size(); ++b) {
      const int lo = std::min(group[a], group[b]);
      const int hi = std::max(group[a], group[b]);
      CASC_CHECK_GE(lo, 0);
      CASC_CHECK_LT(hi, num_workers_);
      CASC_CHECK_NE(lo, hi);
      auto& cell = stats_[{lo, hi}];
      cell.count += 1;
      cell.rating_sum += rating;
    }
  }
}

int CooperationHistory::CoTaskCount(int i, int k) const {
  const auto it = stats_.find({std::min(i, k), std::max(i, k)});
  return it == stats_.end() ? 0 : it->second.count;
}

double CooperationHistory::EstimateQuality(int i, int k) const {
  if (i == k) return 0.0;
  const auto it = stats_.find({std::min(i, k), std::max(i, k)});
  if (it == stats_.end() || it->second.count == 0) {
    // No shared history: only the prior term contributes meaningfully.
    // Equation 1 with an empty T_ik is undefined (0/0); the natural limit
    // used by the platform is the base quality omega itself.
    return omega_;
  }
  const double historical = it->second.rating_sum / it->second.count;
  return alpha_ * omega_ + (1.0 - alpha_) * historical;
}

CooperationMatrix CooperationHistory::ToMatrix() const {
  CooperationMatrix matrix(num_workers_, omega_);
  for (const auto& [key, cell] : stats_) {
    if (cell.count == 0) continue;
    const double historical = cell.rating_sum / cell.count;
    const double q = alpha_ * omega_ + (1.0 - alpha_) * historical;
    matrix.SetSymmetric(key.first, key.second, q);
  }
  return matrix;
}

}  // namespace casc
