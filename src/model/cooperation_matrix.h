#ifndef CASC_MODEL_COOPERATION_MATRIX_H_
#define CASC_MODEL_COOPERATION_MATRIX_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <span>
#include <utility>
#include <vector>

namespace casc {

/// Pairwise cooperation-quality store: q_i(w_k) in [0, 1] for every
/// ordered worker pair (Definition 1). The diagonal is unused and fixed
/// at 0.
///
/// The store is ordered (q_i(w_k) and q_k(w_i) are independent cells) to
/// match the paper's definition; generators that model symmetric quality
/// simply write both cells.
///
/// Three backing modes share one read interface:
/// * **dense** (the constructors below): an owned m x m cell block.
///   Copies share the block copy-on-write — mutation detaches — so value
///   semantics are preserved while copies stay O(1).
/// * **view** (View()): a remapped window onto another matrix's backing.
///   `view.Quality(i, k) == base.Quality(ids[i], ids[k])` with no copy of
///   the cell block; the view keeps the backing alive. This is how the
///   dispatch service builds per-shard and per-batch instances without
///   materializing submatrices.
/// * **procedural** (Procedural()): qualities are a deterministic
///   symmetric hash of the worker pair — O(1) memory for any m, which is
///   what city-scale benches (10^4..10^6 workers) require; a dense block
///   at m = 50k would already be 20 GB.
class CooperationMatrix {
 public:
  /// Creates an empty matrix for 0 workers.
  CooperationMatrix() = default;

  /// Creates an m x m dense matrix with every off-diagonal cell = `initial`.
  explicit CooperationMatrix(int num_workers, double initial = 0.0);

  /// Creates a procedural matrix: Quality(i, k) for i != k is a
  /// deterministic symmetric hash of {i, k} and `seed`, uniform in [0, 1).
  /// Requires num_workers >= 0.
  static CooperationMatrix Procedural(int num_workers, uint64_t seed);

  int num_workers() const { return num_workers_; }

  /// Returns q_i(w_k). Requires valid indices; returns 0 for i == k.
  double Quality(int i, int k) const;

  /// Sets q_i(w_k) only (one direction). Requires value in [0, 1], i != k,
  /// and a dense (non-view, non-procedural) matrix. Detaches shared cells
  /// first, so views and copies taken earlier are unaffected.
  void SetQuality(int i, int k, double value);

  /// Sets both q_i(w_k) and q_k(w_i) to `value`.
  void SetSymmetric(int i, int k, double value);

  /// Sum over ordered pairs of distinct workers in `group`:
  /// sum_i sum_{k != i} q_i(w_k) — the numerator of Equation 2.
  ///
  /// `group` must contain *distinct* worker ids (a group is a set);
  /// debug builds CHECK the precondition, release builds assume it.
  double PairSum(std::span<const int> group) const;
  double PairSum(const std::vector<int>& group) const {
    return PairSum(std::span<const int>(group));
  }
  double PairSum(std::initializer_list<int> group) const {
    return PairSum(std::span<const int>(group.begin(), group.size()));
  }

  /// Sum of q_i(w_k) for a fixed i over all k in `group` (skipping i):
  /// worker i's raw affinity to the group.
  double RowSum(int i, std::span<const int> group) const;
  double RowSum(int i, const std::vector<int>& group) const {
    return RowSum(i, std::span<const int>(group));
  }
  double RowSum(int i, std::initializer_list<int> group) const {
    return RowSum(i, std::span<const int>(group.begin(), group.size()));
  }

  /// Returns a read-only view restricted (and remapped) to `ids`:
  /// the result has num_workers() == ids.size() and
  /// Quality(i, k) == this->Quality(ids[i], ids[k]), sharing this
  /// matrix's backing. Views of views compose. Requires every id in
  /// [0, num_workers()).
  CooperationMatrix View(std::vector<int> ids) const;

  /// True for matrices produced by View() (remapped indices).
  bool is_view() const { return !remap_.empty(); }

  /// True for matrices produced by Procedural().
  bool is_procedural() const { return procedural_; }

  /// Identity of this matrix's *content*: two matrices with equal hashes
  /// expose equal Quality() tables (modulo astronomically unlikely
  /// collisions). Dense backings carry a process-unique generation id
  /// refreshed on every mutation, so recycled allocations at the same
  /// address can never alias. O(num_workers) for views (the remap is
  /// folded in), O(1) otherwise.
  uint64_t IdentityHash() const;

 private:
  std::size_t CellIndex(int i, int k) const;
  int BackingIndex(int i) const;
  void CheckLogicalIndex(int i) const;
  void DetachIfShared();

  int num_workers_ = 0;  ///< logical size (what callers index with)
  int stride_ = 0;       ///< backing matrix size (row stride)
  bool procedural_ = false;
  uint64_t seed_ = 0;
  uint64_t cells_id_ = 0;  ///< dense-content generation (0 = procedural)
  std::shared_ptr<std::vector<double>> cells_;  ///< null when procedural
  std::vector<int> remap_;  ///< logical -> backing; empty = identity
};

/// Running history of co-performed tasks used to *estimate* cooperation
/// quality by Equation 1:
///
///   q_i(w_k) = alpha * omega + (1 - alpha) * mean(ratings of T_ik)
///
/// where T_ik is the set of tasks workers i and k both contributed to,
/// omega is the platform's base quality and alpha reconciles prior and
/// history. With no history the estimate degrades to omega (the prior),
/// matching the equation's intuition.
class CooperationHistory {
 public:
  /// Creates a history for `num_workers` workers.
  /// Requires alpha, omega in [0, 1].
  CooperationHistory(int num_workers, double alpha, double omega);

  /// Records that every pair of workers in `group` co-performed a task
  /// rated `rating` (s_j in [0, 1]).
  void RecordTask(const std::vector<int>& group, double rating);

  /// Number of tasks workers i and k co-performed (|T_ik|).
  int CoTaskCount(int i, int k) const;

  /// Equation 1 estimate for the ordered pair (i, k).
  double EstimateQuality(int i, int k) const;

  /// Materializes the full matrix of Equation 1 estimates.
  CooperationMatrix ToMatrix() const;

  int num_workers() const { return num_workers_; }
  double alpha() const { return alpha_; }
  double omega() const { return omega_; }

 private:
  struct PairStats {
    int count = 0;
    double rating_sum = 0.0;
  };

  int num_workers_;
  double alpha_;
  double omega_;
  // Sparse upper-triangular storage: key (min, max).
  std::map<std::pair<int, int>, PairStats> stats_;
};

}  // namespace casc

#endif  // CASC_MODEL_COOPERATION_MATRIX_H_
