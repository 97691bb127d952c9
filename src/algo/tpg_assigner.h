#ifndef CASC_ALGO_TPG_ASSIGNER_H_
#define CASC_ALGO_TPG_ASSIGNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "algo/assigner.h"

namespace casc {

/// Task-priority greedy (TPG), Algorithm 2 of the paper.
///
/// Stage 1 repeatedly computes, for every still-unseeded task, the best
/// B-worker seed set buildable from its unassigned candidates (best pair,
/// then argmax marginal extension), commits the globally best seed set,
/// and breaks ties toward the task with the most remaining candidate
/// workers, then the lowest task index. Stage 2 repeatedly commits the
/// valid worker-and-task pair with the largest total cooperation quality
/// increase ΔQ (Equation 4) until every task is full or no positive-gain
/// pair remains.
///
/// Stage 1 is an exact incremental form of that greedy:
/// * each task keeps its best candidate pairs in a bounded list ordered
///   as the direct O(c²) scan would prefer them. A list is filled by
///   reading the task's candidate pairs once
///   (CooperationMatrix::MutualRow), or, when the workers of the tasks
///   with more than K candidate pairs make fewer pairs than those tasks'
///   candidate pairs, from one shard-wide pass that prices every such
///   worker pair once and keeps those strictly above a cut: a task whose
///   live candidates hold at least K of them takes its K best, which are
///   exactly the scan's list;
/// * a seed invalidated by a consumed worker is rebuilt by walking the
///   list's cursor past dead pairs and re-running the O(B·c) extension,
///   and only a truncated list that runs dry is rebuilt from scratch;
/// * the best seed comes off a versioned lazy max-heap, and each pick
///   touches only the tasks that list a consumed worker as a candidate
///   (ValidTasks), which lose potential and, if their seed used it, are
///   re-seeded.
/// The output is byte-identical to rescanning every task on every pick.
/// Stage 2 uses a lazy max-heap keyed by per-task versions, and prices
/// each join through a JoinGainCache keyed by the same versions.
class TpgAssigner : public Assigner {
 public:
  std::string Name() const override { return "TPG"; }
  Assignment Run(const Instance& instance) override;

  /// Runs both greedy stages on top of an existing (possibly non-empty)
  /// `assignment`, restricted to the tasks flagged in `task_mask` (null =
  /// every task, which is exactly Run() from an empty assignment).
  /// Already-assigned workers are unavailable; masked-out tasks are never
  /// seeded or extended. The cross-batch warm start uses this to re-form
  /// groups on just the dirty tasks while the adopted equilibrium
  /// skeleton stays untouched.
  void SeedTasks(const Instance& instance,
                 const std::vector<uint8_t>* task_mask,
                 Assignment* assignment);

  /// The greedy best B-worker seed set for one task, exposed for tests;
  /// built by the same pair-list and extension code as stage 1.
  /// `available` flags workers that may be used. Returns the set in
  /// ascending order, or an empty vector when fewer than B candidates are
  /// available.
  static std::vector<WorkerIndex> GreedySeedSet(
      const Instance& instance, TaskIndex t,
      const std::vector<bool>& available);

 private:
  friend class TpgAssignerTestPeer;

  // Stage-1 pair-list fills of the last SeedTasks() call, from the
  // strong pairs and by the per-task scan. Only tests read them.
  int64_t strong_fills_ = 0;
  int64_t scan_fills_ = 0;
};

}  // namespace casc

#endif  // CASC_ALGO_TPG_ASSIGNER_H_
