#ifndef CASC_MODEL_SCORE_KEEPER_H_
#define CASC_MODEL_SCORE_KEEPER_H_

#include <span>
#include <vector>

#include "model/assignment.h"
#include "model/instance.h"

namespace casc {

/// Incrementally maintained Equation-3 objective.
///
/// TotalScore() recomputes every group's pair sum from scratch —
/// O(sum over tasks of |W_j|^2). ScoreKeeper tracks per-task ordered
/// pair sums under Add/Remove mutations in O(|W_j|) per mutation and
/// serves the current total in O(1), which is what a long best-response
/// or local-search loop wants.
///
/// The keeper shares the Assignment's group representation instead of
/// mirroring it: Sync() attaches it to an assignment, GroupOf() reads
/// the assignment's groups directly, and only the cached pair sums and
/// scores live here. Add/Remove are present-aware — they work whether
/// the matching Assign/Unassign has already been applied or not (a
/// worker's self-affinity is zero, so the delta is identical either
/// way). Group sizes above the task capacity are not supported (the
/// crowding rule must be applied by the caller first, as ApplyMove
/// does) — scores follow the B <= |W| <= a_j branch of Equation 2.
///
/// Scores are produced by the instance's ObjectiveModel: the keeper
/// maintains the cooperation-term ingredients (pair sums, sizes) and
/// hands them plus the live membership to ObjectiveModel::ScoreGroup,
/// with the present-aware extra/without corrections so
/// membership-dependent objectives (skill coverage) stay exact under
/// either mutation order. Cached task scores are therefore always
/// objective-correct.
///
/// Affinity sums read the two-way pair value q(i,k) + q(k,i) straight
/// from CooperationMatrix::Quality and accumulate it in one canonical
/// 4-lane order (element j in lane j % 4, lanes combined as
/// (l0 + l2) + (l1 + l3)). The order fixes every score bit, so it must
/// not change.
class ScoreKeeper {
 public:
  /// Creates an unbound keeper; Rebind()/Sync() before use (the pooling
  /// hook used by BatchWorkspace).
  ScoreKeeper() = default;

  /// Creates a detached keeper for `instance` with zero sums. Attach to
  /// an assignment with Sync() before mutating.
  explicit ScoreKeeper(const Instance& instance);

  /// Creates a keeper attached to `assignment` with sums rebuilt from
  /// its current groups. Both must outlive the keeper.
  ScoreKeeper(const Instance& instance, const Assignment& assignment);

  /// Rebinds to `instance` with zero sums, detached from any assignment
  /// (reuses the backing arrays' capacity).
  void Rebind(const Instance& instance);

  /// Attaches to `assignment` and rebuilds all sums from its groups
  /// (O(total group sizes squared)).
  void Sync(const Assignment& assignment);

  /// Registers worker `w` joining task `t`'s group. Callable just before
  /// or just after the matching Assignment::Assign.
  void Add(WorkerIndex w, TaskIndex t);

  /// Registers worker `w` leaving task `t`'s group. Callable just before
  /// or just after the matching Assignment::Unassign.
  void Remove(WorkerIndex w, TaskIndex t);

  /// Current Q(W_t) (Equation 2).
  double TaskScore(TaskIndex t) const;

  /// Current ordered-pair affinity sum of task `t`'s group — the
  /// numerator of Equation 2.
  double TaskPairSum(TaskIndex t) const;

  /// Current Q(T) (Equation 3), O(1).
  double TotalScore() const { return total_; }

  /// Current members of task `t` in insertion order — forwarded from the
  /// attached assignment (empty when detached).
  std::span<const WorkerIndex> GroupOf(TaskIndex t) const;

  /// What TotalScore() would become if `w` joined `t` (no mutation).
  double ScoreIfAdded(WorkerIndex w, TaskIndex t) const;

  /// What TotalScore() would become if `w` left `t` (no mutation).
  double ScoreIfRemoved(WorkerIndex w, TaskIndex t) const;

  /// Marginal gain in TotalScore() if `w` joined `t`:
  /// Q(W_t ∪ {w}) - Q(W_t), Equation 5's joining direction. One affinity
  /// row scan over the group plus the cached pair sum — O(|W_t|), no
  /// allocation. Requires w not in the group and the group below capacity
  /// (over-capacity evaluation is the caller's BestSubset fallback).
  double GainIfJoined(WorkerIndex w, TaskIndex t) const;

  /// Marginal loss in TotalScore() if `w` left `t`:
  /// Q(W_t) - Q(W_t \ {w}). Same O(|W_t|) allocation-free shape.
  /// Requires membership.
  double LossIfLeft(WorkerIndex w, TaskIndex t) const;

  /// Two-way affinity of `w` to t's current members, scanned in group
  /// order and skipping `skip` (w itself always contributes zero): the
  /// pair-sum delta of one membership change. Building block for
  /// ApplyDelta trial moves.
  double AffinityTo(TaskIndex t, WorkerIndex w,
                    WorkerIndex skip = kNoWorker) const;

  /// Low-level hook for trial moves (local search): shifts t's cached
  /// pair sum by `delta` and re-derives the Equation-2 score with
  /// `new_size` members, exactly mirroring one Add/Remove update of the
  /// cached sums without consulting the attached assignment's (possibly
  /// stale mid-trial) membership — `members` is the caller's trial
  /// membership of `t` (local search's mirror groups), which the
  /// objective scores directly. Callers own the consistency of the
  /// delta/size/members bookkeeping and must return the sums to a
  /// membership-consistent state before any other keeper use.
  void ApplyDelta(TaskIndex t, double delta, int new_size,
                  std::span<const WorkerIndex> members);

 private:
  /// Objective-routed score of task `t`'s (corrected) group: the live
  /// assignment membership plus the extra/without corrections, with the
  /// cooperation term precomputed as `pair_sum` over `size` members.
  double GroupScoreFromSum(TaskIndex t, double pair_sum, int size,
                           WorkerIndex extra, WorkerIndex without) const;

  /// Same, but over an explicit membership span (trial moves whose
  /// membership diverges from the attached assignment).
  double ScoreFromSumWithMembers(TaskIndex t, double pair_sum, int size,
                                 std::span<const WorkerIndex> members) const;

  /// Canonical-lane two-way affinity of `w` to `group`, skipping
  /// elements equal to `w` or `skip` (skipped elements do not advance
  /// the lane index). `*others` receives the number of contributing
  /// members.
  double AffinityOverGroup(std::span<const WorkerIndex> group,
                           WorkerIndex w, WorkerIndex skip,
                           int* others) const;

  /// Canonical-lane ordered-pair sum of a distinct-id group.
  double GroupPairSum(std::span<const WorkerIndex> group) const;

  const Instance* instance_ = nullptr;
  const Assignment* assignment_ = nullptr;
  std::vector<double> pair_sums_;  // ordered-pair sum per task
  std::vector<double> scores_;     // Equation-2 value per task
  double total_ = 0.0;
};

}  // namespace casc

#endif  // CASC_MODEL_SCORE_KEEPER_H_
