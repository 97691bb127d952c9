#ifndef CASC_MODEL_SCORE_KEEPER_H_
#define CASC_MODEL_SCORE_KEEPER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "model/assignment.h"
#include "model/instance.h"

namespace casc {

class CoopTile;

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
/// maintains the cooperation-term ingredients (pair sums, sizes, tick
/// bounds) and hands them plus the live membership to
/// ObjectiveModel::ScoreGroup, with the present-aware extra/without
/// corrections so membership-dependent objectives (skill coverage) stay
/// exact under either mutation order. Cached task scores are therefore
/// always objective-correct, which is what keeps JoinBound admissible
/// for any discount variant (see ObjectiveModel's bound obligation).
///
/// Affinity sums are accumulated in the canonical 4-lane order of
/// src/kernel/affinity_kernels.h whether or not a CoopTile is attached
/// (AttachTile): the tile routes them through the affinity kernels
/// over its exact double pair plane, the tile-less path
/// replicates the same order over CooperationMatrix::Quality — so
/// attaching a tile changes speed, never a single result bit.
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
  /// and tile (reuses the backing arrays' capacity).
  void Rebind(const Instance& instance);

  /// Routes affinity sums through `tile` (built over this instance's
  /// cooperation matrix; nullptr detaches). Call between Rebind() and
  /// Sync(); the tile must outlive the keeper's use of it. Purely a
  /// fast path — results are bit-identical with and without a tile.
  void AttachTile(const CoopTile* tile);
  const CoopTile* tile() const { return tile_; }

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
  /// numerator of Equation 2 (pruning bounds build on it).
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

  /// Batched GainIfJoined over many candidate tasks of one worker:
  /// out[i] = GainIfJoined(w, tasks[i]), bit-identical to the one-task
  /// calls but gathered through one RowSumMany kernel call when a
  /// tile is attached. Same preconditions per task.
  void GainsIfJoined(WorkerIndex w, std::span<const TaskIndex> tasks,
                     double* out) const;

  /// O(1) upper bound on GainIfJoined(w, t), derived from the group's
  /// bound-tick accumulator and w's per-pair row maximum (see
  /// WorkerTicks): the candidate-pruning screen of the best-response
  /// scan. Never below the exact gain; equal to 0 when joining cannot
  /// produce a scoring group. Same preconditions as GainIfJoined.
  double JoinBound(WorkerIndex w, TaskIndex t) const;

  /// Upper bound on any single pair affinity s(w, m) = q_w(m) + q_m(w)
  /// involving `w`, in 2^-32 fixed point: the tile's per-row float
  /// maximum when attached, else the trivial 2.0 (qualities live in
  /// [0, 1]). Integer ticks make the per-task accumulators exactly
  /// reversible under Add/Remove.
  int64_t WorkerTicks(WorkerIndex w) const;

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
  /// Bound ticks are untouched: a trial + rollback nets to zero, and an
  /// accepted local-search swap keeps each group's tick sum valid via
  /// ShiftBoundTicks.
  void ApplyDelta(TaskIndex t, double delta, int new_size,
                  std::span<const WorkerIndex> members);

  /// Shifts task `t`'s bound-tick accumulator by `delta` ticks. Local
  /// search calls this on an accepted swap (departing worker's ticks
  /// out, arriving worker's in) since the swap bypasses Add/Remove.
  void ShiftBoundTicks(TaskIndex t, int64_t delta);

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
  /// members. Runs the tile kernel when a tile is attached and
  /// nothing needs skipping; bit-identical scalar order otherwise.
  double AffinityOverGroup(std::span<const WorkerIndex> group,
                           WorkerIndex w, WorkerIndex skip,
                           int* others) const;

  /// Canonical-lane ordered-pair sum of a distinct-id group.
  double GroupPairSum(std::span<const WorkerIndex> group) const;

  const Instance* instance_ = nullptr;
  const Assignment* assignment_ = nullptr;
  const CoopTile* tile_ = nullptr;
  std::vector<double> pair_sums_;  // ordered-pair sum per task
  std::vector<double> scores_;     // Equation-2 value per task
  /// Sum of members' WorkerTicks per task (2^-32 fixed point): an exact
  /// integer upper-bound accumulator feeding JoinBound.
  std::vector<int64_t> bound_ticks_;
  double total_ = 0.0;
};

}  // namespace casc

#endif  // CASC_MODEL_SCORE_KEEPER_H_
