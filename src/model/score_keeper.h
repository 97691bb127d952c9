#ifndef CASC_MODEL_SCORE_KEEPER_H_
#define CASC_MODEL_SCORE_KEEPER_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "model/assignment.h"
#include "model/instance.h"
#include "model/objective.h"

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
/// from CooperationMatrix::Mutual and accumulate it in one canonical
/// 4-lane order (element j in lane j % 4, lanes combined as
/// (l0 + l2) + (l1 + l3)). The order fixes every score bit, so it must
/// not change.
///
/// CrowdIfJoined keeps a crowding cache per task: the member ids it was
/// built for, their pair table and the running sums DropOneCrowding
/// derives from it. An entry is valid only while its ids equal GroupOf(t)
/// element by element, so any change to the group, a reorder included,
/// rebuilds it on the next query; Add/Remove never touch it and Rebind
/// empties it. The cache is `mutable` and filled by const queries.
///
/// Thread contract: every keeper belongs to one solver (a shard's
/// workspace, the sharded assigner's phase-2 keeper, the net
/// coordinator's), and mutations and ordinary queries run on that
/// solver's thread. The one shared phase is a memo refresh
/// (RefreshMemo in algo/best_response.h): after PrepareSharedReads(),
/// and until the next mutation, const queries read only shared state,
/// so several threads may price candidates at once as long as each
/// writes only its own workers' memo rows and MarkScanned slots.
///
/// The keeper also holds the best-response memo: one price per valid
/// (worker, task) pair, indexed by Instance::ValidTaskOffset, a clock
/// value per task for its last change and one per worker for its last
/// best-response scan. Add, Remove and ApplyDelta stamp their task with a
/// fresh clock value; Rebind and Sync stamp every task. The keeper-backed
/// ComputeBestResponse prices every valid task of w, so after a scan each
/// price stays valid while its task's stamp is not newer than the scan.
/// That is exact: a price reads only the task's members in order, its
/// cached pair sum and score and w's static attributes, and only those
/// mutations change them. The slot of the task w is on holds w's stay
/// utility (LossIfLeft) instead of a join price; w joining that task,
/// leaving it or being crowded out of it is an Add or Remove, so each
/// switch between the two meanings stamps the task after the scan that
/// stored the other. The memo is `mutable` like the crowding cache and
/// sized on first use.
class ScoreKeeper {
 public:
  /// The memo price of a join ObjectiveModel::JoinFeasible rejected; a
  /// priced candidate is finite.
  static constexpr double kJoinInfeasible =
      -std::numeric_limits<double>::infinity();

  /// One worker's view of the memo: its prices, parallel to
  /// instance.ValidTasks(w), and the clock value of its last scan.
  struct MemoRow {
    std::span<double> prices;
    uint64_t scanned_at = 0;
  };

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

  /// Exactly DropOneCrowding(coop, GroupOf(t), w): the crowding outcome of
  /// `w` joining t's group (normally a full task). The members' pair
  /// table and running sums come from t's cache entry, rebuilt first if
  /// the group changed since it was filled, so a query reads only the
  /// newcomer's row of Mutual values. Groups over kCrowdTableGroup
  /// (newcomer included) call DropOneCrowding. Requires w not in the
  /// group and a non-empty group.
  CrowdOut CrowdIfJoined(WorkerIndex w, TaskIndex t) const;

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

  /// Clock value of task t's last change: its last Add, Remove or
  /// ApplyDelta, or the last Rebind/Sync. Strictly newer than every scan
  /// recorded before that change.
  uint64_t TaskChangedAt(TaskIndex t) const {
    return changed_at_[static_cast<size_t>(t)];
  }

  /// Worker `w`'s memo row. Sizes the memo for the bound instance on
  /// first use; the arenas only grow, and a row left from an earlier
  /// binding is stale because Rebind/Sync stamped every task after it.
  MemoRow Memo(WorkerIndex w) const;

  /// Records a scan of `w` that left every price of its row current.
  void MarkScanned(WorkerIndex w) const {
    scanned_at_[static_cast<size_t>(w)] = clock_;
  }

  /// Sizes the memo arenas and fills the crowding cache entry of every
  /// full task, so that until the next mutation no const query writes
  /// shared state: Memo() resizes nothing and CrowdIfJoined (reached only
  /// for a full task) finds its entry current. Call on the owning thread
  /// before handing the keeper to several readers.
  void PrepareSharedReads() const;

 private:
  /// Grows the memo arenas to the bound instance's valid pairs and
  /// workers (they never shrink).
  void SizeMemo() const;

  /// Task t's crowding table for `members` (its current group), refilled
  /// first if the cached entry was built for another group; empty when
  /// the group is empty or too large for the slot.
  std::span<const double> CrowdTable(
      TaskIndex t, std::span<const WorkerIndex> members) const;

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

  /// Stamps every task with one fresh clock value: no stored price is
  /// valid after.
  void InvalidateMemo();

  /// One task's region of the crowding arenas, sized for its capacity.
  struct CrowdSlot {
    std::size_t values = 0;  ///< first double in crowd_values_
    std::size_t ids = 0;     ///< first id in crowd_ids_
    int capacity = 0;        ///< most members the slot holds (0 = none)
    int size = 0;            ///< members cached (0 = empty)
  };

  const Instance* instance_ = nullptr;
  const Assignment* assignment_ = nullptr;
  std::vector<double> pair_sums_;  // ordered-pair sum per task
  std::vector<double> scores_;     // Equation-2 value per task
  double total_ = 0.0;
  // The crowding cache (see the class comment). A slot of capacity c owns
  // CrowdTableSize(c) doubles, holding FillCrowdTable's table of the ids
  // it was filled for, and c ids.
  mutable std::vector<CrowdSlot> crowd_slots_;
  mutable std::vector<double> crowd_values_;
  mutable std::vector<WorkerIndex> crowd_ids_;
  // The best-response memo (see the class comment). The clock counts
  // keeper mutations and never wraps.
  uint64_t clock_ = 0;
  std::vector<uint64_t> changed_at_;           // per task
  mutable std::vector<uint64_t> scanned_at_;   // per worker
  mutable std::vector<double> prices_;         // per valid pair
};

}  // namespace casc

#endif  // CASC_MODEL_SCORE_KEEPER_H_
