#ifndef CASC_MODEL_OBJECTIVE_H_
#define CASC_MODEL_OBJECTIVE_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "model/assignment.h"
#include "model/instance.h"

namespace casc {

/// Implements the CA-SC objective: Equation 2 (cooperation quality revenue
/// of one task), Equation 3 (total revenue), and Equation 4 (the marginal
/// quality increase ΔQ used by both TPG and the game-theoretic utility).
/// Group parameters are read-only spans, so callers pass Assignment /
/// GroupStore groups without copying (std::vector converts implicitly).

/// Selects the subset of `group` of size `k` with the maximum PairSum.
///
/// Enumeration/greedy crossover: the algorithm is exact enumeration
/// while C(|group|, k) < 20000 (e.g. any |group| <= 16 at k=8, and every
/// |group| = k+1 crowding case the assigners produce, where exactly one
/// worker is dropped); at or beyond that count it switches to greedy
/// backward elimination — repeatedly drop the member with the smallest
/// total (incoming + outgoing) affinity to the rest — the standard
/// heuristic for the NP-hard maximum-weight k-induced-subgraph problem
/// the paper cites [2]. The crossover is a pure cost cap: both paths
/// return exactly k workers, and the greedy path is deterministic
/// (ties drop the earliest position). The enumeration at k = |group| - 1
/// is DropOneCrowding below, which returns the same subset.
///
/// Edge cases: k == 0 returns the empty subset, k == |group| returns the
/// whole group (no enumeration either way); k < 0 or k > |group| is a
/// caller bug and CHECK-fails.
/// Requires 0 <= k <= |group|.
std::vector<WorkerIndex> BestSubset(const CooperationMatrix& coop,
                                    std::span<const WorkerIndex> group,
                                    int k);

/// The crowding outcome of a group one over its task's capacity.
struct CrowdOut {
  WorkerIndex evicted = kNoWorker;  ///< the member the best subset leaves out
  double pair_sum = 0.0;  ///< PairSum of the survivors, in group order
};

/// Largest group (members plus newcomer) DropOneCrowding scores on its
/// stack table, and ScoreKeeper::CrowdIfJoined on its cached one.
inline constexpr size_t kCrowdTableGroup = 32;

/// Doubles a crowding table of `members` members takes: (members + 1)^2.
constexpr size_t CrowdTableSize(size_t members) {
  return (members + 1) * (members + 1);
}

/// The newcomer-free part of DropOneCrowding's table for m = |members|:
/// the member pair values Mutual(members[i], members[j]) (i < j, at
/// j * m + i), then the prefix sums kept[0..m], then partial[0..m-1],
/// the score of leaving out member d before the newcomer's row is
/// added. Writes CrowdTableSize(m) doubles of `table`. A caller pricing
/// many newcomers against one group fills it once.
void FillCrowdTable(const CooperationMatrix& coop,
                    std::span<const WorkerIndex> members,
                    std::span<double> table);

/// DropOneCrowding(coop, members, newcomer) from FillCrowdTable's table
/// of `members` and the newcomer's row, row[i] = Mutual(members[i],
/// newcomer): the only part of the answer that depends on the newcomer.
CrowdOut CrowdFromTable(std::span<const double> table,
                        std::span<const WorkerIndex> members,
                        std::span<const double> row, WorkerIndex newcomer);

/// BestSubset(coop, members + [newcomer], |members|) without building a
/// subset: the worker it leaves out and the survivors' PairSum, both
/// bit-identical to that call followed by PairSum. This is the crowding
/// case of Equation 2 (Theorems V.3 / V.4): a full task's members plus
/// one joiner, so exactly one worker is dropped. Up to kCrowdTableGroup
/// workers the pair values Mutual(i, k) are read once into a stack table
/// (FillCrowdTable plus the newcomer's row) and the (|members|)-subsets
/// are scored in BestSubset's lexicographic order with its running sums
/// and strict-`>` tie rule, so on a tie the newcomer, the last position,
/// is the one left out. Larger groups take the BestSubset + PairSum path
/// itself.
///
/// Each call fills the whole table. The best-response engine prices a
/// full task through ScoreKeeper::CrowdIfJoined instead, which keeps the
/// member table per task and reads only the newcomer's row; this
/// function is its oracle and serves the keeper-less callers.
/// Requires distinct workers (PairSum's precondition) and qualities in
/// [0, 1], which every CooperationMatrix guarantees.
CrowdOut DropOneCrowding(const CooperationMatrix& coop,
                         std::span<const WorkerIndex> members,
                         WorkerIndex newcomer);

/// Equation 2: the cooperation quality revenue Q(W_j) of assigning `group`
/// to task `t`. Returns 0 when |group| < B; when |group| > a_j only the
/// best a_j-subset counts (BestSubset above).
double GroupScore(const Instance& instance, TaskIndex t,
                  std::span<const WorkerIndex> group);

/// Equation 4: ΔQ(w, t) = Q(W_j) - Q(W_j \ {w}) where `group` already
/// contains `w`. This is also the game-theoretic utility U_i (Equation 5).
double MarginalOfMember(const Instance& instance, TaskIndex t,
                        std::span<const WorkerIndex> group, WorkerIndex w);

/// Gain of adding `w` (not in `group`) to task `t`:
/// Q(group + w) - Q(group). A caller pricing many joins passes `scratch`
/// to hold group + w instead of allocating a vector per call.
double GainOfJoining(const Instance& instance, TaskIndex t,
                     std::span<const WorkerIndex> group, WorkerIndex w,
                     std::vector<WorkerIndex>* scratch = nullptr);

/// GainOfJoining for a caller that prices many joins into groups that
/// change rarely (TPG stage 2). Per task it keeps GroupScore(group) and
/// the members' pair values in PairSum order, valid while the caller's
/// version of the task is unchanged, so a join reads |group| fresh pair
/// values instead of re-summing both groups. The sum of group + w adds,
/// for each member a in order, a's cached pairs with the later members
/// and then Mutual(group[a], w): PairSum's own term order over group + w,
/// so every gain is bit-identical to GainOfJoining. The pair values of
/// all tasks share one arena that only grows.
class JoinGainCache {
 public:
  /// Forgets every entry and sizes the cache for `instance`'s tasks.
  void Reset(const Instance& instance);

  /// Exactly GainOfJoining(instance, t, group, w) for t's current group
  /// (w not in it), which must be below t's capacity. `version` names the
  /// group's state: the caller changes it whenever the group changes.
  double Gain(const Instance& instance, TaskIndex t,
              std::span<const WorkerIndex> group, WorkerIndex w,
              uint64_t version);

 private:
  struct Entry {
    size_t offset = 0;    ///< first pair value in values_
    size_t reserved = 0;  ///< pair values the entry's region holds
    size_t size = 0;      ///< members the entry was filled for
    uint64_t version = 0;
    bool filled = false;
    double score = 0.0;  ///< GroupScore(group)
  };
  std::vector<Entry> entries_;
  std::vector<double> values_;
};

/// Equation 3: total cooperation quality revenue of `assignment`.
double TotalScore(const Instance& instance, const Assignment& assignment);

/// Braced-list conveniences (tests and small examples): `GroupScore(i, t,
/// {0, 1, 2})` — initializer lists do not convert to std::span.
inline double GroupScore(const Instance& instance, TaskIndex t,
                         std::initializer_list<WorkerIndex> group) {
  return GroupScore(
      instance, t, std::span<const WorkerIndex>(group.begin(), group.size()));
}
inline double MarginalOfMember(const Instance& instance, TaskIndex t,
                               std::initializer_list<WorkerIndex> group,
                               WorkerIndex w) {
  return MarginalOfMember(
      instance, t, std::span<const WorkerIndex>(group.begin(), group.size()),
      w);
}
inline double GainOfJoining(const Instance& instance, TaskIndex t,
                            std::initializer_list<WorkerIndex> group,
                            WorkerIndex w) {
  return GainOfJoining(
      instance, t, std::span<const WorkerIndex>(group.begin(), group.size()),
      w);
}
inline std::vector<WorkerIndex> BestSubset(
    const CooperationMatrix& coop, std::initializer_list<WorkerIndex> group,
    int k) {
  return BestSubset(
      coop, std::span<const WorkerIndex>(group.begin(), group.size()), k);
}

}  // namespace casc

#endif  // CASC_MODEL_OBJECTIVE_H_
