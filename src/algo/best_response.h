#ifndef CASC_ALGO_BEST_RESPONSE_H_
#define CASC_ALGO_BEST_RESPONSE_H_

#include "model/assignment.h"
#include "model/instance.h"
#include "model/score_keeper.h"

namespace casc {

/// The game-theoretic strategy evaluation shared by the GT assigner and
/// the Nash-equilibrium property checks in the test suite (Section V-B).
///
/// A worker's strategy is a valid task or idling; the utility of playing
/// task t given the other workers' strategies is Equation 5:
///   U_i = Q(W_t) - Q(W_t \ {w_i})   with w_i counted in W_t.
/// When joining would exceed the task's capacity a_t, Equation 2 pays only
/// the best a_t-subset; the excluded worker is "crowded out" (the
/// mechanism behind Theorems V.3 / V.4).

/// Utility of worker `w` playing strategy `t` under `assignment`
/// (which may currently place `w` anywhere, including on `t`).
/// If joining `t` would overfill it, `*crowded_out` receives the worker
/// the best-subset rule would evict (possibly `w` itself, in which case
/// the utility is 0); otherwise kNoWorker. `crowded_out` may be null.
/// Playing `t == kNoTask` (idle) has utility 0.
double StrategyUtility(const Instance& instance,
                       const Assignment& assignment, WorkerIndex w,
                       TaskIndex t, WorkerIndex* crowded_out);

/// The best response of worker `w` given everyone else's strategies.
struct BestResponse {
  TaskIndex task = kNoTask;          ///< argmax strategy (kNoTask = idle)
  double utility = 0.0;              ///< utility of that strategy
  WorkerIndex crowded_out = kNoWorker;  ///< evicted worker, if any
};

/// Scans `w`'s valid tasks plus idling and returns the utility-maximizing
/// strategy. Ties resolve to the current strategy first, then the lowest
/// task index, making the GT loop deterministic.
BestResponse ComputeBestResponse(const Instance& instance,
                                 const Assignment& assignment,
                                 WorkerIndex w);

/// Delta-evaluated StrategyUtility: identical semantics to the scratch
/// overload above, but each candidate costs one ScoreKeeper marginal —
/// O(|W_t|) with no allocation — instead of two from-scratch GroupScore
/// calls (O(|W_t|^2) each). The crowding branch (joining a full task)
/// runs DropOneCrowding, O(a_t^3) on a stack table and still without
/// allocation. `keeper` must mirror `assignment` exactly: same group
/// membership for every task.
double StrategyUtility(const Instance& instance, const ScoreKeeper& keeper,
                       const Assignment& assignment, WorkerIndex w,
                       TaskIndex t, WorkerIndex* crowded_out);

/// Work counters of one best-response candidate scan.
struct ScanCounters {
  int64_t evaluated = 0;  ///< candidates whose exact utility was computed
  /// Candidates rejected by ObjectiveModel::JoinFeasible before any
  /// utility work (always 0 for objectives with a trivial predicate).
  int64_t feasibility_rejects = 0;
};

/// Delta-evaluated best response; the keeper-backed twin of
/// ComputeBestResponse with the same tie-breaking contract. The scan
/// keeps the CSR ascending task order and prices every feasible
/// candidate with the keeper StrategyUtility (one ScoreKeeper marginal
/// below capacity, DropOneCrowding on a full task). `counters` (may be
/// null) receives the scan's work tally.
BestResponse ComputeBestResponse(const Instance& instance,
                                 const ScoreKeeper& keeper,
                                 const Assignment& assignment, WorkerIndex w,
                                 ScanCounters* counters = nullptr);

/// Result of applying one strategy change.
struct MoveResult {
  TaskIndex from = kNoTask;            ///< previous strategy
  WorkerIndex crowded_out = kNoWorker; ///< worker evicted from the target
};

/// Moves `w` to strategy `t` (or idle for kNoTask), evicting the
/// best-subset loser (DropOneCrowding) when the target overflows, so the
/// assignment never leaves this function over capacity. Requires t to be
/// valid for w and every group to be within capacity on entry.
MoveResult ApplyMove(const Instance& instance, Assignment* assignment,
                     WorkerIndex w, TaskIndex t);

/// ApplyMove that also keeps `keeper` in sync with the assignment (a
/// null keeper degrades to the plain overload). The keeper never observes
/// an over-capacity group: on crowding, the evicted member is removed
/// before the newcomer is added.
MoveResult ApplyMove(const Instance& instance, Assignment* assignment,
                     ScoreKeeper* keeper, WorkerIndex w, TaskIndex t);

/// True when no worker can strictly improve its utility (beyond
/// `tolerance`) by unilaterally deviating: the pure Nash equilibrium
/// condition of Section V-A. O(m * n̄) — used by tests and the GT loop's
/// final verification pass.
bool IsNashEquilibrium(const Instance& instance,
                       const Assignment& assignment, double tolerance);

}  // namespace casc

#endif  // CASC_ALGO_BEST_RESPONSE_H_
