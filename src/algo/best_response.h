#ifndef CASC_ALGO_BEST_RESPONSE_H_
#define CASC_ALGO_BEST_RESPONSE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "algo/assigner.h"
#include "model/assignment.h"
#include "model/instance.h"
#include "model/score_keeper.h"

namespace casc {

class ThreadPool;

/// The game-theoretic strategy evaluation shared by the GT assigner, the
/// sharded dispatch's phase-2 polish and the Nash-equilibrium property
/// checks in the test suite (Section V-B).
///
/// A worker's strategy is a valid task or idling; the utility of playing
/// task t given the other workers' strategies is Equation 5:
///   U_i = Q(W_t) - Q(W_t \ {w_i})   with w_i counted in W_t.
/// When joining would exceed the task's capacity a_t, Equation 2 pays only
/// the best a_t-subset; the excluded worker is "crowded out" (the
/// mechanism behind Theorems V.3 / V.4).

/// Strict-improvement threshold: a strategy replaces the incumbent only
/// when it is better by more than this, which guards every improvement
/// loop (best responses, marginal insertion, swaps) against
/// floating-point ping-pong.
inline constexpr double kImprovementTolerance = 1e-12;

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
/// asks ScoreKeeper::CrowdIfJoined, which keeps the task's member pair
/// table cached between moves and reads only the joiner's row of a_t
/// pair values, still without allocation. `keeper` must mirror
/// `assignment` exactly: same group membership for every task.
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
/// below capacity, ScoreKeeper::CrowdIfJoined on a full task). Every
/// candidate goes through the keeper's best-response memo, which reuses
/// the price (or the JoinFeasible rejection) w's last scan stored for t
/// while t has not changed since, so the result is bit-identical to
/// pricing every candidate. The current task's slot holds w's stay
/// utility (ScoreKeeper::LossIfLeft) under the same rule. The memo is
/// written, so the scan runs on the keeper's own thread (RefreshMemo is
/// the shared-read phase).
/// `counters` (may be null) receives the scan's work tally; a memo hit
/// counts as the evaluation or rejection it stands for.
BestResponse ComputeBestResponse(const Instance& instance,
                                 const ScoreKeeper& keeper,
                                 const Assignment& assignment, WorkerIndex w,
                                 ScanCounters* counters = nullptr);

/// Brings the best-response memo of every worker of `workers` up to
/// date, so that their next scans find every candidate a hit: for each
/// worker w it reprices each stale entry (a task that changed since w's
/// last scan, w's own task included) with the scan's own pricing, then
/// marks w scanned. Exact by the memo argument of ScoreKeeper's class
/// comment: a refreshed price is the one the scan would compute while its
/// task stays unchanged, and the scan reprices a memo winner for its
/// crowded-out worker, so every later best response, move and counter is
/// bit-identical to the scan alone.
///
/// With a pool of more than one thread the workers are split into
/// contiguous chunks priced in parallel (ScoreKeeper's thread contract:
/// PrepareSharedReads first, then each chunk writes only its own
/// workers' memo rows); otherwise, or with a null pool, it runs inline.
/// `workers` must be distinct, and `keeper` must mirror `assignment`.
void RefreshMemo(const Instance& instance, const ScoreKeeper& keeper,
                 const Assignment& assignment,
                 std::span<const WorkerIndex> workers, ThreadPool* pool);

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
/// an over-capacity group: on crowding (ScoreKeeper::CrowdIfJoined), the
/// evicted member is removed before the newcomer is added.
MoveResult ApplyMove(const Instance& instance, Assignment* assignment,
                     ScoreKeeper* keeper, WorkerIndex w, TaskIndex t);

/// One move applied by BestResponseRound.
struct AppliedMove {
  WorkerIndex worker = kNoWorker;       ///< the mover
  TaskIndex task = kNoTask;             ///< its new strategy (kNoTask = idle)
  WorkerIndex crowded_out = kNoWorker;  ///< worker evicted from `task`
};

/// One round of the best-response dynamic (Algorithm 3): every worker of
/// `order`, in that order, is offered its best response against the
/// current state and moves when it differs from its current strategy
/// (ComputeBestResponse keeps the current strategy unless another beats
/// it by more than kImprovementTolerance, so each move strictly raises
/// the potential). `keeper` must mirror `*assignment` and stays in sync.
///
/// A null `dirty` is a full round. Otherwise only workers flagged dirty
/// are evaluated (their flag is cleared first), and after each move the
/// workers whose best response may have changed are flagged per
/// Theorems V.3 / V.4 — the paper's Lazy-Updating of the Best-responses.
///
/// `stats` (may be null) accumulates moves, best-response evaluations
/// and skips and the scan counters; `log` (may be null) receives each
/// applied move in order. Returns the number of moves.
int64_t BestResponseRound(const Instance& instance,
                          std::span<const WorkerIndex> order,
                          Assignment* assignment, ScoreKeeper* keeper,
                          std::vector<bool>* dirty,
                          AssignerStats* stats = nullptr,
                          std::vector<AppliedMove>* log = nullptr);

/// True when no worker can strictly improve its utility (beyond
/// `tolerance`) by unilaterally deviating: the pure Nash equilibrium
/// condition of Section V-A. O(m * n̄) — used by tests and the GT loop's
/// final verification pass.
bool IsNashEquilibrium(const Instance& instance,
                       const Assignment& assignment, double tolerance);

}  // namespace casc

#endif  // CASC_ALGO_BEST_RESPONSE_H_
