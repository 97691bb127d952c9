#ifndef CASC_SERVICE_BOUNDARY_RECONCILER_H_
#define CASC_SERVICE_BOUNDARY_RECONCILER_H_

#include <cstddef>
#include <vector>

#include "model/assignment.h"
#include "model/instance.h"
#include "model/score_keeper.h"
#include "model/solve_delta.h"

namespace casc {

class ThreadPool;

/// Active-set valid pairs from which a pooled polish round first
/// refreshes the best-response memo in parallel (RefreshMemo). Measured
/// per round: 54-62K pairs on skew-s4, where a round's pricing is worth
/// spreading over the idle shard threads, and 0.2-7K (mean 3.7K) on the
/// gap-warm stream, where the fan-out costs more than it saves.
inline constexpr size_t kPolishRefreshMinPairs = 16384;

/// Knobs of the phase-2 protocol.
struct ReconcileOptions {
  /// After the marginal-insertion pass, top up tasks still below the
  /// minimum group size B from the remaining unassigned boundary
  /// workers (greedy max-affinity seeding). Without this, boundary
  /// workers can only join groups that phase 1 already grew to B-1 —
  /// tasks whose candidates are mostly boundary workers would starve.
  bool seed_underfilled = true;

  /// Best-response rounds over the boundary workers (plus every worker a
  /// move crowds out) after insertion/seeding (0 disables polishing).
  /// Uses the full game-theoretic move (including crowding out), so each
  /// move can only increase the total score (the potential-game argument
  /// of Theorem V.1); rounds stop early once no such worker moves. A
  /// small cap recovers most of the cross-shard score the greedy
  /// insertion leaves behind while keeping phase 2 linear in practice.
  int polish_rounds = 3;
};

/// What phase 2 did, for ServiceMetrics.
struct ReconcileStats {
  int adopted = 0;       ///< boundary workers re-seated on retained seeds
  int inserted = 0;      ///< workers placed by best-marginal insertion
  int seeded = 0;        ///< workers placed by under-B seeding
  int polish_moves = 0;  ///< strategy changes in the polish pass
};

/// Phase 2 of the sharded dispatch protocol: re-arbitrates the boundary
/// workers — placed on home-shard tasks or left idle by the per-shard
/// phase 1 — against the committed global assignment.
///
/// Every pass is deterministic and shard-independent — ordered by global
/// worker index or by a totally-ordered gain ranking — so the final
/// assignment depends only on the instance and the phase-1 result, never
/// on thread count or shard processing order:
///   1. *Greedy best-marginal insertion*: repeatedly commit the highest
///      ScoreKeeper::GainIfJoined marginal over all (boundary worker,
///      valid non-full task) pairs (strictly positive; ties by lowest
///      worker then task index), via a lazily-revalidated heap.
///   2. *Under-B seeding* (optional): tasks still below B are topped up
///      to B from the remaining unassigned boundary workers, growing the
///      group greedily by two-way affinity — the cross-shard analogue of
///      TPG stage 1's seed sets.
///   3. *Polish* (optional): up to `polish_rounds` best-response rounds
///      (BestResponseRound, the GT assigner's round) over the boundary
///      workers plus every worker a move crowds out. Given a pool of
///      more than one thread, a round over at least
///      kPolishRefreshMinPairs valid pairs first refreshes its workers'
///      memo in parallel (RefreshMemo); the round's moves are unchanged.
/// Every mutation goes through ApplyMove/ScoreKeeper, so capacity,
/// reachability and one-task-per-worker validity are preserved exactly
/// as on the monolithic path.
class BoundaryReconciler {
 public:
  explicit BoundaryReconciler(ReconcileOptions options = {});

  /// Merges `boundary` (ascending global worker indices; members may be
  /// idle or already placed) into `assignment`: rebinds the reconciler's
  /// keeper to `global`, syncs it and runs PassAdopt (warm batches only),
  /// PassInsert, PassSeed and PassPolish in order; both sharded solvers
  /// call this. Requires global valid pairs. A non-null `delta` (the
  /// batch's warm-start export) drives PassAdopt. `pool` (may be null) is
  /// lent to PassPolish.
  ReconcileStats Reconcile(const Instance& global,
                           const std::vector<WorkerIndex>& boundary,
                           Assignment* assignment,
                           const SolveDelta* delta = nullptr,
                           ThreadPool* pool = nullptr);

  /// Pass 0 (warm-start adoption): re-seats each still-idle boundary
  /// worker on its retained previous-equilibrium task (ascending worker
  /// order) when the group is below capacity and the objective's join
  /// predicate allows it. Restores the cross-shard memberships the
  /// per-shard phase 1 cannot carry (an off-shard seed is invisible to
  /// the home shard's solver), so warm batches start phase 2 from the
  /// previous equilibrium instead of re-deriving it greedily. Returns
  /// the number of adoptions. Call only for warm batches
  /// (delta.num_seeded > 0).
  int PassAdopt(const Instance& global,
                const std::vector<WorkerIndex>& boundary,
                const SolveDelta& delta, Assignment* assignment,
                ScoreKeeper* keeper) const;

  /// Pass 1 (greedy best-marginal insertion) against a live keeper.
  /// Returns the number of insertions.
  int PassInsert(const Instance& global,
                 const std::vector<WorkerIndex>& boundary,
                 Assignment* assignment, ScoreKeeper* keeper) const;

  /// Pass 2 (under-B seeding). Returns the number of seeded workers.
  /// Call only when options().seed_underfilled.
  int PassSeed(const Instance& global,
               const std::vector<WorkerIndex>& boundary,
               Assignment* assignment, ScoreKeeper* keeper) const;

  /// Pass 3 (best-response polish over the active set). Returns the
  /// number of moves. Call only when options().polish_rounds > 0. A
  /// `pool` of more than one thread (idle for the call; may be null)
  /// prices large rounds' candidates ahead in parallel, with moves
  /// bit-identical to a null pool.
  int PassPolish(const Instance& global,
                 const std::vector<WorkerIndex>& boundary,
                 Assignment* assignment, ScoreKeeper* keeper,
                 ThreadPool* pool = nullptr) const;

  const ReconcileOptions& options() const { return options_; }

 private:
  ReconcileOptions options_;
  /// Reconcile's keeper, rebound every call so its crowding cache and
  /// best-response memo keep their arenas across batches. Only the thread
  /// running Reconcile mutates it; the polish's memo refresh reads it
  /// from the lent pool (ScoreKeeper's thread contract).
  ScoreKeeper keeper_;
};

}  // namespace casc

#endif  // CASC_SERVICE_BOUNDARY_RECONCILER_H_
