#ifndef CASC_MODEL_SOLVE_DELTA_H_
#define CASC_MODEL_SOLVE_DELTA_H_

#include <cstdint>
#include <vector>

#include "model/worker.h"

namespace casc {

/// The cross-batch warm-start handoff from the streaming data plane to a
/// solver: the previous batch's equilibrium restricted to still-present
/// players, remapped to this batch's instance indices, plus the dirty
/// frontier the solver must re-evaluate.
///
/// Soundness: the CA-SC game is a potential game (Theorem V.1), so
/// best-response dynamics converge from *any* initial strategy profile —
/// seeding from the previous Nash equilibrium is always safe, and the
/// solver's final full verification pass still certifies the result, so
/// an under-approximated dirty set can cost rounds but never correctness.
/// The dirty set marks workers whose strategic situation may have changed
/// between batches: fresh arrivals, returners from busy, workers whose
/// previous choice disappeared, and every candidate of a task that is new
/// to the instance or whose retained group lost a member.
struct SolveDelta {
  /// Per instance worker: the task (this batch's index) the worker served
  /// at the previous equilibrium, or kNoTask when it was idle or is fresh.
  /// Seeds are capacity-feasible by construction: the workers seeded to
  /// one task are a subset of that task's previous (feasible) group.
  std::vector<TaskIndex> seed_task;

  /// Per instance worker: 1 when the solver must re-run its best response
  /// even before the verification pass.
  std::vector<uint8_t> dirty;

  /// Per instance task: 1 when the task is new to the solved instance,
  /// its retained group lost a member, or it is a standing task whose
  /// bounded-staleness retry came due (it accumulated fresh candidate
  /// arrivals and its slot of the plane's fixed retry epoch fired).
  /// Best-response dynamics alone cannot staff a task from idle
  /// workers (a solo join scores 0 below the minimum group size — the
  /// GtInit::kEmpty trap), so the warm solver re-runs the TPG greedy
  /// stages restricted to exactly these tasks before the dirty rounds.
  /// Seeds never point at a dirty task: its surviving members are
  /// released back to the greedy re-formation.
  std::vector<uint8_t> dirty_task;

  /// Number of set entries in `dirty_task`.
  int64_t num_dirty_tasks = 0;

  /// Number of kNoTask-free entries in `seed_task`.
  int64_t num_seeded = 0;

  /// Number of set entries in `dirty`.
  int64_t num_dirty = 0;

  /// Workers carried over from the previously solved instance — present
  /// then and now, and not away on a busy spell in between. Carried
  /// workers include the idle ones: a worker that idled at the previous
  /// equilibrium and is not dirty was certified idle-best against a local
  /// context that has not changed (options only disappear between batches;
  /// anything gained or regrouped marks its candidates dirty), so skipping
  /// it is exactly as sound as skipping a clean group member. A delta with
  /// zero carried workers is never published (the driver hands the solver
  /// a null pointer instead), which is what makes zero-carry-over batches
  /// take the cold path bit-identically.
  int64_t num_carried = 0;
};

/// `delta` when it can warm-start a solve over `num_workers` workers —
/// non-null, carrying at least one worker and sized for that instance —
/// else null: a stale or absent delta degrades to the cold path.
inline const SolveDelta* UsableSolveDelta(const SolveDelta* delta,
                                          int num_workers) {
  return delta != nullptr && delta->num_carried > 0 &&
                 static_cast<int>(delta->seed_task.size()) == num_workers
             ? delta
             : nullptr;
}

}  // namespace casc

#endif  // CASC_MODEL_SOLVE_DELTA_H_
