#include "service/boundary_reconciler.h"

#include <algorithm>
#include <queue>

#include "algo/best_response.h"
#include "common/check.h"
#include "common/thread_pool.h"
#include "model/objective_model.h"

namespace casc {
namespace {

/// Two-way affinity of `w` to the current members: the pair-sum increase
/// of adding `w` (the Equation-2 numerator delta).
double Affinity(const CooperationMatrix& coop, WorkerIndex w,
                const std::vector<WorkerIndex>& members) {
  double total = 0.0;
  for (const WorkerIndex m : members) {
    total += coop.Mutual(w, m);
  }
  return total;
}

}  // namespace

BoundaryReconciler::BoundaryReconciler(ReconcileOptions options)
    : options_(options) {}

int BoundaryReconciler::PassAdopt(const Instance& global,
                                  const std::vector<WorkerIndex>& boundary,
                                  const SolveDelta& delta,
                                  Assignment* assignment,
                                  ScoreKeeper* keeper) const {
  CASC_CHECK(assignment != nullptr);
  CASC_CHECK(keeper != nullptr);
  CASC_CHECK_EQ(static_cast<int>(delta.seed_task.size()),
                global.num_workers());
  const ObjectiveModel& objective = global.objective();
  const bool filter_joins = !objective.AlwaysJoinFeasible();
  int adopted = 0;
  // Ascending worker order: the pass is a function of the delta and the
  // phase-1 fold alone, so it is deterministic and shard-independent.
  // Seeds are global valid pairs by BuildSolveDelta's construction; the
  // capacity check guards against phase 1 having filled the group from
  // its own shard's candidates in the meantime.
  for (const WorkerIndex w : boundary) {
    if (assignment->TaskOf(w) != kNoTask) continue;
    const TaskIndex t = delta.seed_task[static_cast<size_t>(w)];
    if (t == kNoTask) continue;
    if (assignment->GroupSize(t) >=
        global.tasks()[static_cast<size_t>(t)].capacity) {
      continue;
    }
    if (filter_joins &&
        !objective.JoinFeasible(global, t, keeper->GroupOf(t), w)) {
      continue;
    }
    assignment->Assign(w, t);
    keeper->Add(w, t);
    ++adopted;
  }
  return adopted;
}

int BoundaryReconciler::PassInsert(const Instance& global,
                                   const std::vector<WorkerIndex>& boundary,
                                   Assignment* assignment,
                                   ScoreKeeper* keeper) const {
  CASC_CHECK(assignment != nullptr);
  CASC_CHECK(keeper != nullptr);
  int inserted = 0;
  // Globally greedy best-marginal insertion — always commit the
  // highest-gain (boundary worker, task) pair next, not the next worker
  // by index. One lazily-revalidated heap entry per worker: a popped
  // entry is recomputed against the current groups and committed only if
  // still accurate, re-pushed otherwise (gains drift whenever a commit
  // touches the target group). The comparator's total order (gain desc,
  // worker asc, task asc) keeps the pass deterministic.
  struct Entry {
    double gain;
    WorkerIndex worker;
    TaskIndex task;
  };
  const auto worse = [](const Entry& a, const Entry& b) {
    if (a.gain != b.gain) return a.gain < b.gain;
    if (a.worker != b.worker) return a.worker > b.worker;
    return a.task > b.task;
  };
  const ObjectiveModel& objective = global.objective();
  const bool filter_joins = !objective.AlwaysJoinFeasible();
  const auto best_insertion = [&](WorkerIndex w) {
    Entry entry{0.0, w, kNoTask};
    double best_gain = kImprovementTolerance;
    for (const TaskIndex t : global.ValidTasks(w)) {
      if (assignment->GroupSize(t) >=
          global.tasks()[static_cast<size_t>(t)].capacity) {
        continue;
      }
      if (filter_joins &&
          !objective.JoinFeasible(global, t, keeper->GroupOf(t), w)) {
        continue;  // objective forbids this join; its gain is never > 0
      }
      const double gain = keeper->GainIfJoined(w, t);
      if (gain > best_gain) {  // ties keep the lowest task index
        best_gain = gain;
        entry.gain = gain;
        entry.task = t;
      }
    }
    return entry;
  };
  std::priority_queue<Entry, std::vector<Entry>, decltype(worse)> heap(worse);
  for (const WorkerIndex w : boundary) {
    // Phase 1 may have placed the worker on a home-shard task already;
    // insertion only serves the ones it left idle (the polish pass below
    // re-arbitrates the placed ones across shards).
    if (assignment->TaskOf(w) != kNoTask) continue;
    const Entry entry = best_insertion(w);
    if (entry.task != kNoTask) heap.push(entry);
  }
  while (!heap.empty()) {
    const Entry top = heap.top();
    heap.pop();
    const Entry current = best_insertion(top.worker);
    if (current.task == kNoTask) continue;  // no positive gain left
    if (current.task != top.task || current.gain != top.gain) {
      heap.push(current);  // stale — re-rank under the updated groups
      continue;
    }
    assignment->Assign(top.worker, top.task);
    keeper->Add(top.worker, top.task);
    ++inserted;
  }
  return inserted;
}

int BoundaryReconciler::PassSeed(const Instance& global,
                                 const std::vector<WorkerIndex>& boundary,
                                 Assignment* assignment,
                                 ScoreKeeper* keeper) const {
  CASC_CHECK(assignment != nullptr);
  CASC_CHECK(keeper != nullptr);
  int seeded = 0;
  // Top up tasks still below B from the unassigned remainder.
  std::vector<bool> available(static_cast<size_t>(global.num_workers()),
                              false);
  for (const WorkerIndex w : boundary) {
    if (assignment->TaskOf(w) == kNoTask) {
      available[static_cast<size_t>(w)] = true;
    }
  }
  for (TaskIndex t = 0; t < global.num_tasks(); ++t) {
    const int size = assignment->GroupSize(t);
    if (size >= global.min_group_size()) continue;
    std::vector<WorkerIndex> pool;
    for (const WorkerIndex w : global.Candidates(t)) {
      if (available[static_cast<size_t>(w)]) pool.push_back(w);
    }
    if (size + static_cast<int>(pool.size()) < global.min_group_size()) {
      continue;  // cannot reach B even with every available candidate
    }
    // Grow to exactly B by max two-way affinity (ties to the lowest
    // worker index — `pool` is ascending). B <= a_j always, so the
    // capacity constraint cannot be hit here. Under an objective with a
    // join predicate the filter is *soft*: feasible candidates (those
    // holding a still-missing skill, or joining an already-covered
    // group) are preferred, but when none exists the unfiltered best
    // joins anyway — reaching B is this pass's contract, and an
    // uncovered group merely scores 0 (exactly like a zero-affinity
    // seed), it is never invalid.
    const ObjectiveModel& objective = global.objective();
    const bool filter_joins = !objective.AlwaysJoinFeasible();
    const std::span<const WorkerIndex> current = keeper->GroupOf(t);
    std::vector<WorkerIndex> members(current.begin(), current.end());
    std::vector<WorkerIndex> chosen;
    while (static_cast<int>(members.size()) < global.min_group_size()) {
      WorkerIndex best = kNoWorker;
      double best_affinity = -1.0;
      bool best_feasible = false;
      for (const WorkerIndex w : pool) {
        if (!available[static_cast<size_t>(w)]) continue;
        const bool feasible =
            !filter_joins ||
            objective.JoinFeasible(global, t, members, w);
        // A feasible candidate always outranks an infeasible one;
        // affinity breaks ties within each class (then the ascending
        // pool order, keeping the pass deterministic).
        if (feasible != best_feasible) {
          if (!feasible) continue;
          best_feasible = true;
          best_affinity = Affinity(global.coop(), w, members);
          best = w;
          continue;
        }
        const double affinity = Affinity(global.coop(), w, members);
        if (affinity > best_affinity) {
          best_affinity = affinity;
          best = w;
        }
      }
      CASC_CHECK_NE(best, kNoWorker);
      members.push_back(best);
      chosen.push_back(best);
      available[static_cast<size_t>(best)] = false;
    }
    for (const WorkerIndex w : chosen) {
      assignment->Assign(w, t);
      keeper->Add(w, t);
        ++seeded;
    }
  }
  return seeded;
}

int BoundaryReconciler::PassPolish(const Instance& global,
                                   const std::vector<WorkerIndex>& boundary,
                                   Assignment* assignment, ScoreKeeper* keeper,
                                   ThreadPool* pool) const {
  CASC_CHECK(assignment != nullptr);
  CASC_CHECK(keeper != nullptr);
  int polish_moves = 0;
  // Best-response rounds over an *active set* that starts as the
  // boundary workers and grows by whoever a move crowds out — an evicted
  // interior worker must get the chance to re-place itself or it would
  // be stranded idle. Rounds stop once no active worker moves (a Nash
  // equilibrium restricted to the active players). The set and the
  // ascending processing order are functions of the moves alone, so the
  // pass stays deterministic.
  std::vector<WorkerIndex> active = boundary;  // ascending
  std::vector<bool> in_active(static_cast<size_t>(global.num_workers()),
                              false);
  for (const WorkerIndex w : active) in_active[static_cast<size_t>(w)] = true;
  std::vector<AppliedMove> moves;
  const bool pooled = pool != nullptr && pool->num_threads() > 1;
  for (int round = 0; round < options_.polish_rounds; ++round) {
    moves.clear();
    if (pooled) {
      size_t pairs = 0;
      for (const WorkerIndex w : active) pairs += global.ValidTasks(w).size();
      if (pairs >= kPolishRefreshMinPairs) {
        RefreshMemo(global, *keeper, *assignment, active, pool);
      }
    }
    BestResponseRound(global, active, assignment, keeper, /*dirty=*/nullptr,
                      /*stats=*/nullptr, &moves);
    polish_moves += static_cast<int>(moves.size());
    if (moves.empty()) break;
    std::vector<WorkerIndex> evicted;
    for (const AppliedMove& move : moves) {
      if (move.crowded_out != kNoWorker &&
          !in_active[static_cast<size_t>(move.crowded_out)]) {
        in_active[static_cast<size_t>(move.crowded_out)] = true;
        evicted.push_back(move.crowded_out);
      }
    }
    if (!evicted.empty()) {
      std::sort(evicted.begin(), evicted.end());
      const auto middle =
          active.insert(active.end(), evicted.begin(), evicted.end());
      std::inplace_merge(active.begin(), middle, active.end());
    }
  }
  return polish_moves;
}

ReconcileStats BoundaryReconciler::Reconcile(
    const Instance& global, const std::vector<WorkerIndex>& boundary,
    Assignment* assignment, const SolveDelta* delta, ThreadPool* pool) {
  CASC_CHECK(assignment != nullptr);
  CASC_CHECK(global.valid_pairs_ready())
      << "compute the global valid pairs before reconciling";
  ReconcileStats stats;
  keeper_.Rebind(global);
  keeper_.Sync(*assignment);

  if (delta != nullptr && delta->num_seeded > 0) {
    stats.adopted = PassAdopt(global, boundary, *delta, assignment, &keeper_);
  }
  stats.inserted = PassInsert(global, boundary, assignment, &keeper_);
  if (options_.seed_underfilled) {
    stats.seeded = PassSeed(global, boundary, assignment, &keeper_);
  }
  if (options_.polish_rounds > 0) {
    stats.polish_moves =
        PassPolish(global, boundary, assignment, &keeper_, pool);
  }
  return stats;
}

}  // namespace casc
