#include "algo/best_response.h"

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "model/objective.h"
#include "model/objective_model.h"

namespace casc {
namespace {

/// Strict-improvement threshold guarding against floating-point ping-pong
/// in the best-response loop.
constexpr double kImprovementTolerance = 1e-12;

}  // namespace

double StrategyUtility(const Instance& instance,
                       const Assignment& assignment, WorkerIndex w,
                       TaskIndex t, WorkerIndex* crowded_out) {
  if (crowded_out != nullptr) *crowded_out = kNoWorker;
  if (t == kNoTask) return 0.0;

  // W_t = the other workers currently playing t, plus w.
  std::vector<WorkerIndex> group;
  group.reserve(assignment.GroupOf(t).size() + 1);
  for (const WorkerIndex member : assignment.GroupOf(t)) {
    if (member != w) group.push_back(member);
  }
  const std::vector<WorkerIndex> others = group;  // W_t \ {w}
  group.push_back(w);

  const int capacity = instance.tasks()[static_cast<size_t>(t)].capacity;
  if (static_cast<int>(group.size()) <= capacity) {
    return GroupScore(instance, t, group) -
           GroupScore(instance, t, others);
  }

  // Overfull: Equation 2 pays only the best a_t-subset of W_t. The member
  // left out of that subset is the crowded-out worker.
  const std::vector<WorkerIndex> best =
      BestSubset(instance.coop(), group, capacity);
  if (crowded_out != nullptr) {
    for (const WorkerIndex member : group) {
      if (std::find(best.begin(), best.end(), member) == best.end()) {
        *crowded_out = member;
        break;
      }
    }
  }
  return GroupScore(instance, t, group) - GroupScore(instance, t, others);
}

BestResponse ComputeBestResponse(const Instance& instance,
                                 const Assignment& assignment,
                                 WorkerIndex w) {
  const TaskIndex current = assignment.TaskOf(w);
  BestResponse best;
  // Seed with the current strategy so ties keep the worker in place.
  best.task = current;
  best.utility =
      StrategyUtility(instance, assignment, w, current, &best.crowded_out);

  // The strategy space is the *feasible* valid tasks (plus staying and
  // idling): objectives with a non-trivial join predicate restrict the
  // deviations a worker may even consider. IsNashEquilibrium applies the
  // same filter, so the equilibrium notion stays consistent.
  const ObjectiveModel& objective = instance.objective();
  const bool filter_joins = !objective.AlwaysJoinFeasible();
  for (const TaskIndex t : instance.ValidTasks(w)) {
    if (t == current) continue;
    if (filter_joins &&
        !objective.JoinFeasible(instance, t, assignment.GroupOf(t), w)) {
      continue;
    }
    WorkerIndex crowded = kNoWorker;
    const double utility =
        StrategyUtility(instance, assignment, w, t, &crowded);
    if (utility > best.utility + kImprovementTolerance) {
      best.task = t;
      best.utility = utility;
      best.crowded_out = crowded;
    }
  }
  // Idling beats a negative current utility (cannot happen with
  // non-negative qualities, but keeps the game well-defined).
  if (0.0 > best.utility + kImprovementTolerance) {
    best = BestResponse{kNoTask, 0.0, kNoWorker};
  }
  return best;
}

double StrategyUtility(const Instance& instance, const ScoreKeeper& keeper,
                       const Assignment& assignment, WorkerIndex w,
                       TaskIndex t, WorkerIndex* crowded_out) {
  if (crowded_out != nullptr) *crowded_out = kNoWorker;
  if (t == kNoTask) return 0.0;

  if (assignment.TaskOf(w) == t) {
    // U_i = Q(W_t) - Q(W_t \ {w_i}): exactly the leaving marginal.
    return keeper.LossIfLeft(w, t);
  }

  const std::span<const WorkerIndex> others = keeper.GroupOf(t);
  const int capacity = instance.tasks()[static_cast<size_t>(t)].capacity;
  if (static_cast<int>(others.size()) < capacity) {
    return keeper.GainIfJoined(w, t);
  }

  // Full: Equation 2 pays only the best a_t-subset of W_t ∪ {w}, which
  // leaves exactly one worker out. The pre-join score is already cached.
  CASC_CHECK_EQ(static_cast<int>(others.size()), capacity)
      << "StrategyUtility: task " << t << " is over capacity";
  const CrowdOut crowd = DropOneCrowding(instance.coop(), others, w);
  if (crowded_out != nullptr) *crowded_out = crowd.evicted;
  double joined_score = 0.0;
  if (capacity + 1 >= instance.min_group_size()) {
    // The survivors are scored by the objective (a crowd-out can break
    // skill coverage), named as W_t plus w without the evicted member;
    // for the default objective this is exactly PairSum(survivors) /
    // (capacity - 1).
    const bool joiner_stays = crowd.evicted != w;
    joined_score = instance.objective().ScoreGroup(
        instance, t, others, joiner_stays ? w : kNoWorker,
        joiner_stays ? crowd.evicted : kNoWorker, crowd.pair_sum, capacity);
  }
  return joined_score - keeper.TaskScore(t);
}

BestResponse ComputeBestResponse(const Instance& instance,
                                 const ScoreKeeper& keeper,
                                 const Assignment& assignment, WorkerIndex w,
                                 ScanCounters* counters) {
  const TaskIndex current = assignment.TaskOf(w);
  BestResponse best;
  best.task = current;
  best.utility = StrategyUtility(instance, keeper, assignment, w, current,
                                 &best.crowded_out);
  const ObjectiveModel& objective = instance.objective();
  // Hoisted so the default objective pays no per-candidate virtual call
  // for a predicate that is constantly true.
  const bool filter_joins = !objective.AlwaysJoinFeasible();

  // Candidates in CSR ascending task order: below capacity each costs
  // one GainIfJoined, a full task takes the crowding branch.
  for (const TaskIndex t : instance.ValidTasks(w)) {
    if (t == current) continue;
    if (filter_joins &&
        !objective.JoinFeasible(instance, t, keeper.GroupOf(t), w)) {
      if (counters != nullptr) ++counters->feasibility_rejects;
      continue;
    }
    if (counters != nullptr) ++counters->evaluated;
    WorkerIndex crowded = kNoWorker;
    const double utility =
        StrategyUtility(instance, keeper, assignment, w, t, &crowded);
    if (utility > best.utility + kImprovementTolerance) {
      best.task = t;
      best.utility = utility;
      best.crowded_out = crowded;
    }
  }
  if (0.0 > best.utility + kImprovementTolerance) {
    best = BestResponse{kNoTask, 0.0, kNoWorker};
  }
  return best;
}

MoveResult ApplyMove(const Instance& instance, Assignment* assignment,
                     WorkerIndex w, TaskIndex t) {
  CASC_CHECK(assignment != nullptr);
  MoveResult result;
  result.from = assignment->TaskOf(w);
  if (t == kNoTask) {
    assignment->Unassign(w);
    return result;
  }
  CASC_CHECK(instance.IsValidPair(w, t))
      << "ApplyMove: pair (" << w << ", " << t << ") is not valid";
  assignment->Assign(w, t);
  const int capacity = instance.tasks()[static_cast<size_t>(t)].capacity;
  if (assignment->GroupSize(t) > capacity) {
    // Assign appended w, so the group is a full task's members plus w.
    const std::span<const WorkerIndex> overfull = assignment->GroupOf(t);
    CASC_CHECK_EQ(static_cast<int>(overfull.size()), capacity + 1)
        << "ApplyMove: task " << t << " was over capacity";
    result.crowded_out =
        DropOneCrowding(instance.coop(), overfull.first(overfull.size() - 1),
                        overfull.back())
            .evicted;
    assignment->Unassign(result.crowded_out);
  }
  return result;
}

MoveResult ApplyMove(const Instance& instance, Assignment* assignment,
                     ScoreKeeper* keeper, WorkerIndex w, TaskIndex t) {
  if (keeper == nullptr) return ApplyMove(instance, assignment, w, t);
  CASC_CHECK(assignment != nullptr);
  MoveResult result;
  result.from = assignment->TaskOf(w);
  if (result.from == t) return result;  // Assign(w, TaskOf(w)) is a no-op

  // Keeper updates interleave with the assignment mutations: each
  // Remove/Add must scan the group state the mirrored-keeper design saw,
  // so the eviction delta is computed before the newcomer joins and the
  // join delta after the evictee left.
  if (result.from != kNoTask) {
    keeper->Remove(w, result.from);
    assignment->Unassign(w);
  }
  if (t == kNoTask) return result;
  CASC_CHECK(instance.IsValidPair(w, t))
      << "ApplyMove: pair (" << w << ", " << t << ") is not valid";

  const int capacity = instance.tasks()[static_cast<size_t>(t)].capacity;
  if (assignment->GroupSize(t) >= capacity) {
    // Joining would overfill: Equation 2 pays only the best a_t-subset of
    // W_t ∪ {w}; the member left out is crowded out (possibly w itself).
    CASC_CHECK_EQ(assignment->GroupSize(t), capacity)
        << "ApplyMove: task " << t << " is over capacity";
    const WorkerIndex evicted =
        DropOneCrowding(instance.coop(), assignment->GroupOf(t), w).evicted;
    result.crowded_out = evicted;
    if (evicted == w) return result;  // w stays out; the group is unchanged
    keeper->Remove(evicted, t);
    assignment->Unassign(evicted);
  }
  keeper->Add(w, t);
  assignment->Assign(w, t);
  return result;
}

bool IsNashEquilibrium(const Instance& instance,
                       const Assignment& assignment, double tolerance) {
  const ObjectiveModel& objective = instance.objective();
  const bool filter_joins = !objective.AlwaysJoinFeasible();
  for (WorkerIndex w = 0; w < instance.num_workers(); ++w) {
    const TaskIndex current = assignment.TaskOf(w);
    const double current_utility =
        StrategyUtility(instance, assignment, w, current, nullptr);
    for (const TaskIndex t : instance.ValidTasks(w)) {
      if (t == current) continue;
      // Deviations are restricted to objective-feasible joins — the same
      // filter ComputeBestResponse applies, so "no improving move" and
      // "equilibrium" quantify over the same strategy space.
      if (filter_joins &&
          !objective.JoinFeasible(instance, t, assignment.GroupOf(t), w)) {
        continue;
      }
      const double utility =
          StrategyUtility(instance, assignment, w, t, nullptr);
      if (utility > current_utility + tolerance) return false;
    }
    if (0.0 > current_utility + tolerance) return false;
  }
  return true;
}

}  // namespace casc
