#include "algo/best_response.h"

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "common/thread_pool.h"
#include "model/objective.h"
#include "model/objective_model.h"

namespace casc {
namespace {

/// Applies the move (keeping `keeper` in sync) and, with a non-null
/// `dirty`, flags the workers whose best response may have changed
/// (Theorems V.3 / V.4).
MoveResult MoveAndMarkDirty(const Instance& instance, Assignment* assignment,
                            ScoreKeeper* keeper, WorkerIndex w,
                            TaskIndex target, std::vector<bool>* dirty) {
  const MoveResult move = ApplyMove(instance, assignment, keeper, w, target);
  if (dirty == nullptr) return move;
  const TaskIndex from = move.from;
  const WorkerIndex evicted = move.crowded_out;
  const CooperationMatrix& coop = instance.coop();

  // Effects at the target task (Theorems V.3 / V.4).
  if (target != kNoTask) {
    for (const WorkerIndex i : instance.Candidates(target)) {
      if (i == w) continue;
      if (evicted == kNoWorker) {
        // Pure addition. Theorem V.3: workers already best-responding to
        // `target` keep that best response (their utility only grew);
        // everyone else may now be attracted (Theorem V.4, condition 1).
        if (assignment->TaskOf(i) != target) {
          (*dirty)[static_cast<size_t>(i)] = true;
        }
      } else {
        // w replaced `evicted`. Members (and would-be joiners whose best
        // response was `target`) can be repelled only if they liked the
        // evicted worker better (V.3); outsiders can be attracted only if
        // they like the newcomer better (V.4, condition 2).
        const double q_new = coop.Quality(i, w);
        const double q_old = coop.Quality(i, evicted);
        if (assignment->TaskOf(i) == target) {
          if (q_old > q_new) (*dirty)[static_cast<size_t>(i)] = true;
        } else {
          if (q_new > q_old) (*dirty)[static_cast<size_t>(i)] = true;
        }
      }
    }
    if (evicted != kNoWorker) {
      (*dirty)[static_cast<size_t>(evicted)] = true;
    }
  }

  // Effects at the departed task: its members lost a partner and anyone
  // whose best response pointed here must reconsider; if the task was
  // full, an opening now exists for every candidate.
  if (from != kNoTask) {
    const bool was_full =
        assignment->GroupSize(from) + 1 ==
        instance.tasks()[static_cast<size_t>(from)].capacity;
    for (const WorkerIndex i : instance.Candidates(from)) {
      if (i == w) continue;
      if (assignment->TaskOf(i) == from || was_full) {
        (*dirty)[static_cast<size_t>(i)] = true;
      }
    }
  }
  return move;
}

/// The memo price of `w` joining `t`, a task other than w's own:
/// kJoinInfeasible when the objective forbids the join, else the keeper
/// StrategyUtility. The one pricing behind both the scan and the refresh,
/// so a refreshed entry is the price the scan would compute.
double PriceCandidate(const Instance& instance, const ScoreKeeper& keeper,
                      const Assignment& assignment, WorkerIndex w,
                      TaskIndex t, bool filter_joins,
                      WorkerIndex* crowded_out) {
  if (filter_joins && !instance.objective().JoinFeasible(
                          instance, t, keeper.GroupOf(t), w)) {
    return ScoreKeeper::kJoinInfeasible;
  }
  return StrategyUtility(instance, keeper, assignment, w, t, crowded_out);
}

/// The stay utility of `w` on its current task `current` (0 when idle),
/// kept in the task's own memo slot: priced again with LossIfLeft only
/// when the task changed since w's last scan. Exact, because w joining
/// `current`, leaving it or being crowded out of it all stamp the task.
double CurrentPrice(const ScoreKeeper& keeper,
                    std::span<const TaskIndex> tasks,
                    const ScoreKeeper::MemoRow& memo, WorkerIndex w,
                    TaskIndex current) {
  if (current == kNoTask) return 0.0;
  const auto slot = std::lower_bound(tasks.begin(), tasks.end(), current);
  CASC_CHECK(slot != tasks.end() && *slot == current)
      << "worker " << w << " plays task " << current
      << ", which is not one of its valid tasks";
  double& price = memo.prices[static_cast<size_t>(slot - tasks.begin())];
  if (keeper.TaskChangedAt(current) > memo.scanned_at) {
    price = keeper.LossIfLeft(w, current);
  }
  return price;
}

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
  const CrowdOut crowd = keeper.CrowdIfJoined(w, t);
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
  const std::span<const TaskIndex> tasks = instance.ValidTasks(w);
  const ScoreKeeper::MemoRow memo = keeper.Memo(w);
  CASC_CHECK_EQ(memo.prices.size(), tasks.size())
      << "keeper is bound to another instance";
  BestResponse best;
  best.task = current;
  best.utility = CurrentPrice(keeper, tasks, memo, w, current);
  const ObjectiveModel& objective = instance.objective();
  // Hoisted so the default objective pays no per-candidate virtual call
  // for a predicate that is constantly true.
  const bool filter_joins = !objective.AlwaysJoinFeasible();

  // Candidates in CSR ascending task order: below capacity each costs
  // one GainIfJoined, a full task takes the crowding branch. A candidate
  // whose task has not changed since w's last scan reuses the price that
  // scan stored (the memo of ScoreKeeper's class comment); a hit counts
  // like the pricing it replaces.
  bool best_is_hit = false;
  for (size_t k = 0; k < tasks.size(); ++k) {
    const TaskIndex t = tasks[k];
    if (t == current) continue;
    double& price = memo.prices[k];
    WorkerIndex crowded = kNoWorker;
    const bool hit = keeper.TaskChangedAt(t) <= memo.scanned_at;
    if (!hit) {
      price = PriceCandidate(instance, keeper, assignment, w, t,
                             filter_joins, &crowded);
    }
    if (price == ScoreKeeper::kJoinInfeasible) {
      if (counters != nullptr) ++counters->feasibility_rejects;
      continue;
    }
    if (counters != nullptr) ++counters->evaluated;
    if (price > best.utility + kImprovementTolerance) {
      best.task = t;
      best.utility = price;
      best.crowded_out = crowded;
      best_is_hit = hit;
    }
  }
  keeper.MarkScanned(w);
  // The memo keeps prices only; a winner taken from it is priced again
  // for its crowded-out worker (the same price, bit for bit).
  if (best_is_hit) {
    StrategyUtility(instance, keeper, assignment, w, best.task,
                    &best.crowded_out);
  }
  if (0.0 > best.utility + kImprovementTolerance) {
    best = BestResponse{kNoTask, 0.0, kNoWorker};
  }
  return best;
}

void RefreshMemo(const Instance& instance, const ScoreKeeper& keeper,
                 const Assignment& assignment,
                 std::span<const WorkerIndex> workers, ThreadPool* pool) {
  keeper.PrepareSharedReads();
  const bool filter_joins = !instance.objective().AlwaysJoinFeasible();
  const auto refresh = [&](WorkerIndex w) {
    const TaskIndex current = assignment.TaskOf(w);
    const std::span<const TaskIndex> tasks = instance.ValidTasks(w);
    const ScoreKeeper::MemoRow memo = keeper.Memo(w);
    CASC_CHECK_EQ(memo.prices.size(), tasks.size())
        << "keeper is bound to another instance";
    for (size_t k = 0; k < tasks.size(); ++k) {
      const TaskIndex t = tasks[k];
      if (keeper.TaskChangedAt(t) <= memo.scanned_at) continue;
      memo.prices[k] = t == current
                           ? keeper.LossIfLeft(w, t)
                           : PriceCandidate(instance, keeper, assignment, w,
                                            t, filter_joins, nullptr);
    }
    keeper.MarkScanned(w);
  };
  const int64_t count = static_cast<int64_t>(workers.size());
  ThreadPool::RunChunks(
      pool, count, ThreadPool::ChunksFor(pool, count, 1),
      [&](int, int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
          refresh(workers[static_cast<size_t>(i)]);
        }
      });
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
    const WorkerIndex evicted = keeper->CrowdIfJoined(w, t).evicted;
    result.crowded_out = evicted;
    if (evicted == w) return result;  // w stays out; the group is unchanged
    keeper->Remove(evicted, t);
    assignment->Unassign(evicted);
  }
  keeper->Add(w, t);
  assignment->Assign(w, t);
  return result;
}

int64_t BestResponseRound(const Instance& instance,
                          std::span<const WorkerIndex> order,
                          Assignment* assignment, ScoreKeeper* keeper,
                          std::vector<bool>* dirty, AssignerStats* stats,
                          std::vector<AppliedMove>* log) {
  AssignerStats unused;
  AssignerStats& tally = stats != nullptr ? *stats : unused;
  int64_t moves = 0;
  for (const WorkerIndex w : order) {
    if (dirty != nullptr) {
      if (!(*dirty)[static_cast<size_t>(w)]) {
        ++tally.best_response_skips;
        continue;
      }
      (*dirty)[static_cast<size_t>(w)] = false;
    }
    const TaskIndex current = assignment->TaskOf(w);
    ScanCounters counters;
    const BestResponse best =
        ComputeBestResponse(instance, *keeper, *assignment, w, &counters);
    tally.candidates_evaluated += counters.evaluated;
    tally.feasibility_rejects += counters.feasibility_rejects;
    ++tally.best_response_evals;
    // A best response other than `current` already beats it strictly, so
    // any change of task is an improving move.
    if (best.task == current) continue;
    const MoveResult move =
        MoveAndMarkDirty(instance, assignment, keeper, w, best.task, dirty);
    if (log != nullptr) log->push_back({w, best.task, move.crowded_out});
    ++moves;
  }
  tally.moves += moves;
  return moves;
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
