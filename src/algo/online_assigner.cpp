#include "algo/online_assigner.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/check.h"
#include "model/objective.h"
#include "model/objective_model.h"
#include "model/score_keeper.h"

namespace casc {

OnlineAssigner::OnlineAssigner(OnlineOptions options) : options_(options) {}

Assignment OnlineAssigner::Run(const Instance& instance) {
  CASC_CHECK(instance.valid_pairs_ready())
      << "ONLINE requires Instance::ComputeValidPairs()";
  stats_ = AssignerStats{};
  Assignment assignment = MakeAssignment(instance);
  // Joining gains are delta-evaluated: the keeper grows with the
  // assignment, so each candidate task costs one affinity-row scan
  // instead of a rebuilt-group GroupScore pair.
  ScoreKeeper keeper = MakeScoreKeeper(instance, assignment);

  // Arrival order; ties broken by worker index for determinism.
  std::vector<WorkerIndex> order(static_cast<size_t>(instance.num_workers()));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](WorkerIndex a, WorkerIndex b) {
                     return instance.workers()[static_cast<size_t>(a)]
                                .arrival_time <
                            instance.workers()[static_cast<size_t>(b)]
                                .arrival_time;
                   });

  const ObjectiveModel& objective = instance.objective();
  const bool filter_joins = !objective.AlwaysJoinFeasible();
  for (const WorkerIndex w : order) {
    TaskIndex best_task = kNoTask;
    double best_gain = 0.0;
    for (const TaskIndex t : instance.ValidTasks(w)) {
      const auto& group = assignment.GroupOf(t);
      const int capacity =
          instance.tasks()[static_cast<size_t>(t)].capacity;
      if (static_cast<int>(group.size()) >= capacity) continue;
      if (filter_joins && !objective.JoinFeasible(instance, t, group, w)) {
        ++stats_.feasibility_rejects;
        continue;
      }
      const double gain = keeper.GainIfJoined(w, t);
      ++stats_.candidates_evaluated;
      if (gain > best_gain) {
        best_gain = gain;
        best_task = t;
      }
    }
    if (best_task == kNoTask && options_.optimistic_join) {
      // No immediately-profitable join: park the worker on the
      // below-threshold task where it fits best (largest raw affinity to
      // the current members; emptiest task as the tie-break) so teams
      // can still form.
      double best_affinity = -1.0;
      for (const TaskIndex t : instance.ValidTasks(w)) {
        const auto& group = assignment.GroupOf(t);
        if (static_cast<int>(group.size()) + 1 >
            instance.min_group_size()) {
          continue;  // only seed groups still at or below B
        }
        if (filter_joins &&
            !objective.JoinFeasible(instance, t, group, w)) {
          ++stats_.feasibility_rejects;
          continue;
        }
        const double affinity =
            instance.coop().RowSum(w, group) +
            1e-3 * (instance.min_group_size() -
                    static_cast<int>(group.size()));
        if (affinity > best_affinity) {
          best_affinity = affinity;
          best_task = t;
        }
      }
    }
    if (best_task != kNoTask) {
      assignment.Assign(w, best_task);
      keeper.Add(w, best_task);
    }
  }
  stats_.final_score = TotalScore(instance, assignment);
  if (workspace() != nullptr) workspace()->Recycle(std::move(keeper));
  return assignment;
}

}  // namespace casc
