#ifndef CASC_TESTS_KEEPER_SCAN_ORACLE_H_
#define CASC_TESTS_KEEPER_SCAN_ORACLE_H_

#include "algo/best_response.h"
#include "model/objective_model.h"

namespace casc {

/// The keeper-backed best-response scan without the best-response memo:
/// every candidate runs JoinFeasible and the keeper StrategyUtility on
/// `keeper` itself. Tests compare the memoized ComputeBestResponse with
/// it on the same keeper (a fresh keeper's pair sums can round
/// differently, so only the same keeper is a bitwise oracle).
inline BestResponse OracleBestResponse(const Instance& instance,
                                       const ScoreKeeper& keeper,
                                       const Assignment& assignment,
                                       WorkerIndex w,
                                       ScanCounters* counters = nullptr) {
  const TaskIndex current = assignment.TaskOf(w);
  BestResponse best;
  best.task = current;
  best.utility = StrategyUtility(instance, keeper, assignment, w, current,
                                 &best.crowded_out);
  const ObjectiveModel& objective = instance.objective();
  const bool filter_joins = !objective.AlwaysJoinFeasible();
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

}  // namespace casc

#endif  // CASC_TESTS_KEEPER_SCAN_ORACLE_H_
