#include "algo/local_search.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "algo/best_response.h"
#include "common/check.h"
#include "model/objective.h"

namespace casc {
namespace {

// Cap on improvement passes over all task pairs.
constexpr int kMaxPasses = 50;

}  // namespace

LocalSearchAssigner::LocalSearchAssigner(std::unique_ptr<Assigner> base)
    : base_(std::move(base)) {
  CASC_CHECK(base_ != nullptr);
}

std::string LocalSearchAssigner::Name() const {
  return base_->Name() + "+SWAP";
}

int64_t LocalSearchAssigner::ImprovementPass(
    const Instance& instance, Assignment* assignment, ScoreKeeper* keeper,
    std::vector<std::vector<WorkerIndex>>* mirror) {
  const CooperationMatrix& coop = instance.coop();

  // Trial mutations run on `mirror` + ApplyDelta, not on the assignment:
  // the mirror replicates the legacy keeper's internal group store, whose
  // member order drifts from the assignment's after rolled-back trials
  // (rollback re-appends the worker at the end). Delta sums must
  // accumulate in that drifted order to keep every later score
  // bit-identical with the historical implementation.
  const auto affinity = [&coop](const std::vector<WorkerIndex>& group,
                                WorkerIndex w) {
    double sum = 0.0;
    for (const WorkerIndex member : group) {
      sum += coop.Mutual(member, w);
    }
    return sum;
  };
  const auto remove_from = [&](TaskIndex t, WorkerIndex w) {
    std::vector<WorkerIndex>& group = (*mirror)[static_cast<size_t>(t)];
    const auto it = std::find(group.begin(), group.end(), w);
    CASC_CHECK(it != group.end());
    group.erase(it);
    // The mirror already reflects the trial removal, so it doubles as
    // the membership the objective scores against.
    keeper->ApplyDelta(t, -affinity(group, w),
                       static_cast<int>(group.size()), group);
  };
  const auto add_to = [&](TaskIndex t, WorkerIndex w) {
    std::vector<WorkerIndex>& group = (*mirror)[static_cast<size_t>(t)];
    const double added = affinity(group, w);
    group.push_back(w);
    keeper->ApplyDelta(t, added, static_cast<int>(group.size()), group);
  };

  int64_t swaps = 0;
  const int n = instance.num_tasks();
  for (TaskIndex t1 = 0; t1 < n; ++t1) {
    for (TaskIndex t2 = t1 + 1; t2 < n; ++t2) {
      // Group vectors are copied because a swap invalidates references.
      bool improved = true;
      while (improved) {
        improved = false;
        const std::span<const WorkerIndex> span1 = assignment->GroupOf(t1);
        const std::span<const WorkerIndex> span2 = assignment->GroupOf(t2);
        const std::vector<WorkerIndex> group1(span1.begin(), span1.end());
        const std::vector<WorkerIndex> group2(span2.begin(), span2.end());
        const double base_score =
            keeper->TaskScore(t1) + keeper->TaskScore(t2);
        for (const WorkerIndex w1 : group1) {
          if (!instance.IsValidPair(w1, t2)) continue;
          for (const WorkerIndex w2 : group2) {
            if (!instance.IsValidPair(w2, t1)) continue;
            ++stats_.candidates_evaluated;
            // Trial-apply the exchange on the keeper: four O(group)
            // mutations instead of rebuilding and rescoring both groups
            // from scratch.
            remove_from(t1, w1);
            remove_from(t2, w2);
            add_to(t1, w2);
            add_to(t2, w1);
            const double swapped =
                keeper->TaskScore(t1) + keeper->TaskScore(t2);
            if (swapped > base_score + kImprovementTolerance) {
              assignment->Assign(w1, t2);
              assignment->Assign(w2, t1);
              ++swaps;
              improved = true;
              break;
            }
            remove_from(t1, w2);
            remove_from(t2, w1);
            add_to(t1, w1);
            add_to(t2, w2);
          }
          if (improved) break;
        }
      }
    }
  }
  return swaps;
}

Assignment LocalSearchAssigner::Run(const Instance& instance) {
  base_->set_workspace(workspace());
  Assignment assignment = base_->Run(instance);
  stats_ = base_->stats();
  swaps_applied_ = 0;
  ScoreKeeper keeper = MakeScoreKeeper(instance, assignment);
  std::vector<std::vector<WorkerIndex>> mirror(
      static_cast<size_t>(instance.num_tasks()));
  for (TaskIndex t = 0; t < instance.num_tasks(); ++t) {
    const std::span<const WorkerIndex> group = assignment.GroupOf(t);
    mirror[static_cast<size_t>(t)].assign(group.begin(), group.end());
  }
  for (int pass = 0; pass < kMaxPasses; ++pass) {
    const int64_t swaps =
        ImprovementPass(instance, &assignment, &keeper, &mirror);
    swaps_applied_ += swaps;
    if (swaps == 0) break;
  }
  stats_.final_score = TotalScore(instance, assignment);
  if (workspace() != nullptr) workspace()->Recycle(std::move(keeper));
  return assignment;
}

}  // namespace casc
