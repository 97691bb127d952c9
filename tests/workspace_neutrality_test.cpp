#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "algo/gt_assigner.h"
#include "algo/local_search.h"
#include "algo/online_assigner.h"
#include "common/rng.h"
#include "gen/synthetic.h"
#include "model/batch_workspace.h"
#include "model/objective.h"
#include "model/objective_model.h"

namespace casc {
namespace {

Instance RandomInstance(int workers, int tasks, uint64_t seed,
                        int capacity = 4, int min_group = 3,
                        int num_skills = 0) {
  Rng rng(seed);
  SyntheticInstanceConfig config;
  config.num_workers = workers;
  config.num_tasks = tasks;
  config.task.capacity = capacity;
  config.min_group_size = min_group;
  config.worker.radius_min = 0.25;
  config.worker.radius_max = 0.50;
  config.worker.speed_min = 0.05;
  config.worker.speed_max = 0.15;
  config.worker.num_skills = num_skills;
  config.task.num_skills = num_skills;
  config.task.skills_per_task = 2;
  return GenerateSyntheticInstance(config, 0.0, &rng);
}

/// Runs two identically configured assigners on `instance`, `pooled`
/// with a BatchWorkspace (recycled assignments, keepers and pair
/// indexes) and `plain` without one, and demands the exact same
/// assignment, final score and scan work: pooling changes allocation
/// churn, never a result bit.
void ExpectWorkspaceNeutral(const Instance& instance, Assigner& pooled,
                            Assigner& plain, const std::string& label) {
  BatchWorkspace workspace;
  pooled.set_workspace(&workspace);
  const Assignment with_workspace = pooled.Run(instance);
  pooled.set_workspace(nullptr);
  const Assignment without_workspace = plain.Run(instance);

  for (WorkerIndex w = 0; w < instance.num_workers(); ++w) {
    ASSERT_EQ(with_workspace.TaskOf(w), without_workspace.TaskOf(w))
        << label << ": worker " << w << " diverged";
  }
  // Exact equality, not near: the trajectories must be identical.
  ASSERT_EQ(pooled.stats().final_score, plain.stats().final_score) << label;
  ASSERT_EQ(TotalScore(instance, with_workspace),
            TotalScore(instance, without_workspace))
      << label;
  ASSERT_EQ(pooled.stats().rounds, plain.stats().rounds) << label;
  ASSERT_EQ(pooled.stats().moves, plain.stats().moves) << label;
  ASSERT_EQ(pooled.stats().candidates_evaluated,
            plain.stats().candidates_evaluated)
      << label;
  ASSERT_EQ(pooled.stats().feasibility_rejects,
            plain.stats().feasibility_rejects)
      << label;
}

TEST(WorkspaceNeutralityFuzzTest, GtVariantsOn200Instances) {
  for (uint64_t seed = 0; seed < 200; ++seed) {
    const int workers = 40 + static_cast<int>(seed % 4) * 15;
    const int tasks = 14 + static_cast<int>(seed % 5) * 4;
    const Instance instance = RandomInstance(workers, tasks, seed + 1);

    GtOptions options;
    switch (seed % 4) {
      case 0:  // plain GT from TPG
        break;
      case 1:  // both paper optimizations, shuffled order
        options.use_tsi = true;
        options.use_lub = true;
        options.order = GtOrder::kShuffled;
        options.order_seed = seed + 7;
        break;
      case 2:  // random init + LUB
        options.init = GtInit::kRandom;
        options.init_seed = seed + 3;
        options.use_lub = true;
        break;
      case 3:  // speculative parallel rounds
        options.num_threads = 2;
        options.use_lub = true;
        break;
    }
    GtAssigner pooled(options);
    GtAssigner plain(options);
    ExpectWorkspaceNeutral(instance, pooled, plain,
                           "gt seed=" + std::to_string(seed));
  }
}

TEST(WorkspaceNeutralityFuzzTest, GtSwapOn50Instances) {
  int swaps_observed = 0;
  for (uint64_t seed = 0; seed < 50; ++seed) {
    const int workers = 36 + static_cast<int>(seed % 3) * 12;
    const int tasks = 12 + static_cast<int>(seed % 4) * 3;
    const Instance instance = RandomInstance(workers, tasks, seed + 101);

    LocalSearchAssigner pooled(std::make_unique<GtAssigner>());
    LocalSearchAssigner plain(std::make_unique<GtAssigner>());
    ExpectWorkspaceNeutral(instance, pooled, plain,
                           "gt+swap seed=" + std::to_string(seed));
    ASSERT_EQ(pooled.swaps_applied(), plain.swaps_applied());
    if (pooled.swaps_applied() > 0) ++swaps_observed;
  }
  // The swap pass must actually move workers on some instances.
  EXPECT_GT(swaps_observed, 0);
}

TEST(WorkspaceNeutralityFuzzTest, OnlineOn50Instances) {
  for (uint64_t seed = 0; seed < 50; ++seed) {
    const int workers = 50 + static_cast<int>(seed % 5) * 10;
    const int tasks = 16 + static_cast<int>(seed % 3) * 6;
    const Instance instance = RandomInstance(workers, tasks, seed + 201);

    OnlineAssigner pooled;
    OnlineAssigner plain;
    ExpectWorkspaceNeutral(instance, pooled, plain,
                           "online seed=" + std::to_string(seed));
  }
}

// ---------------------------------------------------------------------------
// Objective variants: the same neutrality must hold under the multi-skill
// objective, whose skill gate reads the live group membership of the
// pooled assignment.
// ---------------------------------------------------------------------------

TEST(WorkspaceNeutralityFuzzTest, MultiskillGtOn50Instances) {
  int rejects_observed = 0;
  for (uint64_t seed = 0; seed < 50; ++seed) {
    const int workers = 40 + static_cast<int>(seed % 4) * 12;
    const int tasks = 14 + static_cast<int>(seed % 3) * 4;
    Instance instance = RandomInstance(workers, tasks, seed + 301,
                                       /*capacity=*/4, /*min_group=*/3,
                                       /*num_skills=*/8);
    instance.set_objective(&GetMultiSkillObjective());

    GtOptions options;
    if (seed % 2 == 1) {
      options.use_tsi = true;
      options.use_lub = true;
    }
    GtAssigner pooled(options);
    GtAssigner plain(options);
    ExpectWorkspaceNeutral(instance, pooled, plain,
                           "multiskill gt seed=" + std::to_string(seed));
    if (pooled.stats().feasibility_rejects > 0) ++rejects_observed;
  }
  // The skill gate must not be vacuous.
  EXPECT_GT(rejects_observed, 20);
}

TEST(WorkspaceNeutralityFuzzTest, MultiskillOnlineOn30Instances) {
  int rejects_observed = 0;
  for (uint64_t seed = 0; seed < 30; ++seed) {
    const int workers = 50 + static_cast<int>(seed % 5) * 10;
    const int tasks = 16 + static_cast<int>(seed % 3) * 6;
    Instance instance = RandomInstance(workers, tasks, seed + 401,
                                       /*capacity=*/4, /*min_group=*/3,
                                       /*num_skills=*/8);
    instance.set_objective(&GetMultiSkillObjective());

    OnlineAssigner pooled;
    OnlineAssigner plain;
    ExpectWorkspaceNeutral(instance, pooled, plain,
                           "multiskill online seed=" + std::to_string(seed));
    if (pooled.stats().feasibility_rejects > 0) ++rejects_observed;
  }
  EXPECT_GT(rejects_observed, 10);
}

}  // namespace
}  // namespace casc
