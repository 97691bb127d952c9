#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "algo/best_response.h"
#include "algo/gt_assigner.h"
#include "algo/local_search.h"
#include "algo/online_assigner.h"
#include "algo/tpg_assigner.h"
#include "common/rng.h"
#include "gen/synthetic.h"
#include "model/objective.h"

namespace casc {
namespace {

Instance AllValidInstance(int num_workers, int num_tasks, int capacity,
                          int min_group, CooperationMatrix coop) {
  std::vector<Worker> workers;
  for (int i = 0; i < num_workers; ++i) {
    workers.push_back(Worker{i, {0.5, 0.5}, 1.0, 1.0, 0.0});
  }
  std::vector<Task> tasks;
  for (int j = 0; j < num_tasks; ++j) {
    tasks.push_back(Task{j, {0.5, 0.5}, 0.0, 10.0, capacity});
  }
  Instance instance(std::move(workers), std::move(tasks), std::move(coop),
                    0.0, min_group);
  instance.ComputeValidPairs();
  return instance;
}

Instance RandomInstance(int m, int n, uint64_t seed) {
  Rng rng(seed);
  SyntheticInstanceConfig config;
  config.num_workers = m;
  config.num_tasks = n;
  config.worker.radius_min = 0.15;
  config.worker.radius_max = 0.35;
  config.worker.speed_min = 0.05;
  config.worker.speed_max = 0.15;
  return GenerateSyntheticInstance(config, 0.0, &rng);
}

// ---------------------------------------------------------------------------
// ONLINE assigner
// ---------------------------------------------------------------------------

TEST(OnlineTest, ProcessesInArrivalOrder) {
  // Worker 1 arrives before worker 0; the later arrival finds the good
  // partner already parked.
  std::vector<Worker> workers = {Worker{0, {0.5, 0.5}, 1.0, 1.0, 2.0},
                                 Worker{1, {0.5, 0.5}, 1.0, 1.0, 1.0},
                                 Worker{2, {0.5, 0.5}, 1.0, 1.0, 3.0}};
  std::vector<Task> tasks = {Task{0, {0.5, 0.5}, 0.0, 10.0, 2},
                             Task{1, {0.5, 0.5}, 0.0, 10.0, 2}};
  CooperationMatrix coop(3, 0.5);
  Instance instance(std::move(workers), std::move(tasks), std::move(coop),
                    5.0, 2);
  instance.ComputeValidPairs();
  OnlineAssigner online;
  const Assignment assignment = online.Run(instance);
  // Worker 1 (earliest) parks somewhere; worker 0 joins it; worker 2
  // parks on the remaining task.
  EXPECT_TRUE(assignment.Validate(instance).ok());
  EXPECT_EQ(assignment.TaskOf(0), assignment.TaskOf(1));
  EXPECT_NE(assignment.TaskOf(2), kNoTask);
}

TEST(OnlineTest, FeasibleOnRandomInstances) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const Instance instance = RandomInstance(80, 30, seed);
    OnlineAssigner online;
    EXPECT_TRUE(online.Run(instance).Validate(instance).ok());
  }
}

TEST(OnlineTest, NeverBeatsBatchByMuchAndUsuallyTrails) {
  // The whole point of the batch framework: averaged over instances the
  // one-by-one mode loses to TPG and GT.
  double online_total = 0.0, tpg_total = 0.0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const Instance instance = RandomInstance(100, 40, seed * 17);
    OnlineAssigner online;
    TpgAssigner tpg;
    online_total += TotalScore(instance, online.Run(instance));
    tpg_total += TotalScore(instance, tpg.Run(instance));
  }
  EXPECT_LT(online_total, tpg_total);
}

TEST(OnlineTest, OptimisticJoinFormsTeams) {
  const Instance instance =
      AllValidInstance(6, 2, 3, 3, CooperationMatrix(6, 0.5));
  OnlineAssigner online;
  const Assignment assignment = online.Run(instance);
  EXPECT_EQ(assignment.NumAssigned(), 6);
  EXPECT_GT(TotalScore(instance, assignment), 0.0);
}

TEST(OnlineTest, RespectsCapacity) {
  const Instance instance =
      AllValidInstance(10, 1, 4, 2, CooperationMatrix(10, 0.5));
  OnlineAssigner online;
  const Assignment assignment = online.Run(instance);
  EXPECT_EQ(assignment.GroupSize(0), 4);
  EXPECT_TRUE(assignment.Validate(instance).ok());
}

// ---------------------------------------------------------------------------
// SWAP local search
// ---------------------------------------------------------------------------

TEST(LocalSearchTest, NameAppendsSuffix) {
  LocalSearchAssigner search(std::make_unique<TpgAssigner>());
  EXPECT_EQ(search.Name(), "TPG+SWAP");
  LocalSearchAssigner gt_search(std::make_unique<GtAssigner>());
  EXPECT_EQ(gt_search.Name(), "GT+SWAP");
}

TEST(LocalSearchTest, FixesACraftedBadPairing) {
  // Two tasks, four workers. Worker 0 is pinned to task 0 and worker 3
  // to task 1 (tiny radii), workers 1 and 2 can go anywhere. The good
  // matching pairs 0 with 1 (q=0.9) and 2 with 3 (q=0.9); the bad one
  // pairs 0 with 2 and 1 with 3 (q=0.1 each). A base "assigner" that
  // returns the bad matching must be repaired by one swap.
  class BadAssigner : public Assigner {
   public:
    std::string Name() const override { return "BAD"; }
    Assignment Run(const Instance& instance) override {
      Assignment assignment(instance);
      assignment.Assign(0, 0);
      assignment.Assign(2, 0);
      assignment.Assign(1, 1);
      assignment.Assign(3, 1);
      return assignment;
    }
  };

  std::vector<Worker> workers = {
      Worker{0, {0.2, 0.5}, 1.0, 0.05, 0.0},  // pinned to task 0
      Worker{1, {0.5, 0.5}, 1.0, 1.00, 0.0},
      Worker{2, {0.5, 0.5}, 1.0, 1.00, 0.0},
      Worker{3, {0.8, 0.5}, 1.0, 0.05, 0.0},  // pinned to task 1
  };
  std::vector<Task> tasks = {Task{0, {0.2, 0.5}, 0.0, 10.0, 2},
                             Task{1, {0.8, 0.5}, 0.0, 10.0, 2}};
  CooperationMatrix coop(4);
  coop.SetSymmetric(0, 1, 0.9);
  coop.SetSymmetric(2, 3, 0.9);
  coop.SetSymmetric(0, 2, 0.1);
  coop.SetSymmetric(1, 3, 0.1);
  Instance instance(std::move(workers), std::move(tasks), std::move(coop),
                    0.0, 2);
  instance.ComputeValidPairs();

  LocalSearchAssigner search(std::make_unique<BadAssigner>());
  const Assignment repaired = search.Run(instance);
  EXPECT_EQ(search.swaps_applied(), 1);
  EXPECT_EQ(repaired.TaskOf(1), 0);
  EXPECT_EQ(repaired.TaskOf(2), 1);
  EXPECT_NEAR(TotalScore(instance, repaired), 3.6, 1e-9);
}

TEST(LocalSearchTest, NeverDecreasesTheBaseScore) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const Instance instance = RandomInstance(60, 24, seed * 7);
    TpgAssigner base;
    const double base_score = TotalScore(instance, base.Run(instance));
    LocalSearchAssigner search(std::make_unique<TpgAssigner>());
    const Assignment improved = search.Run(instance);
    EXPECT_GE(TotalScore(instance, improved) + 1e-9, base_score)
        << "seed " << seed;
    EXPECT_TRUE(improved.Validate(instance).ok());
  }
}

TEST(LocalSearchTest, ResultHasNoProfitableSwapLeft) {
  const Instance instance = RandomInstance(50, 20, 99);
  LocalSearchAssigner search(std::make_unique<GtAssigner>());
  const Assignment result = search.Run(instance);
  // Exhaustively verify 2-opt optimality.
  for (TaskIndex t1 = 0; t1 < instance.num_tasks(); ++t1) {
    for (TaskIndex t2 = t1 + 1; t2 < instance.num_tasks(); ++t2) {
      const auto group1 = result.GroupOf(t1);
      const auto group2 = result.GroupOf(t2);
      const double base = GroupScore(instance, t1, group1) +
                          GroupScore(instance, t2, group2);
      for (const WorkerIndex w1 : group1) {
        if (!instance.IsValidPair(w1, t2)) continue;
        for (const WorkerIndex w2 : group2) {
          if (!instance.IsValidPair(w2, t1)) continue;
          std::vector<WorkerIndex> g1_mod, g2_mod;
          for (const WorkerIndex w : group1) {
            g1_mod.push_back(w == w1 ? w2 : w);
          }
          for (const WorkerIndex w : group2) {
            g2_mod.push_back(w == w2 ? w1 : w);
          }
          const double swapped = GroupScore(instance, t1, g1_mod) +
                                 GroupScore(instance, t2, g2_mod);
          EXPECT_LE(swapped, base + 1e-9)
              << "profitable swap remains: " << w1 << "<->" << w2;
        }
      }
    }
  }
}

TEST(LocalSearchTest, StatsCarryBaseInitAndFinalScore) {
  const Instance instance = RandomInstance(40, 16, 5);
  LocalSearchAssigner search(std::make_unique<GtAssigner>());
  const Assignment result = search.Run(instance);
  EXPECT_NEAR(search.stats().final_score, TotalScore(instance, result),
              1e-9);
}

}  // namespace
}  // namespace casc
