#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "algo/best_response.h"
#include "algo/gt_assigner.h"
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

Instance RandomInstance(int workers, int tasks, uint64_t seed,
                        int capacity = 4, int min_group = 3) {
  Rng rng(seed);
  SyntheticInstanceConfig config;
  config.num_workers = workers;
  config.num_tasks = tasks;
  config.task.capacity = capacity;
  config.min_group_size = min_group;
  // Wider reach than the paper defaults so small test instances are
  // combinatorially dense (every worker has several valid tasks and the
  // best-response dynamic actually iterates).
  config.worker.radius_min = 0.25;
  config.worker.radius_max = 0.50;
  config.worker.speed_min = 0.05;
  config.worker.speed_max = 0.15;
  return GenerateSyntheticInstance(config, 0.0, &rng);
}

// ---------------------------------------------------------------------------
// StrategyUtility (Equation 5)
// ---------------------------------------------------------------------------

TEST(StrategyUtilityTest, IdleIsZero) {
  const Instance instance =
      AllValidInstance(4, 2, 3, 2, CooperationMatrix(4, 0.5));
  const Assignment assignment(instance);
  EXPECT_DOUBLE_EQ(
      StrategyUtility(instance, assignment, 0, kNoTask, nullptr), 0.0);
}

TEST(StrategyUtilityTest, EqualsMarginalForMembers) {
  const Instance instance =
      AllValidInstance(5, 2, 4, 2, CooperationMatrix(5, 0.5));
  Assignment assignment(instance);
  assignment.Assign(0, 0);
  assignment.Assign(1, 0);
  assignment.Assign(2, 0);
  const double utility = StrategyUtility(instance, assignment, 1, 0, nullptr);
  EXPECT_NEAR(utility,
              MarginalOfMember(instance, 0, assignment.GroupOf(0), 1),
              1e-12);
}

TEST(StrategyUtilityTest, JoiningFullTaskCrowdsOutWorstFit) {
  CooperationMatrix coop(4);
  coop.SetSymmetric(0, 1, 0.9);
  coop.SetSymmetric(0, 2, 0.1);  // worker 2 is the weak link
  coop.SetSymmetric(1, 2, 0.1);
  coop.SetSymmetric(0, 3, 0.9);
  coop.SetSymmetric(1, 3, 0.9);
  const Instance instance = AllValidInstance(4, 1, 3, 2, std::move(coop));
  Assignment assignment(instance);
  assignment.Assign(0, 0);
  assignment.Assign(1, 0);
  assignment.Assign(2, 0);  // task full at capacity 3
  WorkerIndex crowded = kNoWorker;
  const double utility = StrategyUtility(instance, assignment, 3, 0, &crowded);
  EXPECT_EQ(crowded, 2);
  EXPECT_GT(utility, 0.0);
}

TEST(StrategyUtilityTest, WeakJoinerIsItselfCrowdedOut) {
  CooperationMatrix coop(4);
  coop.SetSymmetric(0, 1, 0.9);
  coop.SetSymmetric(0, 2, 0.9);
  coop.SetSymmetric(1, 2, 0.9);
  // Worker 3 cooperates with nobody and tries to join the full triangle.
  const Instance instance = AllValidInstance(4, 1, 3, 2, std::move(coop));
  Assignment assignment(instance);
  assignment.Assign(0, 0);
  assignment.Assign(1, 0);
  assignment.Assign(2, 0);
  WorkerIndex crowded = kNoWorker;
  const double utility = StrategyUtility(instance, assignment, 3, 0, &crowded);
  EXPECT_EQ(crowded, 3);
  EXPECT_DOUBLE_EQ(utility, 0.0);
}

// ---------------------------------------------------------------------------
// ApplyMove
// ---------------------------------------------------------------------------

TEST(ApplyMoveTest, SimpleMoveUpdatesGroups) {
  const Instance instance =
      AllValidInstance(3, 2, 3, 2, CooperationMatrix(3, 0.5));
  Assignment assignment(instance);
  assignment.Assign(0, 0);
  const MoveResult result = ApplyMove(instance, &assignment, 0, 1);
  EXPECT_EQ(result.from, 0);
  EXPECT_EQ(result.crowded_out, kNoWorker);
  EXPECT_EQ(assignment.TaskOf(0), 1);
}

TEST(ApplyMoveTest, MoveToIdle) {
  const Instance instance =
      AllValidInstance(3, 2, 3, 2, CooperationMatrix(3, 0.5));
  Assignment assignment(instance);
  assignment.Assign(0, 0);
  const MoveResult result = ApplyMove(instance, &assignment, 0, kNoTask);
  EXPECT_EQ(result.from, 0);
  EXPECT_EQ(assignment.TaskOf(0), kNoTask);
}

TEST(ApplyMoveTest, OverflowEvictsBestSubsetLoser) {
  CooperationMatrix coop(3);
  coop.SetSymmetric(0, 1, 0.1);
  coop.SetSymmetric(0, 2, 0.9);  // newcomer 2 pairs well with 0
  const Instance instance = AllValidInstance(3, 1, 2, 2, std::move(coop));
  Assignment assignment(instance);
  assignment.Assign(0, 0);
  assignment.Assign(1, 0);  // full at capacity 2
  const MoveResult result = ApplyMove(instance, &assignment, 2, 0);
  EXPECT_EQ(result.crowded_out, 1);
  EXPECT_EQ(assignment.TaskOf(1), kNoTask);
  EXPECT_EQ(assignment.GroupSize(0), 2);
  EXPECT_TRUE(assignment.Validate(instance).ok());
}

// ---------------------------------------------------------------------------
// Nash equilibrium & potential game (Theorem V.1)
// ---------------------------------------------------------------------------

class GtSeedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GtSeedTest, ReachesVerifiedNashEquilibrium) {
  const Instance instance = RandomInstance(90, 30, GetParam());
  GtAssigner gt;
  const Assignment assignment = gt.Run(instance);
  ASSERT_TRUE(assignment.Validate(instance).ok());
  EXPECT_TRUE(gt.stats().converged);
  EXPECT_TRUE(IsNashEquilibrium(instance, assignment, 1e-9));
}

TEST_P(GtSeedTest, NeverScoresBelowItsTpgInitialization) {
  const Instance instance = RandomInstance(90, 30, GetParam() ^ 0xBEEF);
  GtAssigner gt;
  const Assignment assignment = gt.Run(instance);
  EXPECT_GE(TotalScore(instance, assignment) + 1e-9, gt.stats().init_score);
}

TEST_P(GtSeedTest, ExactPotentialProperty) {
  // Theorem V.1: for any unilateral deviation, the change in the deviating
  // worker's utility equals the change in the global objective Q(T).
  const Instance instance = RandomInstance(40, 15, GetParam() ^ 0xCAFE);
  TpgAssigner tpg;
  Assignment assignment = tpg.Run(instance);

  Rng rng(GetParam());
  int checked = 0;
  for (int trial = 0; trial < 200 && checked < 50; ++trial) {
    const WorkerIndex w = static_cast<WorkerIndex>(
        rng.UniformInt(static_cast<uint64_t>(instance.num_workers())));
    const auto& valid = instance.ValidTasks(w);
    if (valid.empty()) continue;
    const TaskIndex target =
        valid[rng.UniformInt(static_cast<uint64_t>(valid.size()))];
    const TaskIndex current = assignment.TaskOf(w);
    if (target == current) continue;
    // Skip crowding deviations: they also change the evicted worker's
    // strategy, so they are not unilateral in the potential-game sense.
    if (assignment.GroupSize(target) >=
        instance.tasks()[static_cast<size_t>(target)].capacity) {
      continue;
    }

    const double utility_before =
        StrategyUtility(instance, assignment, w, current, nullptr);
    const double utility_after =
        StrategyUtility(instance, assignment, w, target, nullptr);
    const double potential_before = TotalScore(instance, assignment);
    ApplyMove(instance, &assignment, w, target);
    const double potential_after = TotalScore(instance, assignment);

    EXPECT_NEAR(utility_after - utility_before,
                potential_after - potential_before, 1e-9)
        << "worker " << w << " -> task " << target;
    ++checked;
  }
  EXPECT_GT(checked, 10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GtSeedTest,
                         ::testing::Values(11u, 12u, 13u, 14u, 15u, 16u));

TEST(GtTest, SolvesPaperExampleOne) {
  CooperationMatrix coop(4);
  coop.SetSymmetric(0, 3, 0.9);
  coop.SetSymmetric(1, 2, 0.9);
  coop.SetSymmetric(0, 1, 0.1);
  coop.SetSymmetric(2, 3, 0.1);
  const Instance instance = AllValidInstance(4, 2, 2, 2, std::move(coop));
  GtAssigner gt;
  const Assignment assignment = gt.Run(instance);
  EXPECT_NEAR(TotalScore(instance, assignment), 3.6, 1e-9);
  EXPECT_TRUE(IsNashEquilibrium(instance, assignment, 1e-9));
}

TEST(GtTest, EscapesGreedyLocalOptimum) {
  // TPG grabs the globally best pair for one task, stranding value; GT's
  // best-response dynamic must not end below TPG (and reaches Nash).
  const Instance instance = RandomInstance(60, 20, 777);
  TpgAssigner tpg;
  GtAssigner gt;
  const double tpg_score = TotalScore(instance, tpg.Run(instance));
  const double gt_score = TotalScore(instance, gt.Run(instance));
  EXPECT_GE(gt_score + 1e-9, tpg_score);
}

TEST(GtTest, EmptyInstance) {
  const Instance instance =
      AllValidInstance(0, 0, 3, 3, CooperationMatrix(0));
  GtAssigner gt;
  EXPECT_EQ(gt.Run(instance).NumAssigned(), 0);
  EXPECT_TRUE(gt.stats().converged);
}

TEST(GtTest, RoundScoreTrajectoryIsMonotoneNonDecreasing) {
  const Instance instance = RandomInstance(100, 35, 888);
  GtAssigner gt;
  gt.Run(instance);
  const auto& trace = gt.stats().round_scores;
  ASSERT_GE(trace.size(), 1u);
  double previous = gt.stats().init_score;
  for (const double score : trace) {
    EXPECT_GE(score + 1e-9, previous);
    previous = score;
  }
  EXPECT_NEAR(trace.back(), gt.stats().final_score, 1e-9);
}

TEST(GtTest, NameReflectsOptions) {
  EXPECT_EQ(GtAssigner(GtOptions{}).Name(), "GT");
  GtOptions tsi;
  tsi.use_tsi = true;
  EXPECT_EQ(GtAssigner(tsi).Name(), "GT+TSI");
  GtOptions lub;
  lub.use_lub = true;
  EXPECT_EQ(GtAssigner(lub).Name(), "GT+LUB");
  GtOptions all;
  all.use_tsi = all.use_lub = true;
  EXPECT_EQ(GtAssigner(all).Name(), "GT+ALL");
}

// ---------------------------------------------------------------------------
// LUB: lazy best-response updates (Theorems V.3/V.4)
// ---------------------------------------------------------------------------

class LubSeedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LubSeedTest, LubReachesNashToo) {
  const Instance instance = RandomInstance(90, 30, GetParam());
  GtOptions options;
  options.use_lub = true;
  GtAssigner gt(options);
  const Assignment assignment = gt.Run(instance);
  EXPECT_TRUE(gt.stats().converged);
  EXPECT_TRUE(IsNashEquilibrium(instance, assignment, 1e-9));
  EXPECT_TRUE(assignment.Validate(instance).ok());
}

TEST_P(LubSeedTest, LubSkipsWorkButNotQuality) {
  const Instance instance = RandomInstance(150, 50, GetParam() ^ 0x50B);
  GtAssigner plain;
  GtOptions options;
  options.use_lub = true;
  GtAssigner lazy(options);
  const double plain_score = TotalScore(instance, plain.Run(instance));
  const double lazy_score = TotalScore(instance, lazy.Run(instance));
  // Both are Nash equilibria of the same game seeded identically; the
  // trajectories may differ, so scores can differ slightly — but LUB must
  // stay within a whisker of plain GT.
  EXPECT_NEAR(lazy_score, plain_score, 0.05 * plain_score + 1e-9);
  EXPECT_GT(lazy.stats().best_response_skips, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LubSeedTest,
                         ::testing::Values(21u, 22u, 23u, 24u));

// ---------------------------------------------------------------------------
// TSI: threshold stop (Section V-D)
// ---------------------------------------------------------------------------

TEST(TsiTest, ZeroEpsilonMatchesPlainGt) {
  const Instance instance = RandomInstance(80, 25, 5150);
  GtAssigner plain;
  GtOptions options;
  options.use_tsi = true;
  options.epsilon = 0.0;
  GtAssigner tsi(options);
  const double plain_score = TotalScore(instance, plain.Run(instance));
  const double tsi_score = TotalScore(instance, tsi.Run(instance));
  EXPECT_NEAR(tsi_score, plain_score, 1e-9);
  EXPECT_TRUE(tsi.stats().converged);
}

TEST(TsiTest, LargeEpsilonStopsAfterFirstRound) {
  const Instance instance = RandomInstance(120, 40, 5151);
  GtOptions options;
  options.use_tsi = true;
  options.epsilon = 0.9;  // any round below 90% improvement stops
  GtAssigner tsi(options);
  tsi.Run(instance);
  EXPECT_EQ(tsi.stats().rounds, 1);
}

TEST(TsiTest, NeverBelowInitialization) {
  const Instance instance = RandomInstance(100, 30, 5152);
  for (const double epsilon : {0.0, 0.01, 0.03, 0.05, 0.08, 0.5}) {
    GtOptions options;
    options.use_tsi = true;
    options.epsilon = epsilon;
    GtAssigner tsi(options);
    const Assignment assignment = tsi.Run(instance);
    EXPECT_GE(TotalScore(instance, assignment) + 1e-9,
              tsi.stats().init_score)
        << "epsilon " << epsilon;
  }
}

TEST(TsiTest, EpsilonMonotonicallyCheapens) {
  const Instance instance = RandomInstance(100, 30, 5153);
  int previous_rounds = 1 << 30;
  for (const double epsilon : {0.0, 0.05, 0.9}) {
    GtOptions options;
    options.use_tsi = true;
    options.epsilon = epsilon;
    GtAssigner tsi(options);
    tsi.Run(instance);
    EXPECT_LE(tsi.stats().rounds, previous_rounds) << "eps " << epsilon;
    previous_rounds = tsi.stats().rounds;
  }
}

// ---------------------------------------------------------------------------
// Initialization ablation
// ---------------------------------------------------------------------------

TEST(GtInitTest, EmptyAssignmentIsATrivialNashEquilibriumForBAtLeastTwo) {
  // A structural fact the paper's Algorithm 3 design depends on: with
  // B >= 2, no single worker can cross the B-threshold alone, so every
  // unilateral deviation from the empty assignment has utility 0 — the
  // empty assignment is already a (worthless) pure Nash equilibrium.
  // This is exactly why GT must be seeded with TPG (line 1).
  const Instance instance = RandomInstance(70, 25, 31337);
  const Assignment empty(instance);
  EXPECT_TRUE(IsNashEquilibrium(instance, empty, 1e-9));

  GtOptions options;
  options.init = GtInit::kEmpty;
  GtAssigner gt(options);
  const Assignment assignment = gt.Run(instance);
  EXPECT_TRUE(gt.stats().converged);
  EXPECT_EQ(gt.stats().moves, 0);
  EXPECT_DOUBLE_EQ(TotalScore(instance, assignment), 0.0);
}

TEST(GtInitTest, RandomInitializationReachesNash) {
  const Instance instance = RandomInstance(70, 25, 609);
  GtOptions options;
  options.init = GtInit::kRandom;
  options.init_seed = 5;
  GtAssigner gt(options);
  const Assignment assignment = gt.Run(instance);
  EXPECT_TRUE(gt.stats().converged);
  EXPECT_TRUE(IsNashEquilibrium(instance, assignment, 1e-9));
  EXPECT_GT(TotalScore(instance, assignment), 0.0);
  EXPECT_TRUE(assignment.Validate(instance).ok());
}

TEST(GtInitTest, RandomInitializationIsSeedDeterministic) {
  const Instance instance = RandomInstance(50, 18, 610);
  GtOptions options;
  options.init = GtInit::kRandom;
  options.init_seed = 77;
  GtAssigner a(options), b(options);
  EXPECT_EQ(a.Run(instance).Pairs(), b.Run(instance).Pairs());
}

TEST(GtInitTest, TpgInitializationEscapesTheTrivialEquilibrium) {
  const Instance instance = RandomInstance(150, 50, 31338);
  GtAssigner with_init;
  GtOptions options;
  options.init = GtInit::kEmpty;
  GtAssigner without_init(options);
  const double with_score = TotalScore(instance, with_init.Run(instance));
  const double without_score =
      TotalScore(instance, without_init.Run(instance));
  EXPECT_GT(with_score, 0.0);
  EXPECT_DOUBLE_EQ(without_score, 0.0);
}

}  // namespace
}  // namespace casc
