#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "algo/best_response.h"
#include "algo/exact_assigner.h"
#include "algo/gt_assigner.h"
#include "algo/local_search.h"
#include "algo/maxflow_assigner.h"
#include "algo/online_assigner.h"
#include "algo/random_assigner.h"
#include "algo/tpg_assigner.h"
#include "common/rng.h"
#include "gen/synthetic.h"
#include "model/instance.h"
#include "model/objective.h"
#include "model/objective_model.h"
#include "service/dispatch_service.h"

namespace casc {
namespace {

/// All-valid instance with an explicit cooperation matrix.
Instance MakeInstance(int num_workers, int num_tasks, int capacity,
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

CooperationMatrix UniformRandomMatrix(int m, uint64_t seed) {
  Rng rng(seed);
  CooperationMatrix coop(m);
  for (int i = 0; i < m; ++i) {
    for (int k = i + 1; k < m; ++k) {
      coop.SetSymmetric(i, k, rng.Uniform());
    }
  }
  return coop;
}

/// Like MakeInstance, but with explicit per-worker skill masks and
/// per-task requirement masks (for the multi-skill semantics tests).
Instance MakeSkilledInstance(const std::vector<SkillMask>& worker_skills,
                             const std::vector<SkillMask>& task_skills,
                             int capacity, int min_group,
                             CooperationMatrix coop) {
  std::vector<Worker> workers;
  for (int i = 0; i < static_cast<int>(worker_skills.size()); ++i) {
    Worker worker{i, {0.5, 0.5}, 1.0, 1.0, 0.0};
    worker.skills = worker_skills[static_cast<size_t>(i)];
    workers.push_back(worker);
  }
  std::vector<Task> tasks;
  for (int j = 0; j < static_cast<int>(task_skills.size()); ++j) {
    Task task{j, {0.5, 0.5}, 0.0, 10.0, capacity};
    task.required_skills = task_skills[static_cast<size_t>(j)];
    tasks.push_back(task);
  }
  Instance instance(std::move(workers), std::move(tasks), std::move(coop),
                    0.0, min_group);
  instance.ComputeValidPairs();
  return instance;
}

/// Brace-friendly wrappers over the span-taking ObjectiveModel hooks.
bool JoinOk(const Instance& instance, TaskIndex t,
            std::initializer_list<WorkerIndex> members, WorkerIndex w) {
  const std::vector<WorkerIndex> group(members);
  return GetMultiSkillObjective().JoinFeasible(instance, t, group, w);
}

bool GroupOk(const Instance& instance, TaskIndex t,
             std::initializer_list<WorkerIndex> members, WorkerIndex extra,
             WorkerIndex without) {
  const std::vector<WorkerIndex> group(members);
  return GetMultiSkillObjective().GroupFeasible(instance, t, group, extra,
                                                without);
}

SkillMask Covered(const Instance& instance,
                  std::initializer_list<WorkerIndex> members,
                  WorkerIndex extra, WorkerIndex without) {
  const std::vector<WorkerIndex> group(members);
  return MultiSkillObjective::CoveredSkills(instance, group, extra, without);
}

/// Dense synthetic instance for the assigner-level differential fuzz;
/// `num_skills` > 0 stamps random skills/requirements on top.
Instance FuzzInstance(int workers, int tasks, uint64_t seed,
                      int num_skills = 0) {
  Rng rng(seed);
  SyntheticInstanceConfig config;
  config.num_workers = workers;
  config.num_tasks = tasks;
  config.worker.radius_min = 0.25;
  config.worker.radius_max = 0.50;
  config.worker.speed_min = 0.05;
  config.worker.speed_max = 0.15;
  config.worker.num_skills = num_skills;
  config.task.num_skills = num_skills;
  config.task.skills_per_task = 2;
  return GenerateSyntheticInstance(config, 0.0, &rng);
}

// ---------------------------------------------------------------------------
// GroupScore: Equation 2
// ---------------------------------------------------------------------------

TEST(GroupScoreTest, BelowMinimumIsZero) {
  const Instance instance =
      MakeInstance(5, 1, 4, 3, CooperationMatrix(5, 0.5));
  EXPECT_DOUBLE_EQ(GroupScore(instance, 0, {}), 0.0);
  EXPECT_DOUBLE_EQ(GroupScore(instance, 0, {0}), 0.0);
  EXPECT_DOUBLE_EQ(GroupScore(instance, 0, {0, 1}), 0.0);
}

TEST(GroupScoreTest, ExactFormulaAtMinimum) {
  CooperationMatrix coop(3);
  coop.SetSymmetric(0, 1, 0.2);
  coop.SetSymmetric(0, 2, 0.4);
  coop.SetSymmetric(1, 2, 0.6);
  const Instance instance = MakeInstance(3, 1, 3, 3, std::move(coop));
  // PairSum = 2*(0.2+0.4+0.6) = 2.4; divided by (3-1) = 1.2.
  EXPECT_NEAR(GroupScore(instance, 0, {0, 1, 2}), 1.2, 1e-12);
}

TEST(GroupScoreTest, PaperExample1Assignments) {
  // Example 1 of the paper: the good assignment scores 1.8, the bad 0.2.
  // Figure 1(b) qualities (w1..w4 -> indices 0..3): q(w1,w4)=0.9,
  // q(w2,w3)=0.9, q(w1,w2)=0.1, q(w3,w4)=0.1.
  CooperationMatrix coop(4);
  coop.SetSymmetric(0, 3, 0.9);
  coop.SetSymmetric(1, 2, 0.9);
  coop.SetSymmetric(0, 1, 0.1);
  coop.SetSymmetric(2, 3, 0.1);
  const Instance instance = MakeInstance(4, 2, 2, 2, std::move(coop));
  // Bad: {w1,w2} on t1 and {w3,w4} on t2 -> 0.2 + 0.2... each pair scores
  // 2*q/(2-1) = 2q, so 0.2 and 0.2 -> hold on: the paper reports a TOTAL
  // of 0.2 for the bad assignment and 1.8 for the good one, counting each
  // unordered pair once (the factor-2 of ordered pairs divided by B = 2).
  const double bad =
      GroupScore(instance, 0, {0, 1}) + GroupScore(instance, 1, {2, 3});
  const double good =
      GroupScore(instance, 0, {0, 3}) + GroupScore(instance, 1, {1, 2});
  EXPECT_NEAR(bad, 0.4, 1e-12);
  EXPECT_NEAR(good, 3.6, 1e-12);
  // Our ordered-pair reading doubles the paper's numbers uniformly; the
  // ratio — what the example demonstrates — is identical.
  EXPECT_NEAR(good / bad, 1.8 / 0.2, 1e-9);
}

TEST(GroupScoreTest, DenominatorUsesGroupSize) {
  const Instance instance =
      MakeInstance(6, 1, 6, 2, CooperationMatrix(6, 0.5));
  // Constant q = 0.5: PairSum(s) = s*(s-1)*0.5; score = 0.5*s.
  for (int s = 2; s <= 6; ++s) {
    std::vector<WorkerIndex> group;
    for (int i = 0; i < s; ++i) group.push_back(i);
    EXPECT_NEAR(GroupScore(instance, 0, group), 0.5 * s, 1e-12)
        << "group size " << s;
  }
}

TEST(GroupScoreTest, OverCapacityPaysBestSubsetOnly) {
  CooperationMatrix coop(4);
  // Workers 0,1,2 love each other; worker 3 is a dud.
  coop.SetSymmetric(0, 1, 1.0);
  coop.SetSymmetric(0, 2, 1.0);
  coop.SetSymmetric(1, 2, 1.0);
  const Instance instance = MakeInstance(4, 1, 3, 2, std::move(coop));
  const double full = GroupScore(instance, 0, {0, 1, 2});
  const double over = GroupScore(instance, 0, {0, 1, 2, 3});
  EXPECT_NEAR(over, full, 1e-12);  // the dud is excluded
}

// ---------------------------------------------------------------------------
// BestSubset
// ---------------------------------------------------------------------------

TEST(BestSubsetTest, TrivialCases) {
  const CooperationMatrix coop(5, 0.5);
  const std::vector<WorkerIndex> group = {0, 1, 2};
  EXPECT_EQ(BestSubset(coop, group, 3), group);
  EXPECT_TRUE(BestSubset(coop, group, 0).empty());
}

TEST(BestSubsetTest, PicksTightTriangle) {
  CooperationMatrix coop(5);
  coop.SetSymmetric(0, 1, 0.9);
  coop.SetSymmetric(0, 2, 0.9);
  coop.SetSymmetric(1, 2, 0.9);
  coop.SetSymmetric(3, 4, 1.0);  // a great pair, but only a pair
  const std::vector<WorkerIndex> best =
      BestSubset(coop, {0, 1, 2, 3, 4}, 3);
  std::vector<WorkerIndex> sorted = best;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<WorkerIndex>{0, 1, 2}));
}

TEST(BestSubsetTest, ExactMatchesBruteForceOnRandomMatrices) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const CooperationMatrix coop = UniformRandomMatrix(8, seed);
    std::vector<WorkerIndex> group = {0, 1, 2, 3, 4, 5, 6, 7};
    for (int k = 2; k <= 6; ++k) {
      const auto best = BestSubset(coop, group, k);
      ASSERT_EQ(static_cast<int>(best.size()), k);
      // Brute force over all k-subsets via bitmask.
      double brute = -1.0;
      for (int mask = 0; mask < (1 << 8); ++mask) {
        if (__builtin_popcount(static_cast<unsigned>(mask)) != k) continue;
        std::vector<WorkerIndex> subset;
        for (int i = 0; i < 8; ++i) {
          if (mask & (1 << i)) subset.push_back(i);
        }
        brute = std::max(brute, coop.PairSum(subset));
      }
      EXPECT_NEAR(coop.PairSum(best), brute, 1e-9)
          << "seed " << seed << " k " << k;
    }
  }
}

TEST(BestSubsetTest, GreedyPathReturnsRequestedSize) {
  // Force the greedy path with a large group and small k relative to the
  // enumeration cap: C(40, 20) is astronomically over the limit.
  const CooperationMatrix coop = UniformRandomMatrix(40, 77);
  std::vector<WorkerIndex> group(40);
  for (int i = 0; i < 40; ++i) group[static_cast<size_t>(i)] = i;
  const auto best = BestSubset(coop, group, 20);
  EXPECT_EQ(best.size(), 20u);
  // All members are from the group, unique.
  std::vector<WorkerIndex> sorted = best;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
              sorted.end());
}

TEST(BestSubsetTest, KEqualsGroupSizeReturnsWholeGroupVerbatim) {
  // The k == |group| fast path: no enumeration, no reordering — the
  // caller's group comes back element-for-element, for any matrix.
  const CooperationMatrix coop = UniformRandomMatrix(10, 31);
  const std::vector<WorkerIndex> group = {7, 2, 9, 0, 4, 5};
  EXPECT_EQ(BestSubset(coop, group, static_cast<int>(group.size())), group);
  EXPECT_EQ(BestSubset(coop, std::vector<WorkerIndex>{3}, 1),
            std::vector<WorkerIndex>{3});
  EXPECT_TRUE(BestSubset(coop, std::vector<WorkerIndex>{}, 0).empty());
}

TEST(BestSubsetTest, KZeroReturnsEmptyForAnyGroup) {
  const CooperationMatrix coop = UniformRandomMatrix(10, 32);
  EXPECT_TRUE(BestSubset(coop, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 0).empty());
  EXPECT_TRUE(BestSubset(coop, {5}, 0).empty());
}

TEST(BestSubsetDeathTest, NegativeKIsACallerBug) {
  const CooperationMatrix coop(3, 0.5);
  EXPECT_DEATH(BestSubset(coop, {0, 1, 2}, -1), "");
}

TEST(BestSubsetDeathTest, KAboveGroupSizeIsACallerBug) {
  const CooperationMatrix coop(3, 0.5);
  EXPECT_DEATH(BestSubset(coop, {0, 1}, 3), "");
}

// ---------------------------------------------------------------------------
// Marginal gains: Equation 4
// ---------------------------------------------------------------------------

TEST(MarginalTest, MemberMarginalIsScoreDifference) {
  const CooperationMatrix coop = UniformRandomMatrix(6, 5);
  const Instance instance = MakeInstance(6, 1, 6, 2, std::move(coop));
  const std::vector<WorkerIndex> group = {0, 2, 4, 5};
  for (const WorkerIndex w : group) {
    std::vector<WorkerIndex> without;
    for (const WorkerIndex member : group) {
      if (member != w) without.push_back(member);
    }
    EXPECT_NEAR(MarginalOfMember(instance, 0, group, w),
                GroupScore(instance, 0, group) -
                    GroupScore(instance, 0, without),
                1e-12);
  }
}

TEST(MarginalTest, GainOfJoiningConsistentWithMember) {
  const CooperationMatrix coop = UniformRandomMatrix(6, 6);
  const Instance instance = MakeInstance(6, 1, 6, 2, std::move(coop));
  const std::vector<WorkerIndex> group = {1, 3};
  const double gain = GainOfJoining(instance, 0, group, 5);
  const double marginal = MarginalOfMember(instance, 0, {1, 3, 5}, 5);
  EXPECT_NEAR(gain, marginal, 1e-12);
}

TEST(MarginalTest, JoiningBelowThresholdGainsNothing) {
  const Instance instance =
      MakeInstance(5, 1, 5, 3, CooperationMatrix(5, 0.5));
  // 0 -> 1 worker: still below B = 3, score stays 0.
  EXPECT_DOUBLE_EQ(GainOfJoining(instance, 0, {}, 0), 0.0);
  EXPECT_DOUBLE_EQ(GainOfJoining(instance, 0, {0}, 1), 0.0);
  // 2 -> 3 crosses the threshold: the whole group score appears at once.
  EXPECT_NEAR(GainOfJoining(instance, 0, {0, 1}, 2), 1.5, 1e-12);
}

TEST(MarginalTest, NegativeGainForPoorFit) {
  CooperationMatrix coop(3);
  coop.SetSymmetric(0, 1, 1.0);
  // Worker 2 cooperates with nobody.
  const Instance instance = MakeInstance(3, 1, 3, 2, std::move(coop));
  EXPECT_LT(GainOfJoining(instance, 0, {0, 1}, 2), 0.0);
}

// ---------------------------------------------------------------------------
// TotalScore: Equation 3
// ---------------------------------------------------------------------------

TEST(TotalScoreTest, SumsPerTaskScores) {
  const CooperationMatrix coop = UniformRandomMatrix(6, 9);
  const Instance instance = MakeInstance(6, 2, 3, 2, std::move(coop));
  Assignment assignment(instance);
  assignment.Assign(0, 0);
  assignment.Assign(1, 0);
  assignment.Assign(2, 1);
  assignment.Assign(3, 1);
  assignment.Assign(4, 1);
  EXPECT_NEAR(TotalScore(instance, assignment),
              GroupScore(instance, 0, {0, 1}) +
                  GroupScore(instance, 1, {2, 3, 4}),
              1e-12);
}

TEST(TotalScoreTest, EmptyAssignmentScoresZero) {
  const Instance instance =
      MakeInstance(4, 2, 3, 2, CooperationMatrix(4, 0.9));
  const Assignment assignment(instance);
  EXPECT_DOUBLE_EQ(TotalScore(instance, assignment), 0.0);
}

TEST(TotalScoreTest, SubThresholdGroupsContributeNothing) {
  const Instance instance =
      MakeInstance(4, 2, 3, 3, CooperationMatrix(4, 0.9));
  Assignment assignment(instance);
  assignment.Assign(0, 0);
  assignment.Assign(1, 0);  // only 2 < B = 3
  EXPECT_DOUBLE_EQ(TotalScore(instance, assignment), 0.0);
}

// ---------------------------------------------------------------------------
// ObjectiveModel registry & defaults
// ---------------------------------------------------------------------------

TEST(ObjectiveRegistryTest, LookupByIdReturnsTheSharedSingletons) {
  EXPECT_EQ(ObjectiveByName("casc"), &GetCascObjective());
  EXPECT_EQ(ObjectiveByName("multiskill"), &GetMultiSkillObjective());
  EXPECT_EQ(ObjectiveByName("no-such-objective"), nullptr);
  EXPECT_EQ(ObjectiveByName(""), nullptr);
  EXPECT_EQ(GetCascObjective().Id(), "casc");
  EXPECT_EQ(GetMultiSkillObjective().Id(), "multiskill");
}

TEST(ObjectiveRegistryTest, HotPathPredicateIsHoistable) {
  // AlwaysJoinFeasible is the contract that lets scan loops skip the
  // virtual JoinFeasible call entirely for the default objective.
  EXPECT_TRUE(GetCascObjective().AlwaysJoinFeasible());
  EXPECT_FALSE(GetMultiSkillObjective().AlwaysJoinFeasible());
}

TEST(ObjectiveRegistryTest, FreshInstancesStartOnTheProcessDefault) {
  const Instance instance =
      MakeInstance(3, 1, 3, 2, CooperationMatrix(3, 0.5));
  EXPECT_EQ(&instance.objective(), &ProcessDefaultObjective());
}

// ---------------------------------------------------------------------------
// MultiSkillObjective semantics
// ---------------------------------------------------------------------------

TEST(MultiSkillTest, UncoveredGroupScoresZeroCoveredMatchesCasc) {
  // Workers 0..2 hold skills {A}, {B}, {} (bits 0, 1); the task needs
  // A and B.
  const CooperationMatrix coop = UniformRandomMatrix(3, 41);
  Instance instance = MakeSkilledInstance({0b01, 0b10, 0}, {0b11},
                                          /*capacity=*/3, /*min_group=*/2,
                                          CooperationMatrix(coop));
  instance.set_objective(&GetMultiSkillObjective());
  // {0, 2} covers only A -> gated to zero despite a positive pair sum.
  EXPECT_DOUBLE_EQ(GroupScore(instance, 0, {0, 2}), 0.0);
  // {0, 1} covers A|B -> exactly the casc cooperation term.
  Instance plain = MakeSkilledInstance({0b01, 0b10, 0}, {0b11}, 3, 2,
                                       CooperationMatrix(coop));
  plain.set_objective(&GetCascObjective());
  EXPECT_EQ(GroupScore(instance, 0, {0, 1}), GroupScore(plain, 0, {0, 1}));
  EXPECT_GT(GroupScore(instance, 0, {0, 1}), 0.0);
}

TEST(MultiSkillTest, EmptyRequirementNeverGates) {
  const CooperationMatrix coop = UniformRandomMatrix(4, 42);
  Instance instance = MakeSkilledInstance({0, 0, 0, 0}, {0}, 4, 2,
                                          CooperationMatrix(coop));
  instance.set_objective(&GetMultiSkillObjective());
  Instance plain = MakeSkilledInstance({0, 0, 0, 0}, {0}, 4, 2,
                                       CooperationMatrix(coop));
  plain.set_objective(&GetCascObjective());
  for (int s = 2; s <= 4; ++s) {
    std::vector<WorkerIndex> group;
    for (int i = 0; i < s; ++i) group.push_back(i);
    EXPECT_EQ(GroupScore(instance, 0, group), GroupScore(plain, 0, group))
        << "size " << s;
  }
}

TEST(MultiSkillTest, JoinFeasibleTruthTable) {
  // Skills: w0={A}, w1={B}, w2={}, w3={A,B}. Task 0 needs {A,B}; task 1
  // needs nothing.
  const Instance instance = MakeSkilledInstance(
      {0b01, 0b10, 0, 0b11}, {0b11, 0}, 4, 2, CooperationMatrix(4, 0.5));
  // No requirement: anyone may join.
  EXPECT_TRUE(JoinOk(instance, 1, {}, 2));
  // Empty group, task needs A|B: only skill holders may seed it.
  EXPECT_TRUE(JoinOk(instance, 0, {}, 0));
  EXPECT_FALSE(JoinOk(instance, 0, {}, 2));
  // {w0} covers A; B is missing: w1 and w3 contribute, w2 does not.
  EXPECT_TRUE(JoinOk(instance, 0, {0}, 1));
  EXPECT_TRUE(JoinOk(instance, 0, {0}, 3));
  EXPECT_FALSE(JoinOk(instance, 0, {0}, 2));
  // {w3} already covers everything: even the unskilled join freely.
  EXPECT_TRUE(JoinOk(instance, 0, {3}, 2));
}

TEST(MultiSkillTest, CoveredSkillsAppliesIdempotentCorrections) {
  const Instance instance = MakeSkilledInstance(
      {0b001, 0b010, 0b100}, {0b111}, 4, 2, CooperationMatrix(3, 0.5));
  // Plain union.
  EXPECT_EQ(Covered(instance, {0, 1}, kNoWorker, kNoWorker),
            SkillMask{0b011});
  // `extra` joins: counted exactly once whether or not already present.
  EXPECT_EQ(Covered(instance, {0, 1}, 2, kNoWorker), SkillMask{0b111});
  EXPECT_EQ(Covered(instance, {0, 1}, 1, kNoWorker), SkillMask{0b011});
  // `without` leaves: its skills drop out even though it is in `members`.
  EXPECT_EQ(Covered(instance, {0, 1}, kNoWorker, 1), SkillMask{0b001});
  // Both corrections at once: 1 out, 2 in.
  EXPECT_EQ(Covered(instance, {0, 1}, 2, 1), SkillMask{0b101});
}

TEST(MultiSkillTest, GroupFeasibleGatesOnCoverage) {
  const Instance instance = MakeSkilledInstance(
      {0b01, 0b10, 0}, {0b11, 0}, 4, 2, CooperationMatrix(3, 0.5));
  EXPECT_FALSE(GroupOk(instance, 0, {0, 2}, kNoWorker, kNoWorker));
  EXPECT_TRUE(GroupOk(instance, 0, {0, 1}, kNoWorker, kNoWorker));
  // Losing the B-holder breaks coverage; gaining it restores it.
  EXPECT_FALSE(GroupOk(instance, 0, {0, 1}, kNoWorker, 1));
  EXPECT_TRUE(GroupOk(instance, 0, {0, 2}, 1, kNoWorker));
  // No requirement: always feasible.
  EXPECT_TRUE(GroupOk(instance, 1, {2}, kNoWorker, kNoWorker));
}

TEST(MultiSkillTest, GtEndToEndFiltersJoinsAndReachesFilteredNash) {
  int64_t rejects = 0;
  for (const uint64_t seed : {11u, 23u, 37u}) {
    Instance instance = FuzzInstance(60, 20, seed, /*num_skills=*/8);
    instance.set_objective(&GetMultiSkillObjective());
    GtAssigner gt;
    const Assignment assignment = gt.Run(instance);
    rejects += gt.stats().feasibility_rejects;
    // The GT loop's termination proof quantifies over the same filtered
    // strategy space as IsNashEquilibrium.
    EXPECT_TRUE(IsNashEquilibrium(instance, assignment, 1e-9))
        << "seed " << seed;
    // The reported score is the objective's own total.
    EXPECT_DOUBLE_EQ(gt.stats().final_score,
                     TotalScore(instance, assignment))
        << "seed " << seed;
  }
  // Skill gates must actually fire across the sweep, or this test is
  // vacuous.
  EXPECT_GT(rejects, 0);
}

TEST(MultiSkillTest, ShardedMetricsCarryObjectiveAndRejects) {
  Instance instance = FuzzInstance(80, 24, 5, /*num_skills=*/8);
  instance.set_objective(&GetMultiSkillObjective());
  ShardedOptions options;
  options.shards_per_side = 2;
  ShardedAssigner sharded(options,
                          [] { return std::make_unique<GtAssigner>(); });
  (void)sharded.Run(instance);
  EXPECT_EQ(sharded.metrics().objective, "multiskill");
  const std::string json = sharded.metrics().ToJson();
  EXPECT_NE(json.find("\"objective\":\"multiskill\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"feasibility_rejects\":"), std::string::npos)
      << json;
}

// ---------------------------------------------------------------------------
// Differential fuzz: the default objective through the ObjectiveModel
// seam must be indistinguishable from a skill-free multiskill run for
// every assigner — same assignment, same score, bit for bit. (The
// pre-refactor byte-identity itself is pinned by the example baselines;
// this guards the seam staying closed as variants evolve.)
// ---------------------------------------------------------------------------

struct AssignerCase {
  std::string name;
  std::function<std::unique_ptr<Assigner>()> make;
};

std::vector<AssignerCase> AllAssigners() {
  std::vector<AssignerCase> cases;
  cases.push_back({"gt", [] { return std::make_unique<GtAssigner>(); }});
  cases.push_back({"gt-tsi-lub", [] {
                     GtOptions options;
                     options.use_tsi = true;
                     options.use_lub = true;
                     return std::make_unique<GtAssigner>(options);
                   }});
  cases.push_back({"tpg", [] { return std::make_unique<TpgAssigner>(); }});
  cases.push_back({"gt+swap", [] {
                     return std::make_unique<LocalSearchAssigner>(
                         std::make_unique<GtAssigner>());
                   }});
  cases.push_back(
      {"online", [] { return std::make_unique<OnlineAssigner>(); }});
  cases.push_back(
      {"mflow", [] { return std::make_unique<MaxFlowAssigner>(); }});
  cases.push_back(
      {"rand", [] { return std::make_unique<RandomAssigner>(7); }});
  for (const int s_per_side : {1, 8}) {
    cases.push_back({"sharded-s" + std::to_string(s_per_side), [s_per_side] {
                       ShardedOptions options;
                       options.shards_per_side = s_per_side;
                       return std::make_unique<ShardedAssigner>(
                           options,
                           [] { return std::make_unique<GtAssigner>(); });
                     }});
  }
  return cases;
}

/// Runs a freshly-built assigner on `instance` under `objective` and
/// returns (assignment vector, reported score).
std::pair<std::vector<TaskIndex>, double> RunUnder(
    Instance* instance, const ObjectiveModel& objective,
    const AssignerCase& the_case) {
  instance->set_objective(&objective);
  const std::unique_ptr<Assigner> assigner = the_case.make();
  const Assignment assignment = assigner->Run(*instance);
  std::vector<TaskIndex> tasks(
      static_cast<size_t>(instance->num_workers()));
  for (WorkerIndex w = 0; w < instance->num_workers(); ++w) {
    tasks[static_cast<size_t>(w)] = assignment.TaskOf(w);
  }
  return {std::move(tasks), assigner->stats().final_score};
}

TEST(ObjectiveDifferentialTest, SkillFreeMultiskillMatchesCascEverywhere) {
  const std::vector<AssignerCase> cases = AllAssigners();
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const int workers = 40 + static_cast<int>(seed % 3) * 15;
    const int tasks = 14 + static_cast<int>(seed % 4) * 4;
    Instance instance = FuzzInstance(workers, tasks, seed);
    for (const AssignerCase& the_case : cases) {
      const auto casc = RunUnder(&instance, GetCascObjective(), the_case);
      const auto multi =
          RunUnder(&instance, GetMultiSkillObjective(), the_case);
      ASSERT_EQ(casc.first, multi.first)
          << the_case.name << " seed=" << seed << ": assignments diverged";
      // Exact equality, not near: the two runs must execute the same FP
      // operations in the same order.
      ASSERT_EQ(casc.second, multi.second)
          << the_case.name << " seed=" << seed << ": scores diverged";
    }
  }
}

TEST(ObjectiveDifferentialTest, ExactSolverMatchesOnSmallInstances) {
  const AssignerCase exact = {
      "exact", [] { return std::make_unique<ExactAssigner>(); }};
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Instance instance = FuzzInstance(12, 4, seed * 13);
    const auto casc = RunUnder(&instance, GetCascObjective(), exact);
    const auto multi =
        RunUnder(&instance, GetMultiSkillObjective(), exact);
    ASSERT_EQ(casc.first, multi.first) << "seed " << seed;
    ASSERT_EQ(casc.second, multi.second) << "seed " << seed;
  }
}

TEST(ObjectiveDifferentialTest, ExactSolverRespectsSkillGatesOptimally) {
  // On skilled instances the B&B's Lemma V.2 ceilings stay admissible
  // (multiskill only discounts); brute-check optimality against GT with
  // swaps, which can never exceed the exact optimum.
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Instance instance = FuzzInstance(10, 3, seed * 29, /*num_skills=*/4);
    instance.set_objective(&GetMultiSkillObjective());
    ExactAssigner exact;
    const Assignment best = exact.Run(instance);
    const double optimum = TotalScore(instance, best);
    LocalSearchAssigner heuristic(std::make_unique<GtAssigner>());
    const Assignment approx = heuristic.Run(instance);
    EXPECT_GE(optimum + 1e-9, TotalScore(instance, approx))
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace casc
