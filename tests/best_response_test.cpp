#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "algo/best_response.h"
#include "algo/gt_assigner.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "gen/synthetic.h"
#include "keeper_scan_oracle.h"
#include "model/objective.h"
#include "model/objective_model.h"
#include "model/score_keeper.h"

namespace casc {
namespace {

Instance RandomInstance(int m, int n, uint64_t seed, int capacity = 4,
                        int min_group = 3) {
  Rng rng(seed);
  SyntheticInstanceConfig config;
  config.num_workers = m;
  config.num_tasks = n;
  config.task.capacity = capacity;
  config.min_group_size = min_group;
  config.worker.radius_min = 0.2;
  config.worker.radius_max = 0.45;
  config.worker.speed_min = 0.05;
  config.worker.speed_max = 0.15;
  return GenerateSyntheticInstance(config, 0.0, &rng);
}

// ---------------------------------------------------------------------------
// Random move sequences preserve every structural invariant
// ---------------------------------------------------------------------------

class MoveSequenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MoveSequenceTest, ArbitraryMovesKeepAssignmentFeasible) {
  const Instance instance = RandomInstance(40, 15, GetParam());
  Assignment assignment(instance);
  Rng rng(GetParam() ^ 0xFEED);
  for (int step = 0; step < 500; ++step) {
    const WorkerIndex w = static_cast<WorkerIndex>(
        rng.UniformInt(static_cast<uint64_t>(instance.num_workers())));
    const auto& valid = instance.ValidTasks(w);
    TaskIndex target = kNoTask;
    if (!valid.empty() && !rng.Bernoulli(0.2)) {
      target = valid[static_cast<size_t>(
          rng.UniformInt(static_cast<uint64_t>(valid.size())))];
    }
    ApplyMove(instance, &assignment, w, target);
    // Capacity is restored by the crowding rule after every move.
    if (target != kNoTask) {
      EXPECT_LE(assignment.GroupSize(target),
                instance.tasks()[static_cast<size_t>(target)].capacity);
    }
  }
  EXPECT_TRUE(assignment.Validate(instance).ok());
}

TEST_P(MoveSequenceTest, BestResponseMovesMonotonicallyRaiseThePotential) {
  const Instance instance = RandomInstance(50, 18, GetParam() ^ 0xAB);
  Assignment assignment(instance);
  Rng rng(GetParam());
  // Seed with random strategies.
  for (WorkerIndex w = 0; w < instance.num_workers(); ++w) {
    const auto& valid = instance.ValidTasks(w);
    if (valid.empty()) continue;
    ApplyMove(instance, &assignment, w,
              valid[static_cast<size_t>(
                  rng.UniformInt(static_cast<uint64_t>(valid.size())))]);
  }
  double potential = TotalScore(instance, assignment);
  for (int step = 0; step < 300; ++step) {
    const WorkerIndex w = static_cast<WorkerIndex>(
        rng.UniformInt(static_cast<uint64_t>(instance.num_workers())));
    const BestResponse best = ComputeBestResponse(instance, assignment, w);
    const double current =
        StrategyUtility(instance, assignment, w, assignment.TaskOf(w),
                        nullptr);
    if (best.task == assignment.TaskOf(w) || best.utility <= current) {
      continue;
    }
    ApplyMove(instance, &assignment, w, best.task);
    const double new_potential = TotalScore(instance, assignment);
    // Theorem V.1 extended to crowding moves: the potential rises by the
    // mover's utility improvement (the evicted worker contributes its
    // own ΔQ = marginal, which is exactly what the mover's over-capacity
    // utility already nets out).
    EXPECT_GT(new_potential, potential - 1e-9);
    potential = new_potential;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MoveSequenceTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// ---------------------------------------------------------------------------
// IsNashEquilibrium is a real detector, not a rubber stamp
// ---------------------------------------------------------------------------

TEST(NashDetectorTest, FlagsAnObviouslyImprovableState) {
  // Two workers with high mutual quality sit on different tasks while
  // both could pair up on one: the lone states are not equilibria.
  std::vector<Worker> workers = {Worker{0, {0.5, 0.5}, 1.0, 1.0, 0.0},
                                 Worker{1, {0.5, 0.5}, 1.0, 1.0, 0.0}};
  std::vector<Task> tasks = {Task{0, {0.5, 0.5}, 0.0, 9.0, 2},
                             Task{1, {0.5, 0.5}, 0.0, 9.0, 2}};
  CooperationMatrix coop(2);
  coop.SetSymmetric(0, 1, 0.9);
  Instance instance(std::move(workers), std::move(tasks), std::move(coop),
                    0.0, 2);
  instance.ComputeValidPairs();

  Assignment split(instance);
  split.Assign(0, 0);
  split.Assign(1, 1);
  EXPECT_FALSE(IsNashEquilibrium(instance, split, 1e-9));

  Assignment together(instance);
  together.Assign(0, 0);
  together.Assign(1, 0);
  EXPECT_TRUE(IsNashEquilibrium(instance, together, 1e-9));
}

TEST(NashDetectorTest, ToleranceScreensTinyImprovements) {
  std::vector<Worker> workers = {Worker{0, {0.5, 0.5}, 1.0, 1.0, 0.0},
                                 Worker{1, {0.5, 0.5}, 1.0, 1.0, 0.0},
                                 Worker{2, {0.5, 0.5}, 1.0, 1.0, 0.0}};
  std::vector<Task> tasks = {Task{0, {0.5, 0.5}, 0.0, 9.0, 2},
                             Task{1, {0.5, 0.5}, 0.0, 9.0, 2}};
  CooperationMatrix coop(3);
  coop.SetSymmetric(0, 1, 0.500);
  coop.SetSymmetric(0, 2, 0.501);  // joining 2 is better by a whisker
  Instance instance(std::move(workers), std::move(tasks), std::move(coop),
                    0.0, 2);
  instance.ComputeValidPairs();
  Assignment assignment(instance);
  assignment.Assign(0, 0);
  assignment.Assign(1, 0);
  assignment.Assign(2, 1);
  // Worker 0 could improve by 2*(0.501-0.500); a coarse tolerance
  // accepts the state, a fine one rejects it.
  EXPECT_TRUE(IsNashEquilibrium(instance, assignment, 0.1));
  EXPECT_FALSE(IsNashEquilibrium(instance, assignment, 1e-6));
}

// ---------------------------------------------------------------------------
// Best-response seeding of ComputeBestResponse
// ---------------------------------------------------------------------------

TEST(BestResponseTest, PrefersStayingOnTies) {
  // Two identical tasks; whichever the worker group sits on, the best
  // response must keep it there (no oscillation on exact ties).
  const int m = 4;
  std::vector<Worker> workers;
  for (int i = 0; i < m; ++i) {
    workers.push_back(Worker{i, {0.5, 0.5}, 1.0, 1.0, 0.0});
  }
  std::vector<Task> tasks = {Task{0, {0.5, 0.5}, 0.0, 9.0, 4},
                             Task{1, {0.5, 0.5}, 0.0, 9.0, 4}};
  Instance instance(std::move(workers), std::move(tasks),
                    CooperationMatrix(m, 0.5), 0.0, 2);
  instance.ComputeValidPairs();
  Assignment assignment(instance);
  for (int i = 0; i < m; ++i) assignment.Assign(i, 1);
  for (int i = 0; i < m; ++i) {
    const BestResponse best = ComputeBestResponse(instance, assignment, i);
    EXPECT_EQ(best.task, 1) << "worker " << i << " oscillated";
  }
}

TEST(BestResponseTest, WorkerWithNoValidTasksIdles) {
  std::vector<Worker> workers = {Worker{0, {0.0, 0.0}, 0.001, 0.01, 0.0}};
  std::vector<Task> tasks = {Task{0, {0.9, 0.9}, 0.0, 1.0, 2}};
  Instance instance(std::move(workers), std::move(tasks),
                    CooperationMatrix(1, 0.5), 0.0, 2);
  instance.ComputeValidPairs();
  const Assignment assignment(instance);
  const BestResponse best = ComputeBestResponse(instance, assignment, 0);
  EXPECT_EQ(best.task, kNoTask);
  EXPECT_DOUBLE_EQ(best.utility, 0.0);
}

TEST(BestResponseTest, ReportsCrowdedOutWorker) {
  CooperationMatrix coop(4);
  coop.SetSymmetric(0, 1, 0.9);
  coop.SetSymmetric(0, 3, 0.8);
  coop.SetSymmetric(1, 3, 0.8);
  // Worker 2 contributes nothing and gets evicted when 3 arrives.
  std::vector<Worker> workers;
  for (int i = 0; i < 4; ++i) {
    workers.push_back(Worker{i, {0.5, 0.5}, 1.0, 1.0, 0.0});
  }
  std::vector<Task> tasks = {Task{0, {0.5, 0.5}, 0.0, 9.0, 3}};
  Instance instance(std::move(workers), std::move(tasks), std::move(coop),
                    0.0, 2);
  instance.ComputeValidPairs();
  Assignment assignment(instance);
  assignment.Assign(0, 0);
  assignment.Assign(1, 0);
  assignment.Assign(2, 0);
  const BestResponse best = ComputeBestResponse(instance, assignment, 3);
  EXPECT_EQ(best.task, 0);
  EXPECT_EQ(best.crowded_out, 2);
}

// ---------------------------------------------------------------------------
// The best-response memo against the un-memoized keeper scan
// ---------------------------------------------------------------------------

Instance ChurnInstance(uint64_t seed, bool skew, bool multiskill,
                       int capacity, int min_group) {
  SyntheticInstanceConfig config;
  config.num_workers = 60;
  config.num_tasks = 18;
  config.task.capacity = capacity;
  config.min_group_size = min_group;
  config.worker.radius_min = 0.2;
  config.worker.radius_max = 0.45;
  config.worker.speed_min = 0.05;
  config.worker.speed_max = 0.15;
  if (skew) {
    config.worker.spatial.distribution = LocationDistribution::kSkewed;
    config.task.spatial.distribution = LocationDistribution::kSkewed;
  }
  if (multiskill) {
    config.worker.num_skills = 8;
    config.task.num_skills = 8;
    config.task.skills_per_task = 2;
  }
  Rng rng(seed);
  Instance instance = GenerateSyntheticInstance(config, 0.0, &rng);
  if (multiskill) instance.set_objective(&GetMultiSkillObjective());
  return instance;
}

/// What the churn exercised, so the test can show it reached every path.
struct MemoCoverage {
  int64_t hits = 0;        ///< candidates the memo could answer
  int64_t crowd_outs = 0;  ///< best responses that name an evicted worker
  int64_t rejects = 0;     ///< JoinFeasible rejections
};

/// Every worker's memoized best response and scan counters equal the
/// oracle's on the same keeper.
void ExpectMemoMatchesOracle(const Instance& instance,
                             const ScoreKeeper& keeper,
                             const Assignment& assignment,
                             const std::string& label,
                             MemoCoverage* coverage) {
  for (WorkerIndex w = 0; w < instance.num_workers(); ++w) {
    const uint64_t scanned_at = keeper.Memo(w).scanned_at;
    for (const TaskIndex t : instance.ValidTasks(w)) {
      if (t != assignment.TaskOf(w) && keeper.TaskChangedAt(t) <= scanned_at) {
        ++coverage->hits;
      }
    }
    ScanCounters memo_counters;
    const BestResponse got =
        ComputeBestResponse(instance, keeper, assignment, w, &memo_counters);
    ScanCounters oracle_counters;
    const BestResponse want =
        OracleBestResponse(instance, keeper, assignment, w, &oracle_counters);
    ASSERT_EQ(got.task, want.task) << label << " worker " << w;
    ASSERT_EQ(std::bit_cast<uint64_t>(got.utility),
              std::bit_cast<uint64_t>(want.utility))
        << label << " worker " << w;
    ASSERT_EQ(got.crowded_out, want.crowded_out) << label << " worker " << w;
    ASSERT_EQ(memo_counters.evaluated, oracle_counters.evaluated)
        << label << " worker " << w;
    ASSERT_EQ(memo_counters.feasibility_rejects,
              oracle_counters.feasibility_rejects)
        << label << " worker " << w;
    if (want.crowded_out != kNoWorker) ++coverage->crowd_outs;
    coverage->rejects += oracle_counters.feasibility_rejects;
  }
}

/// A random valid task of `w` (kNoTask if it has none).
TaskIndex RandomValidTask(const Instance& instance, WorkerIndex w, Rng* rng) {
  const std::span<const TaskIndex> valid = instance.ValidTasks(w);
  if (valid.empty()) return kNoTask;
  return valid[static_cast<size_t>(
      rng->UniformInt(static_cast<uint64_t>(valid.size())))];
}

class MemoDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MemoDifferentialTest, MatchesUnmemoizedScanUnderChurn) {
  const uint64_t seed = GetParam();
  for (const bool multiskill : {false, true}) {
    const bool skew = seed % 2 == 0;
    const int capacity = 3 + static_cast<int>(seed % 4);
    const int min_group = std::min(2 + static_cast<int>(seed % 3), capacity);
    const Instance first =
        ChurnInstance(seed, skew, multiskill, capacity, min_group);
    const Instance second =
        ChurnInstance(seed + 1000, !skew, multiskill, capacity, min_group);
    Assignment first_assignment(first);
    Assignment second_assignment(second);
    Rng rng(seed * 7919 + (multiskill ? 1 : 0));
    // A random start with full tasks, so joins crowd members out.
    for (const auto& [instance, assignment] :
         {std::pair{&first, &first_assignment},
          std::pair{&second, &second_assignment}}) {
      for (WorkerIndex w = 0; w < instance->num_workers(); ++w) {
        const TaskIndex t = RandomValidTask(*instance, w, &rng);
        if (t != kNoTask) ApplyMove(*instance, assignment, w, t);
      }
    }

    const Instance* instance = &first;
    Assignment* assignment = &first_assignment;
    ScoreKeeper keeper(*instance, *assignment);
    MemoCoverage coverage;
    const std::string base = "seed " + std::to_string(seed) +
                             (multiskill ? " multiskill" : " casc");
    for (int step = 0; step < 240; ++step) {
      const std::string label = base + " step " + std::to_string(step);
      const WorkerIndex w = static_cast<WorkerIndex>(
          rng.UniformInt(static_cast<uint64_t>(instance->num_workers())));
      const TaskIndex from = assignment->TaskOf(w);
      const TaskIndex to = RandomValidTask(*instance, w, &rng);
      const auto has_room = [&](TaskIndex t) {
        return t != kNoTask && t != from &&
               assignment->GroupSize(t) <
                   instance->tasks()[static_cast<size_t>(t)].capacity;
      };
      switch (rng.UniformInt(uint64_t{6})) {
        case 0:  // a keeper move, crowding out a member of a full task
          ApplyMove(*instance, assignment, &keeper, w, to);
          break;
        case 1:  // Assign + Add, in either order
          if (has_room(to)) {
            if (from != kNoTask) {
              keeper.Remove(w, from);
              assignment->Unassign(w);
            }
            if (rng.Bernoulli(0.5)) {
              assignment->Assign(w, to);
              keeper.Add(w, to);
            } else {
              keeper.Add(w, to);
              assignment->Assign(w, to);
            }
          }
          break;
        case 2:  // Remove, in either order
          if (from != kNoTask) {
            if (rng.Bernoulli(0.5)) {
              keeper.Remove(w, from);
              assignment->Unassign(w);
            } else {
              assignment->Unassign(w);
              keeper.Remove(w, from);
            }
          }
          break;
        case 3:
        case 4: {
          // A local-search style trial move of w from `from` to `to` on
          // ApplyDelta alone: rolled back, or committed by moving w in the
          // assignment without telling the keeper.
          if (from == kNoTask || !has_room(to)) break;
          const std::span<const WorkerIndex> from_span =
              assignment->GroupOf(from);
          const std::span<const WorkerIndex> to_span =
              assignment->GroupOf(to);
          const std::vector<WorkerIndex> from_group(from_span.begin(),
                                                    from_span.end());
          const std::vector<WorkerIndex> to_group(to_span.begin(),
                                                  to_span.end());
          std::vector<WorkerIndex> from_trial = from_group;
          from_trial.erase(
              std::find(from_trial.begin(), from_trial.end(), w));
          std::vector<WorkerIndex> to_trial = to_group;
          to_trial.push_back(w);
          const double left = keeper.AffinityTo(from, w);
          const double joined = keeper.AffinityTo(to, w);
          keeper.ApplyDelta(from, -left, static_cast<int>(from_trial.size()),
                            from_trial);
          keeper.ApplyDelta(to, joined, static_cast<int>(to_trial.size()),
                            to_trial);
          if (rng.Bernoulli(0.5)) {
            assignment->Assign(w, to);
          } else {
            keeper.ApplyDelta(to, -joined,
                              static_cast<int>(to_group.size()), to_group);
            keeper.ApplyDelta(from, left,
                              static_cast<int>(from_group.size()),
                              from_group);
          }
          break;
        }
        case 5:
          if (rng.Bernoulli(0.5)) {
            // Rebind and sync onto the other instance.
            const bool on_first = instance == &first;
            instance = on_first ? &second : &first;
            assignment = on_first ? &second_assignment : &first_assignment;
            keeper.Rebind(*instance);
            keeper.Sync(*assignment);
          } else {
            // Change the groups behind the keeper's back, then Sync: the
            // sync alone must drop every stored price.
            for (int moves = 0; moves < 3; ++moves) {
              const WorkerIndex mover = static_cast<WorkerIndex>(rng.UniformInt(
                  static_cast<uint64_t>(instance->num_workers())));
              ApplyMove(*instance, assignment, mover,
                        RandomValidTask(*instance, mover, &rng));
            }
            keeper.Sync(*assignment);
          }
          break;
      }
      ASSERT_NO_FATAL_FAILURE(ExpectMemoMatchesOracle(
          *instance, keeper, *assignment, label, &coverage));
    }
    EXPECT_GT(coverage.hits, 0) << base;
    EXPECT_GT(coverage.crowd_outs, 0) << base;
    if (multiskill) {
      EXPECT_GT(coverage.rejects, 0) << base;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemoDifferentialTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

// ---------------------------------------------------------------------------
// RefreshMemo: the pooled memo refresh against the un-memoized scan
// ---------------------------------------------------------------------------

class MemoRefreshTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MemoRefreshTest, RefreshedScansMatchTheOracleAtAnyThreadCount) {
  const uint64_t seed = GetParam();
  for (const bool multiskill : {false, true}) {
    const int capacity = 3 + static_cast<int>(seed % 3);
    const Instance instance = ChurnInstance(seed, seed % 2 == 0, multiskill,
                                            capacity, /*min_group=*/2);
    // Every worker on a random valid task: most tasks are full, so most
    // joins crowd a member out.
    Rng start_rng(seed * 31 + (multiskill ? 1 : 0));
    Assignment start(instance);
    for (WorkerIndex w = 0; w < instance.num_workers(); ++w) {
      const TaskIndex t = RandomValidTask(instance, w, &start_rng);
      if (t != kNoTask) ApplyMove(instance, &start, w, t);
    }
    const ObjectiveModel& objective = instance.objective();
    for (const int threads : {1, 2, 4}) {
      const std::string base = "seed " + std::to_string(seed) +
                               (multiskill ? " multiskill" : " casc") +
                               " threads " + std::to_string(threads);
      ThreadPool pool(threads);
      Assignment assignment = start;
      ScoreKeeper keeper(instance, assignment);
      Rng rng(seed * 7919 + (multiskill ? 1 : 0));
      MemoCoverage coverage;
      int64_t refreshed_rejects = 0;
      for (int step = 0; step < 12; ++step) {
        const std::string label = base + " step " + std::to_string(step);
        // Churn, then refresh a random subset (every worker every third
        // step) in ascending order.
        for (int moves = 0; moves < 6; ++moves) {
          const WorkerIndex mover = static_cast<WorkerIndex>(rng.UniformInt(
              static_cast<uint64_t>(instance.num_workers())));
          ApplyMove(instance, &assignment, &keeper, mover,
                    RandomValidTask(instance, mover, &rng));
        }
        std::vector<WorkerIndex> workers;
        for (WorkerIndex w = 0; w < instance.num_workers(); ++w) {
          if (step % 3 == 0 || rng.Bernoulli(0.5)) workers.push_back(w);
        }
        RefreshMemo(instance, keeper, assignment, workers, &pool);

        // A refreshed row holds the price of every candidate but w's own
        // task, bit for bit.
        for (const WorkerIndex w : workers) {
          const ScoreKeeper::MemoRow memo = keeper.Memo(w);
          const std::span<const TaskIndex> tasks = instance.ValidTasks(w);
          for (size_t k = 0; k < tasks.size(); ++k) {
            const TaskIndex t = tasks[k];
            if (t == assignment.TaskOf(w)) continue;
            ASSERT_LE(keeper.TaskChangedAt(t), memo.scanned_at)
                << label << " worker " << w << " task " << t;
            double want = ScoreKeeper::kJoinInfeasible;
            if (objective.AlwaysJoinFeasible() ||
                objective.JoinFeasible(instance, t, keeper.GroupOf(t), w)) {
              want = StrategyUtility(instance, keeper, assignment, w, t,
                                     nullptr);
            } else {
              ++refreshed_rejects;
            }
            ASSERT_EQ(std::bit_cast<uint64_t>(memo.prices[k]),
                      std::bit_cast<uint64_t>(want))
                << label << " worker " << w << " task " << t;
          }
        }
        // Scans after the refresh: best responses and counters as the
        // oracle's, crowded-out workers included.
        ASSERT_NO_FATAL_FAILURE(ExpectMemoMatchesOracle(
            instance, keeper, assignment, label, &coverage));
      }
      EXPECT_GT(coverage.hits, 0) << base;
      EXPECT_GT(coverage.crowd_outs, 0) << base;
      if (multiskill) {
        EXPECT_GT(refreshed_rejects, 0) << base;
      }
    }
  }
}

TEST_P(MemoRefreshTest, RefreshedRoundsMoveLikeUnrefreshedOnes) {
  const uint64_t seed = GetParam();
  for (const bool multiskill : {false, true}) {
    const Instance instance =
        ChurnInstance(seed + 500, seed % 2 == 1, multiskill,
                      3 + static_cast<int>(seed % 4), /*min_group=*/3);
    Rng rng(seed);
    Assignment start(instance);
    for (WorkerIndex w = 0; w < instance.num_workers(); ++w) {
      const TaskIndex t = RandomValidTask(instance, w, &rng);
      if (t != kNoTask) ApplyMove(instance, &start, w, t);
    }
    std::vector<WorkerIndex> order(
        static_cast<size_t>(instance.num_workers()));
    for (size_t i = 0; i < order.size(); ++i) {
      order[i] = static_cast<WorkerIndex>(i);
    }

    Assignment expected = start;
    ScoreKeeper expected_keeper(instance, expected);
    std::vector<AppliedMove> expected_log;
    AssignerStats expected_stats;
    for (int round = 0; round < 3; ++round) {
      BestResponseRound(instance, order, &expected, &expected_keeper,
                        nullptr, &expected_stats, &expected_log);
    }
    EXPECT_GT(expected_stats.moves, 0);
    for (const int threads : {1, 2, 4}) {
      ThreadPool pool(threads);
      Assignment actual = start;
      ScoreKeeper keeper(instance, actual);
      std::vector<AppliedMove> log;
      AssignerStats stats;
      for (int round = 0; round < 3; ++round) {
        RefreshMemo(instance, keeper, actual, order, &pool);
        BestResponseRound(instance, order, &actual, &keeper, nullptr, &stats,
                          &log);
      }
      const std::string label = "seed " + std::to_string(seed) +
                                (multiskill ? " multiskill" : " casc") +
                                " threads " + std::to_string(threads);
      ASSERT_EQ(actual.Pairs(), expected.Pairs()) << label;
      ASSERT_EQ(log.size(), expected_log.size()) << label;
      for (size_t i = 0; i < log.size(); ++i) {
        ASSERT_EQ(log[i].worker, expected_log[i].worker) << label;
        ASSERT_EQ(log[i].task, expected_log[i].task) << label;
        ASSERT_EQ(log[i].crowded_out, expected_log[i].crowded_out) << label;
      }
      EXPECT_EQ(stats.moves, expected_stats.moves) << label;
      EXPECT_EQ(stats.candidates_evaluated,
                expected_stats.candidates_evaluated)
          << label;
      EXPECT_EQ(stats.feasibility_rejects, expected_stats.feasibility_rejects)
          << label;
      EXPECT_EQ(std::bit_cast<uint64_t>(keeper.TotalScore()),
                std::bit_cast<uint64_t>(expected_keeper.TotalScore()))
          << label;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemoRefreshTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

// ---------------------------------------------------------------------------
// Asymmetric cooperation matrices (Equation 1 allows q_i(k) != q_k(i))
// ---------------------------------------------------------------------------

TEST(AsymmetricTest, GtConvergesOnAsymmetricQualities) {
  Rng rng(404);
  const int m = 30, n = 10;
  std::vector<Worker> workers;
  for (int i = 0; i < m; ++i) {
    workers.push_back(Worker{i, {rng.Uniform(), rng.Uniform()}, 0.3, 0.5,
                             0.0});
  }
  std::vector<Task> tasks;
  for (int j = 0; j < n; ++j) {
    tasks.push_back(Task{j, {rng.Uniform(), rng.Uniform()}, 0.0, 5.0, 4});
  }
  CooperationMatrix coop(m);
  for (int i = 0; i < m; ++i) {
    for (int k = 0; k < m; ++k) {
      if (i != k) coop.SetQuality(i, k, rng.Uniform());
    }
  }
  Instance instance(std::move(workers), std::move(tasks), std::move(coop),
                    0.0, 3);
  instance.ComputeValidPairs();
  GtAssigner gt;
  const Assignment assignment = gt.Run(instance);
  EXPECT_TRUE(gt.stats().converged);
  EXPECT_TRUE(IsNashEquilibrium(instance, assignment, 1e-9));
  EXPECT_TRUE(assignment.Validate(instance).ok());
}

}  // namespace
}  // namespace casc
