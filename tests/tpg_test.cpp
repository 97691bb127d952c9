#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "algo/random_assigner.h"
#include "algo/tpg_assigner.h"
#include "bench_util/settings.h"
#include "common/rng.h"
#include "gen/synthetic.h"
#include "model/objective.h"
#include "model/objective_model.h"

namespace casc {

/// Reads the stage-1 fill counts TpgAssigner keeps for tests.
class TpgAssignerTestPeer {
 public:
  static int64_t StrongFills(const TpgAssigner& tpg) {
    return tpg.strong_fills_;
  }
  static int64_t ScanFills(const TpgAssigner& tpg) { return tpg.scan_fills_; }
};

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

// ---------------------------------------------------------------------------
// GreedySeedSet
// ---------------------------------------------------------------------------

TEST(GreedySeedSetTest, ReturnsEmptyWhenTooFewCandidates) {
  const Instance instance =
      AllValidInstance(2, 1, 3, 3, CooperationMatrix(2, 0.5));
  const std::vector<bool> available(2, true);
  EXPECT_TRUE(TpgAssigner::GreedySeedSet(instance, 0, available).empty());
}

TEST(GreedySeedSetTest, PicksBestPairForBTwo) {
  CooperationMatrix coop(4);
  coop.SetSymmetric(0, 1, 0.2);
  coop.SetSymmetric(2, 3, 0.9);
  const Instance instance = AllValidInstance(4, 1, 2, 2, std::move(coop));
  const std::vector<bool> available(4, true);
  const auto seed = TpgAssigner::GreedySeedSet(instance, 0, available);
  EXPECT_EQ(seed, (std::vector<WorkerIndex>{2, 3}));
}

TEST(GreedySeedSetTest, RespectsAvailabilityMask) {
  CooperationMatrix coop(4);
  coop.SetSymmetric(0, 1, 0.2);
  coop.SetSymmetric(2, 3, 0.9);
  const Instance instance = AllValidInstance(4, 1, 2, 2, std::move(coop));
  std::vector<bool> available(4, true);
  available[2] = false;  // the great pair is gone
  const auto seed = TpgAssigner::GreedySeedSet(instance, 0, available);
  ASSERT_EQ(seed.size(), 2u);
  EXPECT_TRUE(std::find(seed.begin(), seed.end(), 2) == seed.end());
}

TEST(GreedySeedSetTest, ExtendsPairGreedily) {
  CooperationMatrix coop(5);
  coop.SetSymmetric(0, 1, 1.0);   // seed pair
  coop.SetSymmetric(0, 2, 0.8);   // 2 adds 0.8 + 0.1
  coop.SetSymmetric(1, 2, 0.1);
  coop.SetSymmetric(0, 3, 0.4);   // 3 adds 0.4 + 0.4
  coop.SetSymmetric(1, 3, 0.4);
  const Instance instance = AllValidInstance(5, 1, 3, 3, std::move(coop));
  const std::vector<bool> available(5, true);
  const auto seed = TpgAssigner::GreedySeedSet(instance, 0, available);
  EXPECT_EQ(seed, (std::vector<WorkerIndex>{0, 1, 2}));
}

// ---------------------------------------------------------------------------
// Full algorithm behaviour
// ---------------------------------------------------------------------------

TEST(TpgTest, SolvesPaperExampleOne) {
  // Example 1: two tasks, four workers, B = 2. With every pair valid, TPG
  // must find the good assignment {w1,w4} / {w2,w3}.
  CooperationMatrix coop(4);
  coop.SetSymmetric(0, 3, 0.9);
  coop.SetSymmetric(1, 2, 0.9);
  coop.SetSymmetric(0, 1, 0.1);
  coop.SetSymmetric(2, 3, 0.1);
  const Instance instance = AllValidInstance(4, 2, 2, 2, std::move(coop));
  TpgAssigner tpg;
  const Assignment assignment = tpg.Run(instance);
  EXPECT_TRUE(assignment.Validate(instance).ok());
  EXPECT_NEAR(TotalScore(instance, assignment), 3.6, 1e-9);
  // w1 with w4, w2 with w3.
  EXPECT_EQ(assignment.TaskOf(0), assignment.TaskOf(3));
  EXPECT_EQ(assignment.TaskOf(1), assignment.TaskOf(2));
}

TEST(TpgTest, EmptyInstanceYieldsEmptyAssignment) {
  const Instance instance =
      AllValidInstance(0, 0, 3, 3, CooperationMatrix(0));
  TpgAssigner tpg;
  const Assignment assignment = tpg.Run(instance);
  EXPECT_EQ(assignment.NumAssigned(), 0);
}

TEST(TpgTest, NoTasksMeansNoAssignments) {
  const Instance instance =
      AllValidInstance(5, 0, 3, 3, CooperationMatrix(5, 0.5));
  TpgAssigner tpg;
  EXPECT_EQ(tpg.Run(instance).NumAssigned(), 0);
}

TEST(TpgTest, TooFewWorkersLeavesTasksUnserved) {
  const Instance instance =
      AllValidInstance(2, 3, 3, 3, CooperationMatrix(2, 0.5));
  TpgAssigner tpg;
  const Assignment assignment = tpg.Run(instance);
  EXPECT_EQ(assignment.NumAssigned(), 0);
  EXPECT_DOUBLE_EQ(TotalScore(instance, assignment), 0.0);
}

TEST(TpgTest, StageOneSeedsEveryServableTask) {
  // 9 workers, 3 tasks, B = 3: all tasks can and should be seeded.
  const Instance instance =
      AllValidInstance(9, 3, 3, 3, CooperationMatrix(9, 0.5));
  TpgAssigner tpg;
  const Assignment assignment = tpg.Run(instance);
  for (TaskIndex t = 0; t < 3; ++t) {
    EXPECT_EQ(assignment.GroupSize(t), 3) << "task " << t;
  }
}

TEST(TpgTest, StageTwoFillsTowardCapacityWhenProfitable) {
  // Constant q = 0.5: every extra worker adds 0.5 to a group's score, so
  // TPG should fill the single task to capacity.
  const Instance instance =
      AllValidInstance(6, 1, 5, 3, CooperationMatrix(6, 0.5));
  TpgAssigner tpg;
  const Assignment assignment = tpg.Run(instance);
  EXPECT_EQ(assignment.GroupSize(0), 5);
}

TEST(TpgTest, StageTwoSkipsHarmfulAdditions) {
  // Three compatible workers; the fourth ruins the average.
  CooperationMatrix coop(4);
  coop.SetSymmetric(0, 1, 1.0);
  coop.SetSymmetric(0, 2, 1.0);
  coop.SetSymmetric(1, 2, 1.0);
  const Instance instance = AllValidInstance(4, 1, 4, 3, std::move(coop));
  TpgAssigner tpg;
  const Assignment assignment = tpg.Run(instance);
  EXPECT_EQ(assignment.GroupSize(0), 3);
  EXPECT_EQ(assignment.TaskOf(3), kNoTask);
}

TEST(TpgTest, CompetitionTieBreaksTowardMorePotentialWorkers) {
  // Both tasks want the same best pair {0,1}; task 1 has an extra
  // candidate (worker 4 is valid only for it), so the pair must go to
  // task 1 per Algorithm 2 lines 6-9.
  std::vector<Worker> workers;
  for (int i = 0; i < 4; ++i) {
    workers.push_back(Worker{i, {0.5, 0.5}, 1.0, 1.0, 0.0});
  }
  // Worker 4 sits close to task 1 only.
  workers.push_back(Worker{4, {0.9, 0.9}, 1.0, 0.05, 0.0});
  std::vector<Task> tasks = {Task{0, {0.5, 0.5}, 0.0, 10.0, 3},
                             Task{1, {0.9, 0.9}, 0.0, 10.0, 3}};
  CooperationMatrix coop(5);
  coop.SetSymmetric(0, 1, 1.0);  // the contested best pair
  // Workers 0..3 can reach everything.
  Instance instance(std::move(workers), std::move(tasks), std::move(coop),
                    0.0, 2);
  instance.ComputeValidPairs();
  ASSERT_EQ(instance.Candidates(0).size(), 4u);
  ASSERT_EQ(instance.Candidates(1).size(), 5u);
  TpgAssigner tpg;
  const Assignment assignment = tpg.Run(instance);
  EXPECT_EQ(assignment.TaskOf(0), 1);
  EXPECT_EQ(assignment.TaskOf(1), 1);
}

TEST(TpgTest, StatsArePopulated) {
  Rng rng(3);
  SyntheticInstanceConfig config;
  config.num_workers = 60;
  config.num_tasks = 20;
  const Instance instance = GenerateSyntheticInstance(config, 0.0, &rng);
  TpgAssigner tpg;
  const Assignment assignment = tpg.Run(instance);
  EXPECT_NEAR(tpg.stats().final_score, TotalScore(instance, assignment),
              1e-9);
  EXPECT_LE(tpg.stats().init_score, tpg.stats().final_score + 1e-9);
}

// ---------------------------------------------------------------------------
// Properties on random instances
// ---------------------------------------------------------------------------

class TpgPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TpgPropertyTest, FeasibleAndBeatsRandom) {
  Rng rng(GetParam());
  SyntheticInstanceConfig config;
  config.num_workers = 120;
  config.num_tasks = 40;
  const Instance instance = GenerateSyntheticInstance(config, 0.0, &rng);

  TpgAssigner tpg;
  const Assignment assignment = tpg.Run(instance);
  ASSERT_TRUE(assignment.Validate(instance).ok());

  // RAND is the sanity floor: average over a few seeds to damp luck.
  double random_average = 0.0;
  for (uint64_t s = 0; s < 5; ++s) {
    RandomAssigner rand(GetParam() * 97 + s);
    random_average += TotalScore(instance, rand.Run(instance));
  }
  random_average /= 5;
  EXPECT_GE(TotalScore(instance, assignment), random_average);
}

TEST_P(TpgPropertyTest, NeverExceedsCapacityAnywhere) {
  Rng rng(GetParam() ^ 0xF00D);
  SyntheticInstanceConfig config;
  config.num_workers = 80;
  config.num_tasks = 30;
  config.task.capacity = 3;
  const Instance instance = GenerateSyntheticInstance(config, 0.0, &rng);
  TpgAssigner tpg;
  const Assignment assignment = tpg.Run(instance);
  for (TaskIndex t = 0; t < instance.num_tasks(); ++t) {
    EXPECT_LE(assignment.GroupSize(t), 3);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TpgPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

// ---------------------------------------------------------------------------
// Differential fuzz against the direct form of Algorithm 2
// ---------------------------------------------------------------------------

/// The direct seed-set search: the best pair by an O(c^2) scan over the
/// available candidates, then argmax marginal extension, each sum read
/// through Quality() at every step.
std::vector<WorkerIndex> OracleSeedSet(const Instance& instance, TaskIndex t,
                                       const std::vector<bool>& available) {
  const int target = instance.min_group_size();
  std::vector<WorkerIndex> candidates;
  for (const WorkerIndex w : instance.Candidates(t)) {
    if (available[static_cast<size_t>(w)]) candidates.push_back(w);
  }
  if (static_cast<int>(candidates.size()) < target) return {};
  const CooperationMatrix& coop = instance.coop();
  WorkerIndex best_a = candidates[0];
  WorkerIndex best_b = candidates[1];
  double best_pair = -1.0;
  for (size_t i = 0; i < candidates.size(); ++i) {
    for (size_t j = i + 1; j < candidates.size(); ++j) {
      const double value = coop.Quality(candidates[i], candidates[j]) +
                           coop.Quality(candidates[j], candidates[i]);
      if (value > best_pair) {
        best_pair = value;
        best_a = candidates[i];
        best_b = candidates[j];
      }
    }
  }
  std::vector<WorkerIndex> seed = {best_a, best_b};
  while (static_cast<int>(seed.size()) < target) {
    WorkerIndex best_w = kNoTask;
    double best_add = -1.0;
    for (const WorkerIndex w : candidates) {
      if (std::find(seed.begin(), seed.end(), w) != seed.end()) continue;
      double added = 0.0;
      for (const WorkerIndex member : seed) {
        added += coop.Quality(member, w) + coop.Quality(w, member);
      }
      if (added > best_add) {
        best_add = added;
        best_w = w;
      }
    }
    seed.push_back(best_w);
  }
  std::sort(seed.begin(), seed.end());
  return seed;
}

/// Both TPG stages in their direct form: every pick rescans all tasks
/// for the best seed score and again for ties (most available
/// candidates, then lowest index), and a seed is recomputed from scratch
/// once a consumed worker invalidates it; stage 2 prices through
/// GainOfJoining.
void OracleSeedTasks(const Instance& instance,
                     const std::vector<uint8_t>* task_mask,
                     Assignment* assignment) {
  const int num_tasks = instance.num_tasks();
  const auto masked = [&](TaskIndex t) {
    return task_mask == nullptr || (*task_mask)[static_cast<size_t>(t)] != 0;
  };
  std::vector<bool> available(static_cast<size_t>(instance.num_workers()));
  for (WorkerIndex w = 0; w < instance.num_workers(); ++w) {
    available[static_cast<size_t>(w)] = assignment->TaskOf(w) == kNoTask;
  }

  struct Seed {
    std::vector<WorkerIndex> workers;
    double score = -1.0;
  };
  std::vector<Seed> seeds(static_cast<size_t>(num_tasks));
  std::vector<bool> fresh(static_cast<size_t>(num_tasks), false);
  std::vector<bool> seeded(static_cast<size_t>(num_tasks), false);
  const auto refresh = [&](TaskIndex t) {
    Seed& seed = seeds[static_cast<size_t>(t)];
    seed.workers = OracleSeedSet(instance, t, available);
    seed.score = seed.workers.empty()
                     ? -1.0
                     : GroupScore(instance, t, seed.workers);
    fresh[static_cast<size_t>(t)] = true;
  };
  const auto potential = [&](TaskIndex t) {
    int count = 0;
    for (const WorkerIndex w : instance.Candidates(t)) {
      if (available[static_cast<size_t>(w)]) ++count;
    }
    return count;
  };
  for (TaskIndex t = 0; t < num_tasks; ++t) {
    if (masked(t)) refresh(t);
  }
  while (true) {
    double best = -1.0;
    for (TaskIndex t = 0; t < num_tasks; ++t) {
      if (seeded[static_cast<size_t>(t)] || !masked(t)) continue;
      if (!fresh[static_cast<size_t>(t)]) refresh(t);
      best = std::max(best, seeds[static_cast<size_t>(t)].score);
    }
    if (best < 0.0) break;
    TaskIndex chosen = kNoTask;
    int chosen_potential = -1;
    for (TaskIndex t = 0; t < num_tasks; ++t) {
      if (seeded[static_cast<size_t>(t)] || !masked(t)) continue;
      if (seeds[static_cast<size_t>(t)].score != best) continue;
      const int count = potential(t);
      if (count > chosen_potential) {
        chosen_potential = count;
        chosen = t;
      }
    }
    const std::vector<WorkerIndex> consumed =
        seeds[static_cast<size_t>(chosen)].workers;
    for (const WorkerIndex w : consumed) {
      assignment->Assign(w, chosen);
      available[static_cast<size_t>(w)] = false;
    }
    seeded[static_cast<size_t>(chosen)] = true;
    for (TaskIndex t = 0; t < num_tasks; ++t) {
      if (seeded[static_cast<size_t>(t)] || !fresh[static_cast<size_t>(t)]) {
        continue;
      }
      const auto& cached = seeds[static_cast<size_t>(t)].workers;
      for (const WorkerIndex w : consumed) {
        if (std::binary_search(cached.begin(), cached.end(), w)) {
          fresh[static_cast<size_t>(t)] = false;
          break;
        }
      }
    }
  }

  struct Gain {
    double gain;
    WorkerIndex worker;
    TaskIndex task;
    uint64_t version;
    bool operator<(const Gain& other) const {
      if (gain != other.gain) return gain < other.gain;
      if (worker != other.worker) return worker > other.worker;
      return task > other.task;
    }
  };
  std::vector<uint64_t> version(static_cast<size_t>(num_tasks), 0);
  const ObjectiveModel& objective = instance.objective();
  const auto open = [&](TaskIndex t) {
    return assignment->GroupSize(t) <
           instance.tasks()[static_cast<size_t>(t)].capacity;
  };
  const auto gain = [&](WorkerIndex w, TaskIndex t) {
    return GainOfJoining(instance, t, assignment->GroupOf(t), w);
  };
  std::priority_queue<Gain> heap;
  for (WorkerIndex w = 0; w < instance.num_workers(); ++w) {
    if (!available[static_cast<size_t>(w)]) continue;
    for (const TaskIndex t : instance.ValidTasks(w)) {
      if (!masked(t) || !open(t)) continue;
      heap.push(Gain{gain(w, t), w, t, version[static_cast<size_t>(t)]});
    }
  }
  while (!heap.empty()) {
    const Gain top = heap.top();
    heap.pop();
    if (!available[static_cast<size_t>(top.worker)] || !open(top.task)) {
      continue;
    }
    if (top.version != version[static_cast<size_t>(top.task)]) {
      heap.push(Gain{gain(top.worker, top.task), top.worker, top.task,
                     version[static_cast<size_t>(top.task)]});
      continue;
    }
    if (!objective.AlwaysJoinFeasible() &&
        !objective.JoinFeasible(instance, top.task,
                                assignment->GroupOf(top.task), top.worker)) {
      continue;
    }
    if (top.gain <= 0.0) break;
    assignment->Assign(top.worker, top.task);
    available[static_cast<size_t>(top.worker)] = false;
    ++version[static_cast<size_t>(top.task)];
  }
}

std::string HexFloat(double value) {
  char text[64];
  std::snprintf(text, sizeof(text), "%a", value);
  return text;
}

enum class MatrixKind { kProcedural, kAsymmetric, kShardView, kQuantized };

/// A random dense matrix over `m` workers: asymmetric cells in [0, 1],
/// or (quantized) symmetric cells in {0, .25, .5, .75, 1}, which makes
/// equal pair values and equal seed scores common.
CooperationMatrix RandomDense(int m, bool quantized, Rng* rng) {
  CooperationMatrix coop(m);
  for (int i = 0; i < m; ++i) {
    for (int k = 0; k < m; ++k) {
      if (i == k) continue;
      if (quantized) {
        if (k > i) {
          coop.SetSymmetric(i, k, 0.25 * static_cast<double>(
                                             rng->UniformInt(int64_t{0}, 4)));
        }
      } else {
        coop.SetQuality(i, k, rng->Uniform());
      }
    }
  }
  return coop;
}

/// One random fuzz case, fully determined by `seed`.
struct FuzzCase {
  Instance instance;
  bool masked_partial = false;
  std::string label;
};

FuzzCase MakeFuzzCase(uint64_t seed) {
  Rng rng(seed * 7919 + 17);
  const bool skew = rng.Bernoulli(0.5);
  const int min_group = static_cast<int>(rng.UniformInt(int64_t{2}, 4));
  const auto kind = static_cast<MatrixKind>(rng.UniformInt(uint64_t{4}));
  const bool multiskill = rng.Bernoulli(0.5);
  const int m = static_cast<int>(rng.UniformInt(int64_t{30}, 90));
  const int n = static_cast<int>(rng.UniformInt(int64_t{8}, 30));

  SyntheticInstanceConfig config;
  config.num_workers = m;
  config.num_tasks = n;
  config.min_group_size = min_group;
  config.task.capacity = 6;
  config.worker.radius_min = 0.15;
  config.worker.radius_max = 0.45;
  config.worker.speed_min = 0.05;
  config.worker.speed_max = 0.2;
  const auto distribution = skew ? LocationDistribution::kSkewed
                                 : LocationDistribution::kUniform;
  config.worker.spatial.distribution = distribution;
  config.task.spatial.distribution = distribution;
  if (multiskill) {
    config.worker.num_skills = 6;
    config.task.num_skills = 6;
    config.task.skills_per_task = 2;
  }
  const Instance generated = GenerateSyntheticInstance(config, 0.0, &rng);

  std::vector<Worker> workers = generated.workers();
  std::vector<Task> tasks = generated.tasks();
  for (Task& task : tasks) {
    task.capacity = static_cast<int>(
        rng.UniformInt(int64_t{std::max(3, min_group)}, 6));
  }
  CooperationMatrix coop;
  switch (kind) {
    case MatrixKind::kProcedural:
      coop = CooperationMatrix::Procedural(m, seed);
      break;
    case MatrixKind::kAsymmetric:
      coop = RandomDense(m, /*quantized=*/false, &rng);
      break;
    case MatrixKind::kQuantized:
      coop = RandomDense(m, /*quantized=*/true, &rng);
      break;
    case MatrixKind::kShardView: {
      // The shard's workers are a shuffled subset of a larger asymmetric
      // base matrix, as ShardExecutor builds them.
      std::vector<int> ids(static_cast<size_t>(m + 20));
      for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int>(i);
      rng.Shuffle(ids);
      ids.resize(static_cast<size_t>(m));
      coop = RandomDense(m + 20, /*quantized=*/false, &rng).View(ids);
      break;
    }
  }

  FuzzCase fuzz{Instance(std::move(workers), std::move(tasks),
                         std::move(coop), 0.0, min_group),
                false, ""};
  fuzz.instance.ComputeValidPairs();
  if (multiskill) fuzz.instance.set_objective(&GetMultiSkillObjective());
  fuzz.masked_partial = rng.Bernoulli(0.3);
  fuzz.label = "seed=" + std::to_string(seed) + (skew ? " SKEW" : " UNIF") +
               " B=" + std::to_string(min_group) +
               " matrix=" + std::to_string(static_cast<int>(kind)) +
               (multiskill ? " multiskill" : " casc") +
               (fuzz.masked_partial ? " masked" : "");
  return fuzz;
}

class TpgDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

/// A fuzz case's starting point. A masked case re-seeds a random task
/// subset on top of a random partial assignment of the other tasks, as
/// the warm start's dirty-task re-seed does (its skeleton never holds a
/// worker on a dirty task).
struct FuzzStart {
  Assignment assignment;
  std::vector<uint8_t> mask;
  bool masked = false;

  const std::vector<uint8_t>* task_mask() const {
    return masked ? &mask : nullptr;
  }
};

FuzzStart MakeFuzzStart(const FuzzCase& fuzz, uint64_t seed) {
  const Instance& instance = fuzz.instance;
  FuzzStart start{Assignment(instance), {}, fuzz.masked_partial};
  if (!fuzz.masked_partial) return start;
  Rng rng(seed ^ 0x5EEDull);
  start.mask.resize(static_cast<size_t>(instance.num_tasks()));
  for (uint8_t& bit : start.mask) bit = rng.Bernoulli(0.6) ? 1 : 0;
  for (WorkerIndex w = 0; w < instance.num_workers(); ++w) {
    const auto valid = instance.ValidTasks(w);
    if (valid.empty() || !rng.Bernoulli(0.3)) continue;
    const TaskIndex t = valid[rng.UniformInt(valid.size())];
    if (start.mask[static_cast<size_t>(t)] == 0 &&
        start.assignment.GroupSize(t) <
            instance.tasks()[static_cast<size_t>(t)].capacity) {
      start.assignment.Assign(w, t);
    }
  }
  return start;
}

/// Asserts equal assignments, group orders and score bits.
void ExpectSameAssignment(const Instance& instance, const Assignment& actual,
                          const Assignment& expected) {
  for (WorkerIndex w = 0; w < instance.num_workers(); ++w) {
    ASSERT_EQ(actual.TaskOf(w), expected.TaskOf(w)) << "worker " << w;
  }
  for (TaskIndex t = 0; t < instance.num_tasks(); ++t) {
    const auto want = expected.GroupOf(t);
    const auto got = actual.GroupOf(t);
    ASSERT_TRUE(std::equal(want.begin(), want.end(), got.begin(), got.end()))
        << "task " << t;
  }
  EXPECT_EQ(HexFloat(TotalScore(instance, actual)),
            HexFloat(TotalScore(instance, expected)));
  ASSERT_TRUE(actual.Validate(instance).ok());
}

/// The strong-pair pass's cost rule, restated. A masked task with n
/// available candidates can fill from the strong pairs only when n >= B
/// and its n(n-1)/2 pairs exceed the K = 48 a list keeps; the pass prices
/// the r(r-1)/2 pairs of the r workers such tasks list, and runs when
/// that is fewer than those tasks' n(n-1)/2.
struct PassCost {
  int64_t workers = 0;  ///< r
  int64_t pass_pairs = 0;
  int64_t scan_pairs = 0;

  bool takes_pass() const { return pass_pairs < scan_pairs; }
  /// A pass's pair values: its cut's sample rows (at most 8, each of r
  /// values) and then every pair once.
  int64_t pass_priced() const {
    return std::min<int64_t>(workers, 8) * workers + pass_pairs;
  }
};

PassCost CostOf(const Instance& instance, const Assignment& start,
                const std::vector<uint8_t>* task_mask) {
  std::vector<bool> listed(static_cast<size_t>(instance.num_workers()));
  PassCost cost;
  for (TaskIndex t = 0; t < instance.num_tasks(); ++t) {
    if (task_mask != nullptr && (*task_mask)[static_cast<size_t>(t)] == 0) {
      continue;
    }
    int64_t live = 0;
    for (const WorkerIndex w : instance.Candidates(t)) {
      if (start.TaskOf(w) == kNoTask) ++live;
    }
    if (live < instance.min_group_size() || live * (live - 1) / 2 <= 48) {
      continue;
    }
    cost.scan_pairs += live * (live - 1) / 2;
    for (const WorkerIndex w : instance.Candidates(t)) {
      if (start.TaskOf(w) == kNoTask) listed[static_cast<size_t>(w)] = true;
    }
  }
  cost.workers = std::count(listed.begin(), listed.end(), true);
  cost.pass_pairs = cost.workers * (cost.workers - 1) / 2;
  return cost;
}

/// How one SeedTasks() call filled its pair lists.
struct FillCounts {
  bool pass = false;    ///< the cost rule took the strong-pair pass
  int64_t strong = 0;   ///< lists filled from the strong pairs
  int64_t scan = 0;     ///< lists filled by the per-task scan
};

/// Runs TPG's SeedTasks and the direct form from `start`, asserts equal
/// output, and checks the path against the cost rule through
/// seed_pairs_priced: a pass prices its sample and every pair, and only a
/// pass fills lists from strong pairs.
FillCounts ExpectSeedTasksMatchesOracle(const Instance& instance,
                                        const Assignment& start,
                                        const std::vector<uint8_t>* mask,
                                        TpgAssigner* tpg) {
  Assignment expected = start;
  OracleSeedTasks(instance, mask, &expected);
  Assignment actual = start;
  const int64_t priced_before = tpg->stats().seed_pairs_priced;
  tpg->SeedTasks(instance, mask, &actual);
  ExpectSameAssignment(instance, actual, expected);

  const int64_t priced = tpg->stats().seed_pairs_priced - priced_before;
  FillCounts fills{false, TpgAssignerTestPeer::StrongFills(*tpg),
                   TpgAssignerTestPeer::ScanFills(*tpg)};
  const PassCost cost = CostOf(instance, start, mask);
  fills.pass = cost.takes_pass();
  if (fills.pass) {
    EXPECT_GE(priced, cost.pass_priced());
  } else {
    EXPECT_EQ(fills.strong, 0);
  }
  return fills;
}

TEST_P(TpgDifferentialTest, SeedTasksMatchesDirectFormByteForByte) {
  const FuzzCase fuzz = MakeFuzzCase(GetParam());
  SCOPED_TRACE(fuzz.label);
  const FuzzStart start = MakeFuzzStart(fuzz, GetParam());
  TpgAssigner tpg;
  ExpectSeedTasksMatchesOracle(fuzz.instance, start.assignment,
                               start.task_mask(), &tpg);
}

TEST_P(TpgDifferentialTest, GreedySeedSetMatchesDirectForm) {
  const FuzzCase fuzz = MakeFuzzCase(GetParam());
  const Instance& instance = fuzz.instance;
  SCOPED_TRACE(fuzz.label);
  Rng rng(GetParam() ^ 0xA7A1ull);
  std::vector<bool> available(static_cast<size_t>(instance.num_workers()));
  for (size_t w = 0; w < available.size(); ++w) {
    available[w] = rng.Bernoulli(0.7);
  }
  for (TaskIndex t = 0; t < instance.num_tasks(); ++t) {
    EXPECT_EQ(TpgAssigner::GreedySeedSet(instance, t, available),
              OracleSeedSet(instance, t, available))
        << "task " << t;
  }
}

constexpr uint64_t kFuzzCases = 120;

INSTANTIATE_TEST_SUITE_P(
    Instances, TpgDifferentialTest,
    ::testing::Range(uint64_t{1}, kFuzzCases + 1));

TEST(TpgDifferentialTest, FuzzCoversBothFillPaths) {
  // The fuzz above is only a check of the strong-pair pass if enough of
  // its cases take the pass, and enough fills inside those cases still
  // fall back to the per-task scan.
  int pass_cases = 0;
  int64_t strong_fills = 0;
  int64_t fallback_fills = 0;
  for (uint64_t seed = 1; seed <= kFuzzCases; ++seed) {
    const FuzzCase fuzz = MakeFuzzCase(seed);
    const FuzzStart start = MakeFuzzStart(fuzz, seed);
    TpgAssigner tpg;
    const FillCounts fills = ExpectSeedTasksMatchesOracle(
        fuzz.instance, start.assignment, start.task_mask(), &tpg);
    if (!fills.pass) continue;
    ++pass_cases;
    strong_fills += fills.strong;
    fallback_fills += fills.scan;
  }
  // 78 cases, 652 strong fills and 850 fallbacks when this was written.
  EXPECT_GE(pass_cases, 40);
  EXPECT_GE(strong_fills, 300);
  EXPECT_GE(fallback_fills, 300);
}

/// A symmetric dense matrix whose two-way pair values are 0.5, 1.0 or
/// 2.0, drawn with probabilities `low`, 1 - low - `top` and `top`.
CooperationMatrix TieHeavyMatrix(int m, double low, double top, Rng* rng) {
  CooperationMatrix coop(m);
  for (int i = 0; i < m; ++i) {
    for (int k = i + 1; k < m; ++k) {
      const double draw = rng->Uniform();
      coop.SetSymmetric(i, k, draw < low ? 0.25 : draw < low + top ? 1.0 : 0.5);
    }
  }
  return coop;
}

TEST(TpgDifferentialTest, TiedCutMatchesDirectForm) {
  // 88% of the pairs are worth 1.0 and 1.2% are worth 2.0, so the cut
  // lands on 1.0 with most pairs tied at it, and only the 2.0 pairs are
  // strong. The workers sit on a line and each task reaches a window of
  // it: the wide windows hold K strong pairs and take them, the narrow
  // ones fall back to the scan, whose lists are mostly ties at the cut.
  // A pass that also kept the pairs equal to the cut would hold most of
  // the matrix, so its memory cap would drop part of those ties, and a
  // narrow window's list would pick later ties than the scan does.
  Rng rng(2027);
  constexpr int kWorkers = 160;
  std::vector<Worker> workers;
  for (int i = 0; i < kWorkers; ++i) {
    const double x = 0.1 + 0.8 * i / (kWorkers - 1.0);
    workers.push_back(Worker{i, {x, 0.5}, 1.0, 0.45, 0.0});
  }
  std::vector<Task> tasks;
  for (const double x : {0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95}) {
    for (int copy = 0; copy < 2; ++copy) {
      tasks.push_back(Task{static_cast<int64_t>(tasks.size()),
                           {x, 0.5},
                           0.0,
                           10.0,
                           5});
    }
  }
  Instance instance(std::move(workers), std::move(tasks),
                    TieHeavyMatrix(kWorkers, 0.11, 0.012, &rng), 0.0, 3);
  instance.ComputeValidPairs();
  TpgAssigner tpg;
  const FillCounts fills = ExpectSeedTasksMatchesOracle(
      instance, Assignment(instance), nullptr, &tpg);
  EXPECT_TRUE(fills.pass);
  EXPECT_GT(fills.strong, 0);
  EXPECT_GT(fills.scan, 0);
}

TEST(TpgDifferentialTest, MisjudgedCutIsRaisedExactly) {
  // The cut's sample rows are evenly spaced over the priced workers, here
  // workers 0, 20, ..., 140, and those workers have no affinity to anyone.
  // The sampled cut is then 0 and nearly every pair clears it, so the
  // pass must raise its cut to stay under its memory cap, more than once,
  // without losing a pair that a list needs.
  Rng rng(77);
  constexpr int kWorkers = 160;
  CooperationMatrix coop(kWorkers);
  for (int i = 0; i < kWorkers; ++i) {
    for (int k = 0; k < kWorkers; ++k) {
      if (i != k && i % 20 != 0 && k % 20 != 0) {
        coop.SetQuality(i, k, rng.Uniform());
      }
    }
  }
  const Instance instance =
      AllValidInstance(kWorkers, 12, 5, 3, std::move(coop));
  TpgAssigner tpg;
  const FillCounts fills = ExpectSeedTasksMatchesOracle(
      instance, Assignment(instance), nullptr, &tpg);
  EXPECT_TRUE(fills.pass);
  EXPECT_GT(fills.strong, 0);
}

TEST(TpgDifferentialTest, MaskedWarmPatchMatchesDirectForm) {
  // The warm start re-seeds its dirty tasks on top of a skeleton that
  // holds workers on the clean ones. One assigner re-seeds two different
  // masks over two different skeletons, so the second call's pass must
  // price a different worker set rather than reuse the first's pairs.
  Rng rng(4242);
  constexpr int kWorkers = 110;
  constexpr int kTasks = 16;
  CooperationMatrix coop(kWorkers);
  for (int i = 0; i < kWorkers; ++i) {
    for (int k = 0; k < kWorkers; ++k) {
      if (i != k) coop.SetQuality(i, k, rng.Uniform());
    }
  }
  const Instance instance =
      AllValidInstance(kWorkers, kTasks, 5, 3, std::move(coop));
  TpgAssigner tpg;
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    // Round 0 re-seeds the odd tasks, and its skeleton holds workers
    // 0..39 on the even ones; round 1 swaps both roles and holds workers
    // 60..99 instead.
    std::vector<uint8_t> mask(kTasks);
    for (int t = 0; t < kTasks; ++t) {
      mask[static_cast<size_t>(t)] = (t % 2 == 1) == (round == 0) ? 1 : 0;
    }
    Assignment skeleton(instance);
    const int first = round == 0 ? 0 : 60;
    for (int k = 0; k < 40; ++k) {
      const TaskIndex t = 2 * (k % (kTasks / 2)) + (round == 0 ? 0 : 1);
      skeleton.Assign(first + k, t);
    }
    const FillCounts fills = ExpectSeedTasksMatchesOracle(
        instance, skeleton, &mask, &tpg);
    EXPECT_TRUE(fills.pass);
    EXPECT_GT(fills.strong, 0);
  }
}

TEST(TpgDifferentialTest, SkewCentreShardMatchesDirectForm) {
  // The shape that dominates skew-s4: one centre cell of the 4x4 shard
  // grid over a SKEW Table II batch at m = 5K, whose workers are a view
  // of the batch's procedural matrix, as ShardExecutor builds a shard.
  ExperimentSettings settings;
  settings.num_workers = 5000;
  settings.distribution = LocationDistribution::kSkewed;
  const WorkerGenConfig worker_config = settings.MakeWorkerConfig();
  const TaskGenConfig task_config = settings.MakeTaskConfig();
  Rng rng(11);
  const auto in_cell = [](const Point& p) {
    return p.x >= 0.25 && p.x < 0.5 && p.y >= 0.25 && p.y < 0.5;
  };
  std::vector<Worker> workers;
  std::vector<int> ids;
  for (int i = 0; i < settings.num_workers; ++i) {
    const Worker worker = GenerateWorker(i, worker_config, 0.0, &rng);
    if (!in_cell(worker.location)) continue;
    workers.push_back(worker);
    ids.push_back(i);
  }
  std::vector<Task> tasks;
  for (int j = 0; j < settings.num_tasks; ++j) {
    const Task task = GenerateTask(j, task_config, 0.0, &rng);
    if (in_cell(task.location)) tasks.push_back(task);
  }
  ASSERT_GE(workers.size(), 500u);
  Instance instance(
      std::move(workers), std::move(tasks),
      CooperationMatrix::Procedural(settings.num_workers, 99).View(ids),
      0.0, settings.min_group_size);
  instance.ComputeValidPairs();

  TpgAssigner tpg;
  const Assignment start(instance);
  const FillCounts fills = ExpectSeedTasksMatchesOracle(
      instance, start, nullptr, &tpg);
  EXPECT_TRUE(fills.pass);
  EXPECT_GT(fills.strong, 10 * fills.scan);
  // The pass and every fill together price fewer pairs than the scan's
  // first fills alone would.
  EXPECT_LT(tpg.stats().seed_pairs_priced,
            CostOf(instance, start, nullptr).scan_pairs);
}

TEST(TpgDifferentialTest, PairListRunsDryAndIsRebuilt) {
  // Task 0 reaches hubs 0..2 and ordinary workers 3..42. The hubs hold
  // 0.9 affinity to each other and to every ordinary worker; ordinary
  // pairs are 0.1. So task 0's best pairs all touch a hub, and hubs 0
  // and 1 alone make 82 of them, more than the 48 its pair list keeps.
  // Tasks 1..3 reach the hubs and workers 43..45, which hold affinity 1
  // to every hub: task 1's seed {0, 1, 43} outscores task 0's {0, 1, 2}
  // and is picked first, which kills every pair on task 0's list.
  constexpr int kHubs = 3;
  constexpr int kOrdinary = 40;
  constexpr int kWorkers = kHubs + kOrdinary + 3;
  CooperationMatrix coop(kWorkers, 0.1);
  for (int h = 0; h < kHubs; ++h) {
    for (int k = 0; k < kHubs + kOrdinary; ++k) {
      if (k != h) coop.SetSymmetric(h, k, 0.9);
    }
    for (int p = kHubs + kOrdinary; p < kWorkers; ++p) {
      coop.SetSymmetric(h, p, 1.0);
    }
  }
  std::vector<Worker> workers;
  for (int i = 0; i < kWorkers; ++i) {
    Point at{0.5, 0.5};                                // hubs
    if (i >= kHubs) at = {0.1, 0.5};                   // ordinary
    if (i >= kHubs + kOrdinary) {
      at = {0.9, 0.3 + 0.2 * (i - kHubs - kOrdinary)};  // hub partners
    }
    workers.push_back(Worker{i, at, 1.0, 0.45, 0.0});
  }
  std::vector<Task> tasks = {Task{0, {0.3, 0.5}, 0.0, 10.0, 4}};
  for (int j = 1; j <= 3; ++j) {
    tasks.push_back(Task{j, {0.7, 0.1 + 0.2 * j}, 0.0, 10.0, 4});
  }
  Instance instance(std::move(workers), std::move(tasks), std::move(coop),
                    0.0, 3);
  instance.ComputeValidPairs();
  ASSERT_EQ(instance.Candidates(0).size(),
            static_cast<size_t>(kHubs + kOrdinary));

  Assignment expected(instance);
  OracleSeedTasks(instance, nullptr, &expected);
  TpgAssigner tpg;
  const Assignment actual = tpg.Run(instance);
  // The scenario itself: task 1 takes hubs 0 and 1 with worker 43, so
  // every pair on task 0's list is dead and the list must be rebuilt.
  for (const Assignment* side : {&std::as_const(expected), &actual}) {
    for (const WorkerIndex w : {0, 1, kHubs + kOrdinary}) {
      ASSERT_EQ(side->TaskOf(w), 1) << "worker " << w;
    }
    const auto group = side->GroupOf(0);
    ASSERT_EQ(std::count(group.begin(), group.end(), 0), 0);
    ASSERT_EQ(std::count(group.begin(), group.end(), 1), 0);
  }
  for (WorkerIndex w = 0; w < instance.num_workers(); ++w) {
    ASSERT_EQ(actual.TaskOf(w), expected.TaskOf(w)) << "worker " << w;
  }
  // Task 0 still gets a seed from the ordinary workers.
  EXPECT_GE(actual.GroupSize(0), 3);
  EXPECT_EQ(HexFloat(TotalScore(instance, actual)),
            HexFloat(TotalScore(instance, expected)));
}

// ---------------------------------------------------------------------------
// Stage 2's JoinGainCache against GainOfJoining
// ---------------------------------------------------------------------------

TEST(JoinGainCacheTest, MatchesGainOfJoiningOnRandomGroups) {
  for (const bool multiskill : {false, true}) {
    for (const uint64_t seed : {1u, 2u, 3u, 4u}) {
      SyntheticInstanceConfig config;
      config.num_workers = 60;
      config.num_tasks = 12;
      config.task.capacity = 3 + static_cast<int>(seed % 4);
      config.min_group_size = 2 + static_cast<int>(seed % 3);
      if (multiskill) {
        config.worker.num_skills = 8;
        config.task.num_skills = 8;
        config.task.skills_per_task = 2;
      }
      Rng rng(seed);
      Instance instance = GenerateSyntheticInstance(config, 0.0, &rng);
      if (multiskill) instance.set_objective(&GetMultiSkillObjective());
      const std::string label = (multiskill ? "multiskill" : "casc") +
                                std::string(" seed ") + std::to_string(seed);

      // Open groups grow one random worker at a time, each growth a new
      // version; every state is priced for several joiners, so entries
      // are both filled and reused.
      JoinGainCache cache;
      cache.Reset(instance);
      std::vector<std::vector<WorkerIndex>> groups(
          static_cast<size_t>(instance.num_tasks()));
      std::vector<uint64_t> versions(groups.size(), 0);
      int64_t priced = 0;
      for (int step = 0; step < 600; ++step) {
        const TaskIndex t = static_cast<TaskIndex>(
            rng.UniformInt(static_cast<uint64_t>(instance.num_tasks())));
        std::vector<WorkerIndex>& group = groups[static_cast<size_t>(t)];
        const int capacity =
            instance.tasks()[static_cast<size_t>(t)].capacity;
        const WorkerIndex w = static_cast<WorkerIndex>(
            rng.UniformInt(static_cast<uint64_t>(instance.num_workers())));
        if (static_cast<int>(group.size()) == capacity ||
            std::find(group.begin(), group.end(), w) != group.end()) {
          continue;
        }
        const double want = GainOfJoining(instance, t, group, w);
        const double got = cache.Gain(instance, t, group, w,
                                      versions[static_cast<size_t>(t)]);
        ASSERT_EQ(HexFloat(got), HexFloat(want))
            << label << " step " << step << " task " << t;
        ++priced;
        if (static_cast<int>(group.size()) + 1 < capacity &&
            rng.Bernoulli(0.3)) {
          group.push_back(w);
          ++versions[static_cast<size_t>(t)];
        }
      }
      EXPECT_GT(priced, 400) << label;
    }
  }
}

}  // namespace
}  // namespace casc
