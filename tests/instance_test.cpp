#include <gtest/gtest.h>

#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "gen/synthetic.h"
#include "model/batch_workspace.h"
#include "model/instance.h"

namespace casc {
namespace {

// ---------------------------------------------------------------------------
// Validity semantics (Definition 3)
// ---------------------------------------------------------------------------

TEST(InstanceTest, PairValidityRespectsRadius) {
  std::vector<Worker> workers = {
      Worker{0, {0.0, 0.0}, 1.0, 0.3, 0.0},   // fast but short radius
      Worker{1, {0.0, 0.0}, 1.0, 0.9, 0.0}};  // long radius
  std::vector<Task> tasks = {Task{0, {0.5, 0.0}, 0.0, 10.0, 2}};
  Instance instance(std::move(workers), std::move(tasks),
                    CooperationMatrix(2, 0.5), 0.0, 2);
  EXPECT_FALSE(instance.IsValidPair(0, 0));  // 0.5 > 0.3
  EXPECT_TRUE(instance.IsValidPair(1, 0));
}

TEST(InstanceTest, PairValidityRespectsDeadline) {
  std::vector<Worker> workers = {
      Worker{0, {0.0, 0.0}, 0.1, 1.0, 0.0},   // needs 5 time units
      Worker{1, {0.0, 0.0}, 0.5, 1.0, 0.0}};  // needs 1 time unit
  std::vector<Task> tasks = {Task{0, {0.5, 0.0}, 0.0, 2.0, 2}};
  Instance instance(std::move(workers), std::move(tasks),
                    CooperationMatrix(2, 0.5), 0.0, 2);
  EXPECT_FALSE(instance.IsValidPair(0, 0));
  EXPECT_TRUE(instance.IsValidPair(1, 0));
}

TEST(InstanceTest, PairValidityRespectsPresence) {
  std::vector<Worker> workers = {
      Worker{0, {0.5, 0.5}, 1.0, 1.0, 5.0}};  // arrives at t=5
  std::vector<Task> tasks = {Task{0, {0.5, 0.5}, 0.0, 10.0, 2},
                             Task{1, {0.5, 0.5}, 4.0, 10.0, 2}};
  {
    // Batch at t=1: the worker is not there yet.
    Instance instance({workers[0]}, tasks, CooperationMatrix(1, 0.5), 1.0,
                      2);
    EXPECT_FALSE(instance.IsValidPair(0, 0));
  }
  {
    // Batch at t=6: worker present, both tasks created.
    Instance instance({workers[0]}, tasks, CooperationMatrix(1, 0.5), 6.0,
                      2);
    EXPECT_TRUE(instance.IsValidPair(0, 0));
    EXPECT_TRUE(instance.IsValidPair(0, 1));
  }
}

TEST(InstanceTest, FutureTaskNotValid) {
  std::vector<Worker> workers = {Worker{0, {0.5, 0.5}, 1.0, 1.0, 0.0}};
  std::vector<Task> tasks = {Task{0, {0.5, 0.5}, 3.0, 10.0, 2}};
  Instance instance(std::move(workers), std::move(tasks),
                    CooperationMatrix(1, 0.5), 1.0, 2);
  EXPECT_FALSE(instance.IsValidPair(0, 0));
}

TEST(InstanceTest, DeadlineCountsFromNowNotCreation) {
  // Worker needs 3 units; at now=0 the deadline (4) is reachable, at
  // now=2 it no longer is.
  std::vector<Worker> workers = {Worker{0, {0.0, 0.0}, 0.1, 1.0, 0.0}};
  std::vector<Task> tasks = {Task{0, {0.3, 0.0}, 0.0, 4.0, 2}};
  {
    Instance instance(workers, tasks, CooperationMatrix(1, 0.5), 0.0, 2);
    EXPECT_TRUE(instance.IsValidPair(0, 0));
  }
  {
    Instance instance(workers, tasks, CooperationMatrix(1, 0.5), 2.0, 2);
    EXPECT_FALSE(instance.IsValidPair(0, 0));
  }
}

// ---------------------------------------------------------------------------
// ComputeValidPairs vs Definition 3 per pair (property test)
// ---------------------------------------------------------------------------

struct ValidPairCase {
  std::string name;
  int workers;
  int tasks;
  uint64_t seed;
  bool skewed = false;  ///< SKEW locations instead of UNIF
  double scale = 1.0;   ///< locations, radii and speeds multiplied by this
  double offset = 0.0;  ///< then locations shifted by this
};

/// A synthetic one-batch instance under `c`, valid pairs not yet built.
Instance MakeValidPairInstance(const ValidPairCase& c) {
  Rng rng(c.seed);
  SyntheticInstanceConfig config;
  config.num_workers = c.workers;
  config.num_tasks = c.tasks;
  config.min_group_size = 2;
  config.task.capacity = 3;
  if (c.skewed) {
    config.worker.spatial.distribution = LocationDistribution::kSkewed;
    config.task.spatial.distribution = LocationDistribution::kSkewed;
  }
  const Instance base = GenerateSyntheticInstance(config, 0.0, &rng);
  const auto transform = [&](Point p) {
    return Point{p.x * c.scale + c.offset, p.y * c.scale + c.offset};
  };
  std::vector<Worker> workers = base.workers();
  for (Worker& worker : workers) {
    worker.location = transform(worker.location);
    worker.radius *= c.scale;
    worker.speed *= c.scale;
  }
  std::vector<Task> tasks = base.tasks();
  for (Task& task : tasks) task.location = transform(task.location);
  return Instance(std::move(workers), std::move(tasks), base.coop(),
                  base.now(), base.min_group_size());
}

/// (case, build through a BatchWorkspace)
class ValidPairsTest
    : public ::testing::TestWithParam<std::tuple<ValidPairCase, bool>> {};

TEST_P(ValidPairsTest, MatchesIsValidPair) {
  const auto& [param, use_workspace] = GetParam();
  Instance instance = MakeValidPairInstance(param);
  BatchWorkspace workspace;
  instance.ComputeValidPairs(use_workspace ? &workspace : nullptr);

  size_t total = 0;
  std::vector<std::vector<WorkerIndex>> want_candidates(
      static_cast<size_t>(instance.num_tasks()));
  for (WorkerIndex w = 0; w < instance.num_workers(); ++w) {
    std::vector<TaskIndex> want;
    for (TaskIndex t = 0; t < instance.num_tasks(); ++t) {
      if (!instance.IsValidPair(w, t)) continue;
      want.push_back(t);
      want_candidates[static_cast<size_t>(t)].push_back(w);
    }
    const std::span<const TaskIndex> got = instance.ValidTasks(w);
    EXPECT_EQ(std::vector<TaskIndex>(got.begin(), got.end()), want)
        << "worker " << w;
    total += want.size();
  }
  EXPECT_GT(total, 0u) << "a case with no valid pair checks nothing";
  EXPECT_EQ(instance.NumValidPairs(), total);

  // Candidates is the exact transpose of ValidTasks.
  for (TaskIndex t = 0; t < instance.num_tasks(); ++t) {
    const std::span<const WorkerIndex> got = instance.Candidates(t);
    EXPECT_EQ(std::vector<WorkerIndex>(got.begin(), got.end()),
              want_candidates[static_cast<size_t>(t)])
        << "task " << t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomInstances, ValidPairsTest,
    ::testing::Combine(
        ::testing::Values(
            // Fewer than 16 tasks: the task grid is a single cell.
            ValidPairCase{"one_cell", 80, 12, 1},
            ValidPairCase{"small", 30, 40, 2},
            ValidPairCase{"medium", 150, 60, 3},
            ValidPairCase{"wide", 50, 200, 4},
            // More than 64 x 64 tasks: the cell count is capped.
            ValidPairCase{"capped", 30, 5000, 5},
            ValidPairCase{"skew", 150, 400, 6, /*skewed=*/true},
            // Far outside the unit square: the grid spans the box.
            ValidPairCase{"scaled_negative", 150, 200, 7, false, 1000.0,
                          -5000.0}),
        ::testing::Bool()),
    [](const ::testing::TestParamInfo<ValidPairsTest::ParamType>& info) {
      return std::get<0>(info.param).name +
             (std::get<1>(info.param) ? "_workspace" : "_fresh");
    });

// ---------------------------------------------------------------------------
// The pooled valid-pair build against the inline one
// ---------------------------------------------------------------------------

/// `base` rebuilt with its valid pairs not yet computed; every `future`-th
/// worker arrives, and every `future`-th task is created, after `now`.
Instance CopyWithFuture(const Instance& base, int future) {
  std::vector<Worker> workers = base.workers();
  std::vector<Task> tasks = base.tasks();
  if (future > 0) {
    for (size_t i = 0; i < workers.size(); i += static_cast<size_t>(future)) {
      workers[i].arrival_time = base.now() + 1.0;
    }
    for (size_t j = 1; j < tasks.size(); j += static_cast<size_t>(future)) {
      tasks[j].create_time = base.now() + 0.5;
    }
  }
  return Instance(std::move(workers), std::move(tasks), base.coop(),
                  base.now(), base.min_group_size());
}

/// (case, every how many workers and tasks lie in the future; 0 = none)
class PooledValidPairsTest
    : public ::testing::TestWithParam<std::tuple<ValidPairCase, int>> {};

TEST_P(PooledValidPairsTest, EveryPoolBuildsTheInlineIndex) {
  const auto& [param, future] = GetParam();
  const Instance base = MakeValidPairInstance(param);
  Instance inline_build = CopyWithFuture(base, future);
  inline_build.ComputeValidPairs();
  const ValidPairIndex want = inline_build.ReleaseValidPairs();
  if (param.workers > 0 && param.tasks > 0) {
    EXPECT_GT(want.NumValidPairs(), 0u) << "no pair would check little";
  }

  // One workspace across every pool: each pooled build refills the index
  // the build before it recycled.
  BatchWorkspace workspace;
  for (const int threads : {1, 2, 3, 4, 7}) {
    ThreadPool pool(threads);
    for (BatchWorkspace* use : {static_cast<BatchWorkspace*>(nullptr),
                                &workspace}) {
      Instance pooled = CopyWithFuture(base, future);
      pooled.ComputeValidPairs(use, &pool);
      ValidPairIndex got = pooled.ReleaseValidPairs();
      EXPECT_TRUE(got.SameAs(want))
          << "threads=" << threads << (use != nullptr ? " workspace" : "");
      if (use != nullptr) use->Recycle(std::move(got));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomInstances, PooledValidPairsTest,
    ::testing::Combine(
        ::testing::Values(
            // At least 256 workers per chunk, so 7 threads run 7 chunks.
            ValidPairCase{"unif", 1900, 300, 11},
            ValidPairCase{"skew", 1900, 500, 12, /*skewed=*/true},
            ValidPairCase{"far", 1900, 300, 13, false, 1000.0, -5000.0},
            // Fewer workers than a chunk needs: one chunk at any width.
            ValidPairCase{"small", 300, 80, 14},
            ValidPairCase{"no_workers", 0, 50, 15},
            ValidPairCase{"no_tasks", 600, 0, 16}),
        ::testing::Values(0, 3)),
    [](const ::testing::TestParamInfo<PooledValidPairsTest::ParamType>&
           info) {
      return std::get<0>(info.param).name +
             (std::get<1>(info.param) > 0 ? "_future" : "_present");
    });

TEST(InstanceTest, ComputeValidPairsIsIdempotent) {
  Rng rng(9);
  SyntheticInstanceConfig config;
  config.num_workers = 20;
  config.num_tasks = 10;
  Instance instance = GenerateSyntheticInstance(config, 0.0, &rng);
  const size_t first = instance.NumValidPairs();
  instance.ComputeValidPairs();
  EXPECT_EQ(instance.NumValidPairs(), first);
}

TEST(InstanceTest, AccessorsExposeInputs) {
  std::vector<Worker> workers = {Worker{7, {0.1, 0.2}, 0.3, 0.4, 0.5}};
  std::vector<Task> tasks = {Task{9, {0.6, 0.7}, 0.0, 2.0, 4}};
  Instance instance(std::move(workers), std::move(tasks),
                    CooperationMatrix(1, 0.5), 1.0, 3);
  EXPECT_EQ(instance.num_workers(), 1);
  EXPECT_EQ(instance.num_tasks(), 1);
  EXPECT_DOUBLE_EQ(instance.now(), 1.0);
  EXPECT_EQ(instance.min_group_size(), 3);
  EXPECT_EQ(instance.workers()[0].id, 7);
  EXPECT_EQ(instance.tasks()[0].id, 9);
  EXPECT_FALSE(instance.valid_pairs_ready());
}

}  // namespace
}  // namespace casc
