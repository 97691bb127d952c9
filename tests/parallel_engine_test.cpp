// The delta-evaluation kernel and the parallel assignment engine:
//  - keeper-backed StrategyUtility / ComputeBestResponse match the
//    from-scratch overloads (including the crowding/overfull branch)
//    through long random mutation sequences;
//  - keeper-aware ApplyMove keeps the keeper an exact mirror;
//  - ThreadPool runs every index exactly once, handing indices out one
//    at a time so a slow index holds up only the thread running it;
//  - the parallel replication fan-out folds to thread-count-independent
//    aggregates.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "algo/best_response.h"
#include "bench_util/replication.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "gen/synthetic.h"
#include "model/objective.h"
#include "model/score_keeper.h"

namespace casc {
namespace {

Instance RandomInstance(int workers, int tasks, uint64_t seed,
                        int capacity = 4, int min_group = 3) {
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
  return GenerateSyntheticInstance(config, 0.0, &rng);
}

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, [&](int64_t i) {
    hits[static_cast<size_t>(i)].fetch_add(1);
  });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPoolTest, HandlesFewerItemsThanThreads) {
  ThreadPool pool(8);
  std::atomic<int> total{0};
  pool.ParallelFor(3, [&](int64_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 3);
  pool.ParallelFor(0, [&](int64_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 3);
}

TEST(ThreadPoolTest, SingleThreadRunsInlineWithoutSpawning) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  bool all_inline = true;
  pool.ParallelFor(64, [&](int64_t) {
    if (std::this_thread::get_id() != caller) all_inline = false;
  });
  EXPECT_TRUE(all_inline);
}

TEST(ThreadPoolTest, IsReusableAcrossManyCalls) {
  ThreadPool pool(3);
  int64_t sum = 0;
  std::mutex mutex;
  for (int call = 0; call < 50; ++call) {
    pool.ParallelFor(17, [&](int64_t i) {
      std::lock_guard<std::mutex> lock(mutex);
      sum += i;
    });
  }
  EXPECT_EQ(sum, 50 * (16 * 17) / 2);
}

TEST(ThreadPoolTest, SlowIndexDoesNotHoldBackTheRest) {
  // Index 0 waits until every other index has run. Fixed contiguous
  // chunks would queue index 1 behind index 0 on the same thread and the
  // wait would time out; claimed indices let the other thread drain them.
  ThreadPool pool(2);
  std::mutex mutex;
  std::condition_variable cv;
  int others_done = 0;
  bool waited = false;
  pool.ParallelFor(4, [&](int64_t i) {
    std::unique_lock<std::mutex> lock(mutex);
    if (i == 0) {
      waited = cv.wait_for(lock, std::chrono::seconds(30),
                           [&] { return others_done == 3; });
    } else {
      ++others_done;
      cv.notify_all();
    }
  });
  EXPECT_TRUE(waited);
  EXPECT_EQ(others_done, 3);
}

// ---------------------------------------------------------------------------
// Delta evaluation vs. from-scratch objective
// ---------------------------------------------------------------------------

class DeltaSeedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DeltaSeedTest, StrategyUtilityMatchesScratchUnderChurn) {
  const Instance instance = RandomInstance(50, 15, GetParam());
  Assignment assignment(instance);
  ScoreKeeper keeper(instance, assignment);
  Rng rng(GetParam() ^ 0xDE17A);

  int overfull_checked = 0;
  for (int step = 0; step < 500; ++step) {
    // Random keeper-tracked move (possibly a crowding one).
    const WorkerIndex mover = static_cast<WorkerIndex>(
        rng.UniformInt(static_cast<uint64_t>(instance.num_workers())));
    const auto& valid = instance.ValidTasks(mover);
    if (!valid.empty() && rng.Bernoulli(0.9)) {
      const TaskIndex target =
          valid[rng.UniformInt(static_cast<uint64_t>(valid.size()))];
      ApplyMove(instance, &assignment, &keeper, mover, target);
    } else {
      ApplyMove(instance, &assignment, &keeper, mover, kNoTask);
    }

    // Probe: every valid strategy of a random worker, both paths.
    const WorkerIndex w = static_cast<WorkerIndex>(
        rng.UniformInt(static_cast<uint64_t>(instance.num_workers())));
    for (const TaskIndex t : instance.ValidTasks(w)) {
      WorkerIndex crowded_scratch = kNoWorker;
      WorkerIndex crowded_delta = kNoWorker;
      const double scratch =
          StrategyUtility(instance, assignment, w, t, &crowded_scratch);
      const double delta = StrategyUtility(instance, keeper, assignment, w,
                                           t, &crowded_delta);
      ASSERT_NEAR(delta, scratch, 1e-9)
          << "step " << step << " worker " << w << " task " << t;
      ASSERT_EQ(crowded_delta, crowded_scratch)
          << "step " << step << " worker " << w << " task " << t;
      if (assignment.TaskOf(w) != t &&
          assignment.GroupSize(t) >=
              instance.tasks()[static_cast<size_t>(t)].capacity) {
        ++overfull_checked;
      }
    }
  }
  // The crowding fallback must actually have been exercised.
  EXPECT_GT(overfull_checked, 0);
}

TEST_P(DeltaSeedTest, BestResponseMatchesScratch) {
  const Instance instance = RandomInstance(60, 20, GetParam() ^ 0xB57);
  Assignment assignment(instance);
  ScoreKeeper keeper(instance, assignment);
  Rng rng(GetParam() ^ 0xF00);

  for (int step = 0; step < 300; ++step) {
    const WorkerIndex mover = static_cast<WorkerIndex>(
        rng.UniformInt(static_cast<uint64_t>(instance.num_workers())));
    const auto& valid = instance.ValidTasks(mover);
    if (valid.empty()) continue;
    ApplyMove(instance, &assignment, &keeper, mover,
              valid[rng.UniformInt(static_cast<uint64_t>(valid.size()))]);

    const WorkerIndex w = static_cast<WorkerIndex>(
        rng.UniformInt(static_cast<uint64_t>(instance.num_workers())));
    const BestResponse scratch = ComputeBestResponse(instance, assignment, w);
    const BestResponse delta =
        ComputeBestResponse(instance, keeper, assignment, w);
    ASSERT_EQ(delta.task, scratch.task) << "step " << step;
    ASSERT_NEAR(delta.utility, scratch.utility, 1e-9) << "step " << step;
    ASSERT_EQ(delta.crowded_out, scratch.crowded_out) << "step " << step;
  }
}

TEST_P(DeltaSeedTest, TrackedApplyMoveKeepsKeeperAnExactMirror) {
  const Instance instance = RandomInstance(50, 15, GetParam() ^ 0x3A7);
  Assignment assignment(instance);
  ScoreKeeper keeper(instance, assignment);
  Rng rng(GetParam() ^ 0x919);

  for (int step = 0; step < 400; ++step) {
    const WorkerIndex w = static_cast<WorkerIndex>(
        rng.UniformInt(static_cast<uint64_t>(instance.num_workers())));
    const auto& valid = instance.ValidTasks(w);
    if (!valid.empty() && rng.Bernoulli(0.85)) {
      ApplyMove(instance, &assignment, &keeper, w,
                valid[rng.UniformInt(static_cast<uint64_t>(valid.size()))]);
    } else {
      ApplyMove(instance, &assignment, &keeper, w, kNoTask);
    }
  }
  for (TaskIndex t = 0; t < instance.num_tasks(); ++t) {
    const std::span<const WorkerIndex> keeper_group = keeper.GroupOf(t);
    const std::span<const WorkerIndex> assigned_group = assignment.GroupOf(t);
    EXPECT_TRUE(std::equal(keeper_group.begin(), keeper_group.end(),
                           assigned_group.begin(), assigned_group.end()))
        << "task " << t;
    EXPECT_NEAR(keeper.TaskScore(t),
                GroupScore(instance, t, assignment.GroupOf(t)), 1e-9)
        << "task " << t;
  }
  EXPECT_NEAR(keeper.TotalScore(), TotalScore(instance, assignment), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeltaSeedTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// ---------------------------------------------------------------------------
// Parallel replication fan-out
// ---------------------------------------------------------------------------

TEST(ParallelReplicationTest, AggregatesAreThreadCountIndependent) {
  ExperimentSettings settings;
  settings.num_workers = 60;
  settings.num_tasks = 20;
  settings.rounds = 2;
  const std::vector<ApproachId> approaches = {ApproachId::kTpg,
                                              ApproachId::kGt};
  const std::vector<uint64_t> seeds = {7u, 8u, 9u};

  const auto serial =
      RunReplications(settings, DataKind::kSynthetic, approaches, seeds, 1);
  const auto parallel =
      RunReplications(settings, DataKind::kSynthetic, approaches, seeds, 3);

  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t a = 0; a < serial.size(); ++a) {
    EXPECT_EQ(serial[a].name, parallel[a].name);
    EXPECT_EQ(serial[a].score.Count(), parallel[a].score.Count());
    EXPECT_DOUBLE_EQ(serial[a].score.Mean(), parallel[a].score.Mean());
    EXPECT_DOUBLE_EQ(serial[a].score.Min(), parallel[a].score.Min());
    EXPECT_DOUBLE_EQ(serial[a].score.Max(), parallel[a].score.Max());
  }
}

}  // namespace
}  // namespace casc
