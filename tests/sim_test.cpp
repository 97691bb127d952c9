#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "algo/tpg_assigner.h"
#include "common/rng.h"
#include "model/objective.h"
#include "service/dispatch_service.h"
#include "sim/event_stream.h"
#include "sim/metrics.h"
#include "sim/rating_model.h"

namespace casc {
namespace {

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

TEST(MetricsTest, SummaryAggregates) {
  RunSummary summary;
  BatchMetrics a;
  a.score = 10.0;
  a.seconds = 0.5;
  a.upper_bound = 20.0;
  a.assigned_workers = 7;
  a.completed_tasks = 2;
  BatchMetrics b;
  b.score = 30.0;
  b.seconds = 1.5;
  b.upper_bound = 40.0;
  b.assigned_workers = 3;
  b.completed_tasks = 1;
  summary.batches = {a, b};
  EXPECT_DOUBLE_EQ(summary.TotalScore(), 40.0);
  EXPECT_DOUBLE_EQ(summary.TotalUpperBound(), 60.0);
  EXPECT_DOUBLE_EQ(summary.AvgBatchSeconds(), 1.0);
  EXPECT_DOUBLE_EQ(summary.MaxBatchSeconds(), 1.5);
  EXPECT_EQ(summary.TotalAssignedWorkers(), 10);
  EXPECT_EQ(summary.TotalCompletedTasks(), 3);
}

TEST(MetricsTest, EmptySummary) {
  RunSummary summary;
  EXPECT_DOUBLE_EQ(summary.TotalScore(), 0.0);
  EXPECT_DOUBLE_EQ(summary.AvgBatchSeconds(), 0.0);
  EXPECT_DOUBLE_EQ(summary.MaxBatchSeconds(), 0.0);
}

TEST(MetricsTest, RecordBatchOutcomeFillsOnlyOutcomeFields) {
  // Four co-located workers and two tasks: task 0 gets a full group of
  // three, task 1 a lone worker (below B = 3, so not completed).
  std::vector<Worker> workers;
  for (int i = 0; i < 4; ++i) {
    workers.push_back(Worker{i, {0.5, 0.5}, 1.0, 1.0, 0.0});
  }
  std::vector<Task> tasks = {Task{0, {0.5, 0.5}, 0.0, 9.0, 3},
                             Task{1, {0.5, 0.5}, 0.0, 9.0, 3}};
  Instance instance(std::move(workers), std::move(tasks),
                    CooperationMatrix(4, 0.5), 0.0, 3);
  instance.ComputeValidPairs();
  Assignment assignment(instance);
  assignment.Assign(0, 0);
  assignment.Assign(1, 0);
  assignment.Assign(2, 0);
  assignment.Assign(3, 1);

  BatchMetrics metrics;
  metrics.round = 7;
  metrics.seconds = 0.25;
  metrics.completed_tasks = 99;  // overwritten, not accumulated
  RecordBatchOutcome(instance, assignment, &metrics);
  EXPECT_EQ(metrics.num_workers, 4);
  EXPECT_EQ(metrics.num_tasks, 2);
  EXPECT_EQ(metrics.valid_pairs, 8);
  EXPECT_EQ(metrics.assigned_workers, 4);
  EXPECT_EQ(metrics.completed_tasks, 1);
  EXPECT_EQ(metrics.score, TotalScore(instance, assignment));
  EXPECT_GT(metrics.score, 0.0);
  EXPECT_EQ(metrics.round, 7);
  EXPECT_EQ(metrics.seconds, 0.25);
}

TEST(MetricsTest, MeanAndStdDev) {
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Mean({2.0, 4.0}), 3.0);
  EXPECT_DOUBLE_EQ(StdDev({5.0}), 0.0);
  EXPECT_NEAR(StdDev({2.0, 4.0}), std::sqrt(2.0), 1e-12);
}

// ---------------------------------------------------------------------------
// EventStream
// ---------------------------------------------------------------------------

TEST(EventStreamTest, SortsAndSlicesArrivals) {
  std::vector<Worker> workers = {Worker{0, {0, 0}, 1, 1, 3.0},
                                 Worker{1, {0, 0}, 1, 1, 1.0},
                                 Worker{2, {0, 0}, 1, 1, 2.0}};
  std::vector<Task> tasks = {Task{0, {0, 0}, 2.5, 5.0, 3},
                             Task{1, {0, 0}, 0.5, 5.0, 3}};
  const EventStream stream(std::move(workers), std::move(tasks));
  EXPECT_DOUBLE_EQ(stream.FirstEventTime(), 0.5);
  EXPECT_DOUBLE_EQ(stream.LastEventTime(), 3.0);

  const auto early = stream.WorkersArrivingIn(0.0, 2.0);
  ASSERT_EQ(early.size(), 1u);
  EXPECT_EQ(early[0].id, 1);

  const auto later = stream.WorkersArrivingIn(2.0, 3.5);
  ASSERT_EQ(later.size(), 2u);
  EXPECT_EQ(later[0].id, 2);
  EXPECT_EQ(later[1].id, 0);

  EXPECT_EQ(stream.TasksArrivingIn(0.0, 1.0).size(), 1u);
  EXPECT_EQ(stream.TasksArrivingIn(0.0, 3.0).size(), 2u);
}

TEST(EventStreamTest, EmptyStream) {
  const EventStream stream({}, {});
  EXPECT_DOUBLE_EQ(stream.FirstEventTime(), 0.0);
  EXPECT_DOUBLE_EQ(stream.LastEventTime(), 0.0);
  EXPECT_TRUE(stream.WorkersArrivingIn(0, 100).empty());
}

TEST(EventStreamTest, HalfOpenIntervals) {
  std::vector<Worker> workers = {Worker{0, {0, 0}, 1, 1, 2.0}};
  const EventStream stream(std::move(workers), {});
  EXPECT_EQ(stream.WorkersArrivingIn(0.0, 2.0).size(), 0u);  // [0, 2)
  EXPECT_EQ(stream.WorkersArrivingIn(2.0, 3.0).size(), 1u);  // [2, 3)
}

TEST(EventStreamTest, EventExactlyAtToIsExcluded) {
  // Both event kinds sitting exactly on the `to` boundary stay out of
  // [from, to) and fall into the next window.
  std::vector<Worker> workers = {Worker{0, {0, 0}, 1, 1, 5.0}};
  std::vector<Task> tasks = {Task{0, {0, 0}, 5.0, 9.0, 3}};
  const EventStream stream(std::move(workers), std::move(tasks));
  EXPECT_TRUE(stream.WorkersArrivingIn(0.0, 5.0).empty());
  EXPECT_TRUE(stream.TasksArrivingIn(0.0, 5.0).empty());
  EXPECT_EQ(stream.WorkersArrivingIn(5.0, 6.0).size(), 1u);
  EXPECT_EQ(stream.TasksArrivingIn(5.0, 6.0).size(), 1u);
}

TEST(EventStreamTest, FromEqualsToIsEmpty) {
  std::vector<Worker> workers = {Worker{0, {0, 0}, 1, 1, 2.0}};
  std::vector<Task> tasks = {Task{0, {0, 0}, 2.0, 9.0, 3}};
  const EventStream stream(std::move(workers), std::move(tasks));
  // [t, t) is empty even with an event exactly at t.
  EXPECT_TRUE(stream.WorkersArrivingIn(2.0, 2.0).empty());
  EXPECT_TRUE(stream.TasksArrivingIn(2.0, 2.0).empty());
}

TEST(EventStreamTest, EmptyStreamEdgeQueries) {
  const EventStream stream({}, {});
  EXPECT_TRUE(stream.WorkersArrivingIn(0.0, 0.0).empty());
  EXPECT_TRUE(stream.TasksArrivingIn(-1.0, 1.0).empty());
  EXPECT_TRUE(stream.HasDenseWorkerIds());  // vacuously dense
}

TEST(EventStreamTest, HasDenseWorkerIds) {
  // A permutation of 0..n-1 (in scrambled arrival order) is dense.
  std::vector<Worker> dense = {Worker{2, {0, 0}, 1, 1, 3.0},
                               Worker{0, {0, 0}, 1, 1, 1.0},
                               Worker{1, {0, 0}, 1, 1, 2.0}};
  EXPECT_TRUE(EventStream(std::move(dense), {}).HasDenseWorkerIds());

  std::vector<Worker> duplicate = {Worker{0, {0, 0}, 1, 1, 1.0},
                                   Worker{0, {0, 0}, 1, 1, 2.0}};
  EXPECT_FALSE(EventStream(std::move(duplicate), {}).HasDenseWorkerIds());

  std::vector<Worker> gap = {Worker{0, {0, 0}, 1, 1, 1.0},
                             Worker{2, {0, 0}, 1, 1, 2.0}};
  EXPECT_FALSE(EventStream(std::move(gap), {}).HasDenseWorkerIds());

  std::vector<Worker> negative = {Worker{-1, {0, 0}, 1, 1, 1.0}};
  EXPECT_FALSE(EventStream(std::move(negative), {}).HasDenseWorkerIds());
}

TEST(MetricsTest, BatchToJsonContainsFields) {
  BatchMetrics batch;
  batch.round = 3;
  batch.now = 1.5;
  batch.num_workers = 10;
  batch.num_tasks = 4;
  batch.score = 2.25;
  const std::string json = ToJson(batch);
  EXPECT_NE(json.find("\"round\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"num_workers\":10"), std::string::npos) << json;
  EXPECT_NE(json.find("\"score\":2.25"), std::string::npos) << json;
}

TEST(MetricsTest, SummaryToJsonHasAggregatesAndBatches) {
  RunSummary summary;
  BatchMetrics batch;
  batch.score = 1.0;
  summary.batches = {batch, batch};
  const std::string json = ToJson(summary);
  EXPECT_NE(json.find("\"total_score\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"batches\":["), std::string::npos) << json;
  // Two batch objects inside the array.
  const size_t first = json.find("\"round\":0");
  ASSERT_NE(first, std::string::npos) << json;
  EXPECT_NE(json.find("\"round\":0", first + 1), std::string::npos) << json;
}

// ---------------------------------------------------------------------------
// Streaming mode (Algorithm 1): the dispatch service at one shard with no
// admission budget
// ---------------------------------------------------------------------------

RunSummary RunStream(const EventStream& stream, const CooperationMatrix& coop,
                     AssignerFactory factory, double task_duration = 1.0) {
  DispatchConfig config;
  config.sharded.shards_per_side = 1;
  config.min_group_size = 3;
  config.task_duration = task_duration;
  DispatchService service(config, &coop, std::move(factory));
  return service.Run(stream);
}

AssignerFactory Tpg() {
  return [] { return std::make_unique<TpgAssigner>(); };
}

/// Builds a streaming scenario: `m` workers arriving across [0, horizon),
/// `n` tasks likewise, on a single global cooperation matrix.
struct StreamingFixture {
  std::vector<Worker> workers;
  std::vector<Task> tasks;
  CooperationMatrix coop;

  StreamingFixture(int m, int n, double horizon, uint64_t seed)
      : coop(m) {
    Rng rng(seed);
    for (int i = 0; i < m; ++i) {
      Worker worker;
      worker.id = i;  // global index, required by the streaming loop
      worker.location = {rng.Uniform(), rng.Uniform()};
      worker.speed = 0.2;
      worker.radius = 0.5;
      worker.arrival_time = rng.Uniform(0.0, horizon);
      workers.push_back(worker);
    }
    for (int j = 0; j < n; ++j) {
      Task task;
      task.id = j;
      task.location = {rng.Uniform(), rng.Uniform()};
      task.create_time = rng.Uniform(0.0, horizon);
      task.deadline = task.create_time + 3.0;
      task.capacity = 4;
      tasks.push_back(task);
    }
    for (int i = 0; i < m; ++i) {
      for (int k = i + 1; k < m; ++k) {
        coop.SetSymmetric(i, k, rng.Uniform());
      }
    }
  }
};

TEST(StreamingLoopTest, ProcessesArrivals) {
  const StreamingFixture fixture(60, 20, 5.0, 77);
  const EventStream stream(fixture.workers, fixture.tasks);
  const RunSummary summary = RunStream(stream, fixture.coop, Tpg());
  EXPECT_GT(summary.batches.size(), 0u);
  EXPECT_GT(summary.TotalScore(), 0.0);
  // A worker can serve at most one task per batch; totals stay bounded.
  EXPECT_LE(summary.TotalAssignedWorkers(),
            static_cast<int64_t>(summary.batches.size()) * 60);
}

TEST(StreamingLoopTest, RespectsDeadlinesAcrossBatches) {
  // One task with a deadline before the second batch: it must never be
  // assigned after expiring.
  std::vector<Worker> workers = {Worker{0, {0.5, 0.5}, 0.001, 1.0, 0.0},
                                 Worker{1, {0.5, 0.5}, 0.001, 1.0, 0.0},
                                 Worker{2, {0.5, 0.5}, 0.001, 1.0, 0.0}};
  // Too slow to reach (0.9, 0.9) in time; only the co-located task works.
  std::vector<Task> tasks = {Task{0, {0.5, 0.5}, 0.0, 0.5, 3},
                             Task{1, {0.9, 0.9}, 0.0, 10.0, 3}};
  CooperationMatrix coop(3, 0.8);
  const EventStream stream(workers, tasks);
  const RunSummary summary = RunStream(stream, coop, Tpg());
  // Task 0 (deadline 0.5) is assignable only in the first batch (t=0).
  for (const auto& batch : summary.batches) {
    if (batch.now > 0.5) {
      EXPECT_EQ(batch.num_tasks, 1) << "expired task still in pool";
    }
  }
}

TEST(StreamingLoopTest, WorkersReturnAfterTaskDuration) {
  // 3 workers, 2 identical tasks appearing at t=0 and t=2. With task
  // duration 1 and batch interval 1, the same workers can serve both.
  std::vector<Worker> workers = {Worker{0, {0.5, 0.5}, 1.0, 1.0, 0.0},
                                 Worker{1, {0.5, 0.5}, 1.0, 1.0, 0.0},
                                 Worker{2, {0.5, 0.5}, 1.0, 1.0, 0.0}};
  std::vector<Task> tasks = {Task{0, {0.5, 0.5}, 0.0, 5.0, 3},
                             Task{1, {0.5, 0.5}, 2.0, 12.0, 3}};
  CooperationMatrix coop(3, 0.9);
  const EventStream stream(workers, tasks);
  const RunSummary summary =
      RunStream(stream, coop, Tpg(), /*task_duration=*/1.0);
  EXPECT_EQ(summary.TotalCompletedTasks(), 2);
}

// ---------------------------------------------------------------------------
// RatingModel / QualityLearningLoop (the Equation-1 feedback loop)
// ---------------------------------------------------------------------------

CooperationMatrix RandomTruth(int m, uint64_t seed) {
  Rng rng(seed);
  CooperationMatrix truth(m);
  for (int i = 0; i < m; ++i) {
    for (int k = i + 1; k < m; ++k) {
      truth.SetSymmetric(i, k, rng.Uniform());
    }
  }
  return truth;
}

TEST(RatingModelTest, NoiselessRatingEqualsTrueQuality) {
  CooperationMatrix truth(3);
  truth.SetSymmetric(0, 1, 0.8);
  truth.SetSymmetric(0, 2, 0.4);
  truth.SetSymmetric(1, 2, 0.6);
  RatingModel model(std::move(truth), /*noise_stddev=*/0.0, 1);
  EXPECT_NEAR(model.RateTeam({0, 1, 2}), (0.8 + 0.4 + 0.6) / 3.0, 1e-12);
  EXPECT_NEAR(model.RateTeam({0, 1}), 0.8, 1e-12);
}

TEST(RatingModelTest, NoisyRatingsStayInUnitInterval) {
  RatingModel model(RandomTruth(5, 2), /*noise_stddev=*/0.5, 3);
  for (int i = 0; i < 200; ++i) {
    const double rating = model.RateTeam({0, 1, 2});
    EXPECT_GE(rating, 0.0);
    EXPECT_LE(rating, 1.0);
  }
}

TEST(RatingModelTest, AsymmetricTruthAveragesBothDirections) {
  CooperationMatrix truth(2);
  truth.SetQuality(0, 1, 1.0);
  truth.SetQuality(1, 0, 0.0);
  RatingModel model(std::move(truth), 0.0, 4);
  EXPECT_NEAR(model.TrueTeamQuality({0, 1}), 0.5, 1e-12);
}

TEST(LearningLoopTest, EstimatesConvergeTowardTruth) {
  const int m = 12;
  QualityLearningLoop loop(RandomTruth(m, 7), /*alpha=*/0.2,
                           /*omega=*/0.5, /*noise_stddev=*/0.02, 8);
  const double initial_error = loop.EstimationError();

  // Rate every pair repeatedly; the history term dominates (alpha=0.2).
  Rng rng(9);
  for (int wave = 0; wave < 30; ++wave) {
    std::vector<std::vector<int>> teams;
    for (int i = 0; i < m; i += 3) {
      // Shifting team composition so all pairs eventually co-occur.
      const int a = (i + wave) % m;
      const int b = (i + wave + 1) % m;
      const int c = (i + wave + 2) % m;
      teams.push_back({a, b, c});
    }
    loop.RecordWave(teams);
  }
  EXPECT_LT(loop.EstimationError(), initial_error);
}

TEST(LearningLoopTest, WaveResultCountsAndScores) {
  QualityLearningLoop loop(RandomTruth(6, 11), 0.5, 0.5, 0.0, 12);
  const WaveResult result =
      loop.RecordWave({{0, 1, 2}, {3, 4}, {5}});  // last team too small
  EXPECT_EQ(result.teams_rated, 2);
  EXPECT_GT(result.actual_score, 0.0);
  // Before any history, the belief is uniformly omega = 0.5.
  EXPECT_NEAR(result.believed_score, 0.5 * 3 + 0.5 * 2, 1e-9);
}

TEST(LearningLoopTest, BelievedQualitiesStartAtOmega) {
  QualityLearningLoop loop(RandomTruth(4, 13), 0.5, 0.7, 0.1, 14);
  const CooperationMatrix believed = loop.BelievedQualities();
  for (int i = 0; i < 4; ++i) {
    for (int k = 0; k < 4; ++k) {
      if (i != k) {
        EXPECT_DOUBLE_EQ(believed.Quality(i, k), 0.7);
      }
    }
  }
}

TEST(StreamingLoopTest, EmptyStream) {
  const EventStream stream({}, {});
  const CooperationMatrix coop(0);
  const RunSummary summary = RunStream(stream, coop, Tpg());
  EXPECT_DOUBLE_EQ(summary.TotalScore(), 0.0);
}

}  // namespace
}  // namespace casc
