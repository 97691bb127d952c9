#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gen/distributions.h"
#include "gen/meetup_like.h"
#include "gen/synthetic.h"
#include "gen/trace.h"
#include "gen/workload.h"

namespace casc {
namespace {

// ---------------------------------------------------------------------------
// Distributions
// ---------------------------------------------------------------------------

TEST(DistributionsTest, UniformLocationsCoverTheSquare) {
  Rng rng(1);
  SpatialGenConfig config;
  double min_x = 1.0, max_x = 0.0;
  for (int i = 0; i < 5000; ++i) {
    const Point p = SampleLocation(config, &rng);
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, 1.0);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LE(p.y, 1.0);
    min_x = std::min(min_x, p.x);
    max_x = std::max(max_x, p.x);
  }
  EXPECT_LT(min_x, 0.05);
  EXPECT_GT(max_x, 0.95);
}

TEST(DistributionsTest, SkewedLocationsClusterAtCenter) {
  Rng rng(2);
  SpatialGenConfig config;
  config.distribution = LocationDistribution::kSkewed;
  int near_center = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    const Point p = SampleLocation(config, &rng);
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, 1.0);
    if (Distance(p, {0.5, 0.5}) < 0.3) ++near_center;
  }
  // 80% cluster with sigma 0.2: the 0.3-disk holds roughly
  // 0.8 * P(|N(0,0.2^2)| joint within) + uniform share — far more than
  // the ~26% a uniform distribution would give.
  EXPECT_GT(near_center, n / 2);
}

TEST(DistributionsTest, RangeGaussianStaysInRange) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double v = SampleRangeGaussian(0.01, 0.05, &rng);
    EXPECT_GE(v, 0.01);
    EXPECT_LE(v, 0.05);
  }
}

TEST(DistributionsTest, RangeGaussianCentersOnMidpoint) {
  Rng rng(4);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += SampleRangeGaussian(0.0, 1.0, &rng);
  // The truncated Gaussian is symmetric around the midpoint 0.5.
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(DistributionsTest, DegenerateRangeIsConstant) {
  Rng rng(5);
  EXPECT_DOUBLE_EQ(SampleRangeGaussian(0.3, 0.3, &rng), 0.3);
}

// ---------------------------------------------------------------------------
// Synthetic instances
// ---------------------------------------------------------------------------

TEST(SyntheticTest, WorkerFieldsWithinConfiguredRanges) {
  Rng rng(6);
  WorkerGenConfig config;
  config.speed_min = 0.01;
  config.speed_max = 0.03;
  config.radius_min = 0.05;
  config.radius_max = 0.10;
  for (int i = 0; i < 500; ++i) {
    const Worker worker = GenerateWorker(i, config, 2.5, &rng);
    EXPECT_EQ(worker.id, i);
    EXPECT_GE(worker.speed, 0.01);
    EXPECT_LE(worker.speed, 0.03);
    EXPECT_GE(worker.radius, 0.05);
    EXPECT_LE(worker.radius, 0.10);
    EXPECT_DOUBLE_EQ(worker.arrival_time, 2.5);
  }
}

TEST(SyntheticTest, TaskDeadlineIsCreationPlusRemaining) {
  Rng rng(7);
  TaskGenConfig config;
  config.remaining_time = 4.0;
  config.capacity = 5;
  const Task task = GenerateTask(3, config, 1.5, &rng);
  EXPECT_DOUBLE_EQ(task.create_time, 1.5);
  EXPECT_DOUBLE_EQ(task.deadline, 5.5);
  EXPECT_EQ(task.capacity, 5);
}

TEST(SyntheticTest, UniformQualitiesAreSymmetricAndBounded) {
  Rng rng(8);
  const CooperationMatrix matrix =
      GenerateQualities(20, QualityModel::kUniform, 0.5, &rng);
  for (int i = 0; i < 20; ++i) {
    for (int k = 0; k < 20; ++k) {
      const double q = matrix.Quality(i, k);
      EXPECT_GE(q, 0.0);
      EXPECT_LE(q, 1.0);
      EXPECT_DOUBLE_EQ(q, matrix.Quality(k, i));
    }
  }
}

TEST(SyntheticTest, ConstantQualities) {
  Rng rng(9);
  const CooperationMatrix matrix =
      GenerateQualities(5, QualityModel::kConstant, 0.7, &rng);
  EXPECT_DOUBLE_EQ(matrix.Quality(0, 4), 0.7);
  EXPECT_DOUBLE_EQ(matrix.Quality(2, 2), 0.0);
}

TEST(SyntheticTest, InstanceShapeMatchesConfig) {
  Rng rng(10);
  SyntheticInstanceConfig config;
  config.num_workers = 37;
  config.num_tasks = 13;
  config.min_group_size = 2;
  const Instance instance = GenerateSyntheticInstance(config, 1.0, &rng);
  EXPECT_EQ(instance.num_workers(), 37);
  EXPECT_EQ(instance.num_tasks(), 13);
  EXPECT_TRUE(instance.valid_pairs_ready());
  EXPECT_DOUBLE_EQ(instance.now(), 1.0);
}

TEST(SyntheticTest, DeterministicForSeed) {
  SyntheticInstanceConfig config;
  config.num_workers = 25;
  config.num_tasks = 10;
  Rng rng_a(77), rng_b(77);
  const Instance a = GenerateSyntheticInstance(config, 0.0, &rng_a);
  const Instance b = GenerateSyntheticInstance(config, 0.0, &rng_b);
  for (int i = 0; i < 25; ++i) {
    EXPECT_EQ(a.workers()[static_cast<size_t>(i)].location,
              b.workers()[static_cast<size_t>(i)].location);
  }
  EXPECT_EQ(a.NumValidPairs(), b.NumValidPairs());
}

// ---------------------------------------------------------------------------
// Meetup-like dataset
// ---------------------------------------------------------------------------

TEST(MeetupLikeTest, ShapeMatchesConfig) {
  MeetupLikeConfig config;
  config.num_users = 200;
  config.num_events = 50;
  Rng rng(11);
  const MeetupLikeDataset dataset = MeetupLikeDataset::Generate(config, &rng);
  EXPECT_EQ(dataset.num_users(), 200);
  EXPECT_EQ(dataset.num_events(), 50);
}

TEST(MeetupLikeTest, EveryUserHasAtLeastOneGroup) {
  MeetupLikeConfig config;
  config.num_users = 300;
  Rng rng(12);
  const MeetupLikeDataset dataset = MeetupLikeDataset::Generate(config, &rng);
  for (int u = 0; u < 300; ++u) {
    EXPECT_GE(dataset.user_groups(u).size(), 1u);
    EXPECT_LE(static_cast<int>(dataset.user_groups(u).size()),
              config.max_memberships);
    EXPECT_TRUE(std::is_sorted(dataset.user_groups(u).begin(),
                               dataset.user_groups(u).end()));
  }
}

TEST(MeetupLikeTest, GroupOverlapIdentities) {
  MeetupLikeConfig config;
  config.num_users = 100;
  Rng rng(13);
  const MeetupLikeDataset dataset = MeetupLikeDataset::Generate(config, &rng);
  for (int u = 0; u < 20; ++u) {
    for (int v = u + 1; v < 20; ++v) {
      const int common = dataset.CommonGroups(u, v);
      const int unioned = dataset.UnionGroups(u, v);
      EXPECT_GE(common, 0);
      EXPECT_LE(common,
                static_cast<int>(dataset.user_groups(u).size()));
      EXPECT_EQ(unioned + common,
                static_cast<int>(dataset.user_groups(u).size() +
                                 dataset.user_groups(v).size()));
      EXPECT_EQ(dataset.CommonGroups(u, v), dataset.CommonGroups(v, u));
    }
  }
}

TEST(MeetupLikeTest, QualityFollowsPaperFormula) {
  MeetupLikeConfig config;
  config.num_users = 100;
  config.alpha = 0.5;
  config.omega = 0.5;
  Rng rng(14);
  const MeetupLikeDataset dataset = MeetupLikeDataset::Generate(config, &rng);
  for (int u = 0; u < 30; ++u) {
    for (int v = u + 1; v < 30; ++v) {
      const double q = dataset.CooperationQuality(u, v);
      const double expected =
          0.25 + 0.5 * dataset.CommonGroups(u, v) /
                     std::max(1, dataset.UnionGroups(u, v));
      EXPECT_NEAR(q, expected, 1e-12);
      EXPECT_GE(q, 0.25);
      EXPECT_LE(q, 0.75);
    }
  }
}

TEST(MeetupLikeTest, PopularGroupsCreateOverlap) {
  MeetupLikeConfig config;
  config.num_users = 500;
  Rng rng(15);
  const MeetupLikeDataset dataset = MeetupLikeDataset::Generate(config, &rng);
  // With Zipf group popularity, a decent share of pairs overlaps.
  int overlapping = 0, total = 0;
  for (int u = 0; u < 100; ++u) {
    for (int v = u + 1; v < 100; ++v) {
      ++total;
      if (dataset.CommonGroups(u, v) > 0) ++overlapping;
    }
  }
  EXPECT_GT(overlapping, total / 20);
}

TEST(MeetupLikeTest, SampleInstanceWithoutReplacementWhenPossible) {
  MeetupLikeConfig config;
  config.num_users = 100;
  config.num_events = 30;
  Rng gen_rng(16);
  const MeetupLikeDataset dataset =
      MeetupLikeDataset::Generate(config, &gen_rng);
  Rng sample_rng(17);
  const Instance instance = dataset.SampleInstance(
      50, 10, WorkerGenConfig{}, TaskGenConfig{}, 3, 0.0, &sample_rng);
  EXPECT_EQ(instance.num_workers(), 50);
  EXPECT_EQ(instance.num_tasks(), 10);
  std::set<int64_t> ids;
  for (const Worker& worker : instance.workers()) ids.insert(worker.id);
  EXPECT_EQ(ids.size(), 50u);  // distinct users
}

TEST(MeetupLikeTest, SampleInstanceWithReplacementBeyondDataset) {
  MeetupLikeConfig config;
  config.num_users = 20;
  config.num_events = 5;
  Rng gen_rng(18);
  const MeetupLikeDataset dataset =
      MeetupLikeDataset::Generate(config, &gen_rng);
  Rng sample_rng(19);
  const Instance instance = dataset.SampleInstance(
      40, 8, WorkerGenConfig{}, TaskGenConfig{}, 3, 0.0, &sample_rng);
  EXPECT_EQ(instance.num_workers(), 40);
}

TEST(MeetupLikeTest, InstanceQualitiesMatchDataset) {
  MeetupLikeConfig config;
  config.num_users = 60;
  config.num_events = 10;
  Rng gen_rng(20);
  const MeetupLikeDataset dataset =
      MeetupLikeDataset::Generate(config, &gen_rng);
  Rng sample_rng(21);
  const Instance instance = dataset.SampleInstance(
      20, 5, WorkerGenConfig{}, TaskGenConfig{}, 3, 0.0, &sample_rng);
  for (int i = 0; i < 20; ++i) {
    for (int k = 0; k < 20; ++k) {
      if (i == k) continue;
      const int ui = static_cast<int>(instance.workers()[static_cast<size_t>(i)].id);
      const int uk = static_cast<int>(instance.workers()[static_cast<size_t>(k)].id);
      EXPECT_NEAR(instance.coop().Quality(i, k),
                  dataset.CooperationQuality(ui, uk), 1e-12);
    }
  }
}

// ---------------------------------------------------------------------------
// Arrival traces (gen/trace)
// ---------------------------------------------------------------------------

TEST(TraceTest, ArrivalsWithinHorizonAndSorted) {
  Rng rng(31);
  TraceConfig config;
  config.horizon = 10.0;
  config.worker_rate = 20.0;
  config.task_rate = 8.0;
  const Trace trace = GenerateTrace(config, &rng);
  EXPECT_GT(trace.workers.size(), 0u);
  EXPECT_GT(trace.tasks.size(), 0u);
  for (size_t i = 0; i < trace.workers.size(); ++i) {
    EXPECT_GE(trace.workers[i].arrival_time, 0.0);
    EXPECT_LT(trace.workers[i].arrival_time, 10.0);
    EXPECT_EQ(trace.workers[i].id, static_cast<int64_t>(i));
    if (i > 0) {
      EXPECT_GE(trace.workers[i].arrival_time,
                trace.workers[i - 1].arrival_time);
    }
  }
}

TEST(TraceTest, ArrivalCountMatchesRate) {
  Rng rng(32);
  TraceConfig config;
  config.horizon = 50.0;
  config.worker_rate = 10.0;
  config.task_rate = 0.0;
  const Trace trace = GenerateTrace(config, &rng);
  // Poisson(500): 5 sigma is about 112.
  EXPECT_NEAR(static_cast<double>(trace.workers.size()), 500.0, 112.0);
  EXPECT_TRUE(trace.tasks.empty());
}

TEST(TraceTest, RushWindowConcentratesArrivals) {
  Rng rng(33);
  TraceConfig config;
  config.horizon = 10.0;
  config.worker_rate = 30.0;
  config.task_rate = 0.0;
  config.rush_windows.push_back({4.0, 6.0, 4.0});
  const Trace trace = GenerateTrace(config, &rng);
  int inside = 0, outside = 0;
  for (const Worker& worker : trace.workers) {
    if (worker.arrival_time >= 4.0 && worker.arrival_time < 6.0) {
      ++inside;
    } else {
      ++outside;
    }
  }
  // Rush rate 4x over 2 of 10 units: expect inside ~ 8/16 of total.
  EXPECT_GT(inside, outside / 2);
  // Per-unit-time density must be visibly higher inside.
  EXPECT_GT(inside / 2.0, outside / 8.0 * 2.0);
}

TEST(TraceTest, RateMultiplierComposition) {
  TraceConfig config;
  config.rush_windows.push_back({1.0, 3.0, 2.0});
  config.rush_windows.push_back({2.0, 4.0, 3.0});
  EXPECT_DOUBLE_EQ(RateMultiplierAt(config, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(RateMultiplierAt(config, 1.5), 2.0);
  EXPECT_DOUBLE_EQ(RateMultiplierAt(config, 2.5), 6.0);  // overlap
  EXPECT_DOUBLE_EQ(RateMultiplierAt(config, 3.5), 3.0);
  EXPECT_DOUBLE_EQ(RateMultiplierAt(config, 4.0), 1.0);  // end exclusive
}

TEST(TraceTest, ZeroRatesYieldEmptyTrace) {
  Rng rng(34);
  TraceConfig config;
  config.worker_rate = 0.0;
  config.task_rate = 0.0;
  const Trace trace = GenerateTrace(config, &rng);
  EXPECT_TRUE(trace.workers.empty());
  EXPECT_TRUE(trace.tasks.empty());
}

TEST(TraceTest, DeterministicForSeed) {
  TraceConfig config;
  Rng a(35), b(35);
  const Trace ta = GenerateTrace(config, &a);
  const Trace tb = GenerateTrace(config, &b);
  ASSERT_EQ(ta.workers.size(), tb.workers.size());
  for (size_t i = 0; i < ta.workers.size(); ++i) {
    EXPECT_DOUBLE_EQ(ta.workers[i].arrival_time,
                     tb.workers[i].arrival_time);
  }
}

TEST(TraceTest, CursorMatchesGenerateTraceBitForBit) {
  TraceConfig config;
  config.horizon = 8.0;
  config.worker_rate = 25.0;
  config.task_rate = 10.0;
  config.rush_windows.push_back({3.0, 5.0, 3.0});
  Rng trace_rng(36), cursor_rng(36);
  const Trace trace = GenerateTrace(config, &trace_rng);

  TraceCursor cursor(config, &cursor_rng);
  ASSERT_EQ(cursor.num_workers(),
            static_cast<int64_t>(trace.workers.size()));
  Worker worker;
  size_t w = 0;
  while (cursor.NextWorker(&worker)) {
    ASSERT_LT(w, trace.workers.size());
    EXPECT_EQ(worker.id, trace.workers[w].id);
    EXPECT_EQ(worker.location, trace.workers[w].location);
    EXPECT_DOUBLE_EQ(worker.radius, trace.workers[w].radius);
    EXPECT_DOUBLE_EQ(worker.speed, trace.workers[w].speed);
    EXPECT_DOUBLE_EQ(worker.arrival_time, trace.workers[w].arrival_time);
    ++w;
  }
  EXPECT_EQ(w, trace.workers.size());

  Task task;
  size_t t = 0;
  while (cursor.NextTask(&task)) {
    ASSERT_LT(t, trace.tasks.size());
    EXPECT_EQ(task.id, trace.tasks[t].id);
    EXPECT_EQ(task.location, trace.tasks[t].location);
    EXPECT_DOUBLE_EQ(task.create_time, trace.tasks[t].create_time);
    EXPECT_DOUBLE_EQ(task.deadline, trace.tasks[t].deadline);
    EXPECT_EQ(task.capacity, trace.tasks[t].capacity);
    ++t;
  }
  EXPECT_EQ(t, trace.tasks.size());

  // Both consumers leave the rng in the same state: the next draws agree.
  EXPECT_DOUBLE_EQ(trace_rng.Uniform(), cursor_rng.Uniform());
}

TEST(TraceTest, CursorHandlesEmptyStreams) {
  TraceConfig config;
  config.worker_rate = 0.0;
  config.task_rate = 0.0;
  Rng rng(37);
  TraceCursor cursor(config, &rng);
  EXPECT_EQ(cursor.num_workers(), 0);
  Worker worker;
  EXPECT_FALSE(cursor.NextWorker(&worker));
  Task task;
  EXPECT_FALSE(cursor.NextTask(&task));
}

TEST(TraceDeathTest, CursorRejectsInfiniteRateAtConstruction) {
  // Task arrivals are drawn lazily, after the workers: an infinite task
  // rate must die in the constructor, before any draw, instead of
  // drawing arrivals without end on the first NextTask. A zero worker
  // rate keeps a constructor without the check from drawing anything.
  TraceConfig config;
  config.worker_rate = 0.0;
  config.task_rate = std::numeric_limits<double>::infinity();
  Rng rng(38);
  EXPECT_DEATH({ TraceCursor cursor(config, &rng); }, "must be finite");

  config.task_rate = 0.0;
  config.horizon = std::numeric_limits<double>::infinity();
  EXPECT_DEATH({ TraceCursor cursor(config, &rng); }, "must be finite");
}

// ---------------------------------------------------------------------------
// InstanceSource implementations
// ---------------------------------------------------------------------------

TEST(WorkloadTest, SyntheticSourceNameReflectsDistribution) {
  SyntheticInstanceConfig unif;
  SyntheticSource unif_source(unif, 1);
  EXPECT_EQ(unif_source.Name(), "UNIF");

  SyntheticInstanceConfig skew;
  skew.worker.spatial.distribution = LocationDistribution::kSkewed;
  SyntheticSource skew_source(skew, 1);
  EXPECT_EQ(skew_source.Name(), "SKEW");
}

TEST(WorkloadTest, SyntheticSourceAdvancesAcrossRounds) {
  SyntheticInstanceConfig config;
  config.num_workers = 20;
  config.num_tasks = 5;
  SyntheticSource source(config, 99);
  const Instance a = source.MakeBatch(0, 0.0);
  const Instance b = source.MakeBatch(1, 1.0);
  // Different rounds draw fresh randomness.
  EXPECT_NE(a.workers()[0].location, b.workers()[0].location);
}

TEST(WorkloadTest, MeetupSourceSharesDatasetAcrossSeeds) {
  MeetupLikeConfig config;
  config.num_users = 80;
  config.num_events = 20;
  MeetupLikeSource source_a(config, 10, 5, WorkerGenConfig{},
                            TaskGenConfig{}, 3, /*dataset_seed=*/7,
                            /*sample_seed=*/1);
  MeetupLikeSource source_b(config, 10, 5, WorkerGenConfig{},
                            TaskGenConfig{}, 3, /*dataset_seed=*/7,
                            /*sample_seed=*/2);
  // Same dataset: user 0 has the same location and groups in both.
  EXPECT_EQ(source_a.dataset().user_location(0),
            source_b.dataset().user_location(0));
  EXPECT_EQ(source_a.dataset().user_groups(0),
            source_b.dataset().user_groups(0));
}

}  // namespace
}  // namespace casc
