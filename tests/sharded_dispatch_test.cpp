#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "algo/best_response.h"
#include "algo/gt_assigner.h"
#include "bench_util/settings.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "gen/synthetic.h"
#include "keeper_scan_oracle.h"
#include "model/objective.h"
#include "model/objective_model.h"
#include "model/score_keeper.h"
#include "service/boundary_reconciler.h"
#include "service/dispatch_service.h"
#include "service/shard_map.h"
#include "sim/event_stream.h"

namespace casc {
namespace {

AssignerFactory GtFactory() {
  return [] { return std::make_unique<GtAssigner>(); };
}

Instance SmallInstance(int num_workers, int num_tasks, uint64_t seed) {
  SyntheticInstanceConfig config;
  config.num_workers = num_workers;
  config.num_tasks = num_tasks;
  Rng rng(seed);
  return GenerateSyntheticInstance(config, /*now=*/0.0, &rng);
}

// ---------------------------------------------------------------------------
// ShardMap
// ---------------------------------------------------------------------------

TEST(ShardMapTest, TasksGoToContainingShard) {
  ShardMapConfig config;
  config.shards_per_side = 2;
  std::vector<Task> tasks = {Task{0, {0.25, 0.25}, 0, 9, 3},
                             Task{1, {0.75, 0.25}, 0, 9, 3},
                             Task{2, {0.25, 0.75}, 0, 9, 3},
                             Task{3, {0.75, 0.75}, 0, 9, 3}};
  const ShardMap map({}, tasks, config);
  for (int s = 0; s < 4; ++s) {
    ASSERT_EQ(map.TasksOf(s).size(), 1u) << "shard " << s;
    EXPECT_EQ(map.TasksOf(s)[0], s);  // row-major: task j landed in shard j
  }
}

TEST(ShardMapTest, ClassifiesInteriorAndBoundaryWorkers) {
  ShardMapConfig config;
  config.shards_per_side = 2;
  std::vector<Worker> workers = {
      Worker{0, {0.25, 0.25}, 1, 0.1, 0},   // disk inside shard 0
      Worker{1, {0.5, 0.5}, 1, 0.2, 0},     // disk spans all four shards
      Worker{2, {0.75, 0.25}, 1, 0.05, 0},  // disk inside shard 1
      Worker{3, {1.5, 0.5}, 1, 0.01, 0},    // outside the world
  };
  const ShardMap map(workers, {}, config);
  EXPECT_EQ(map.InteriorWorkersOf(0), std::vector<WorkerIndex>{0});
  EXPECT_EQ(map.InteriorWorkersOf(1), std::vector<WorkerIndex>{2});
  EXPECT_EQ(map.boundary_workers(), (std::vector<WorkerIndex>{1, 3}));
  EXPECT_EQ(map.num_interior_workers(), 2);
  EXPECT_FALSE(map.IsBoundary(0));
  EXPECT_TRUE(map.IsBoundary(1));
  // Home shards partition everyone, boundary workers included: worker 1
  // at the center and worker 3 (clamped from outside) land in shard 3.
  EXPECT_EQ(map.HomeWorkersOf(0), std::vector<WorkerIndex>{0});
  EXPECT_EQ(map.HomeWorkersOf(1), std::vector<WorkerIndex>{2});
  EXPECT_EQ(map.HomeWorkersOf(3), (std::vector<WorkerIndex>{1, 3}));
}

TEST(ShardMapTest, FarCoordinatesClampToEdgeCells) {
  // A coordinate (or a reach-box edge) whose cell number overflows int
  // must clamp to the edge cell, not go through an out-of-range cast
  // (a sanitized build checks the conversion).
  ShardMapConfig config;
  config.shards_per_side = 2;
  std::vector<Task> tasks = {Task{0, {1e300, 0.25}, 0, 9, 3},
                             Task{1, {-1e300, 1e300}, 0, 9, 3}};
  std::vector<Worker> workers = {
      Worker{0, {0.25, 0.25}, 1, 1e300, 0},  // reach box far beyond the world
      Worker{1, {0.25, 0.25}, 1, 0.1, 0},    // interior to shard 0
  };
  const ShardMap map(workers, tasks, config);
  EXPECT_EQ(map.ShardOfPoint(tasks[0].location), 1);
  EXPECT_EQ(map.ShardOfPoint(tasks[1].location), 2);
  EXPECT_EQ(map.TasksOf(1), std::vector<TaskIndex>{0});
  EXPECT_EQ(map.TasksOf(2), std::vector<TaskIndex>{1});
  EXPECT_EQ(map.boundary_workers(), std::vector<WorkerIndex>{0});
  EXPECT_EQ(map.InteriorWorkersOf(0), std::vector<WorkerIndex>{1});
  EXPECT_EQ(map.ShardsTouched(workers[0].location, workers[0].radius),
            (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(map.ShardsTouched(tasks[0].location, 0.1), std::vector<int>{});
  EXPECT_EQ(map.ShardOfPoint({std::nan(""), 0.75}), 2);
}

TEST(ShardMapTest, SingleShardHasNoBoundaryInsideWorld) {
  const Instance instance = SmallInstance(200, 60, 17);
  ShardMapConfig config;
  config.shards_per_side = 1;
  const ShardMap map(instance.workers(), instance.tasks(), config);
  EXPECT_TRUE(map.boundary_workers().empty());
  EXPECT_EQ(map.num_interior_workers(), instance.num_workers());
  EXPECT_EQ(map.TasksOf(0).size(),
            static_cast<size_t>(instance.num_tasks()));
}

TEST(ShardMapTest, InteriorWorkerValidTasksStayInShard) {
  // The invariant the whole phase-1 decomposition rests on.
  for (const uint64_t seed : {3u, 11u, 29u}) {
    const Instance instance = SmallInstance(300, 100, seed);
    for (const int s_per_side : {2, 4, 8}) {
      ShardMapConfig config;
      config.shards_per_side = s_per_side;
      const ShardMap map(instance.workers(), instance.tasks(), config);
      for (int s = 0; s < map.num_shards(); ++s) {
        for (const WorkerIndex w : map.InteriorWorkersOf(s)) {
          for (const TaskIndex t : instance.ValidTasks(w)) {
            EXPECT_EQ(
                map.ShardOfPoint(
                    instance.tasks()[static_cast<size_t>(t)].location),
                s)
                << "seed " << seed << " S " << s_per_side << " worker " << w;
          }
        }
      }
    }
  }
}

TEST(ShardMapTest, LoadStatsAreConsistent) {
  const Instance instance = SmallInstance(150, 50, 5);
  ShardMapConfig config;
  config.shards_per_side = 4;
  const ShardMap map(instance.workers(), instance.tasks(), config);
  const ShardLoadStats stats = map.LoadStats();
  int workers = 0;
  int tasks = 0;
  for (int s = 0; s < map.num_shards(); ++s) {
    workers += stats.workers_per_shard[static_cast<size_t>(s)];
    tasks += stats.tasks_per_shard[static_cast<size_t>(s)];
  }
  // Home shards partition the workers; interior/boundary partition them
  // too, along a different axis.
  EXPECT_EQ(workers, instance.num_workers());
  EXPECT_EQ(stats.interior_workers + stats.boundary_workers,
            instance.num_workers());
  EXPECT_EQ(tasks, instance.num_tasks());
}

// ---------------------------------------------------------------------------
// CooperationMatrix views & procedural backing (what the executor rides on)
// ---------------------------------------------------------------------------

TEST(CooperationViewTest, ViewMatchesDenseSource) {
  CooperationMatrix dense(4);
  Rng rng(23);
  for (int i = 0; i < 4; ++i) {
    for (int k = i + 1; k < 4; ++k) {
      dense.SetSymmetric(i, k, rng.Uniform());
    }
  }
  const CooperationMatrix view = dense.View({3, 1});
  EXPECT_EQ(view.num_workers(), 2);
  EXPECT_DOUBLE_EQ(view.Quality(0, 1), dense.Quality(3, 1));
  EXPECT_DOUBLE_EQ(view.Quality(1, 0), dense.Quality(1, 3));
  // Views of views compose through to the original backing.
  const CooperationMatrix nested = view.View({1});
  EXPECT_EQ(nested.num_workers(), 1);
  EXPECT_DOUBLE_EQ(nested.Quality(0, 0), 0.0);
}

TEST(CooperationViewTest, ProceduralIsSymmetricDeterministicBounded) {
  const CooperationMatrix a = CooperationMatrix::Procedural(100, 42);
  const CooperationMatrix b = CooperationMatrix::Procedural(100, 42);
  for (int i = 0; i < 100; i += 7) {
    for (int k = 0; k < 100; k += 11) {
      const double q = a.Quality(i, k);
      EXPECT_DOUBLE_EQ(q, a.Quality(k, i));
      EXPECT_DOUBLE_EQ(q, b.Quality(i, k));
      EXPECT_GE(q, 0.0);
      EXPECT_LT(q, 1.0);
      if (i == k) {
        EXPECT_DOUBLE_EQ(q, 0.0);
      }
    }
  }
  // Views over procedural backing keep the remapped identities.
  const CooperationMatrix view = a.View({10, 20});
  EXPECT_DOUBLE_EQ(view.Quality(0, 1), a.Quality(10, 20));
}

// ---------------------------------------------------------------------------
// ShardedAssigner: determinism & validity
// ---------------------------------------------------------------------------

ShardedOptions MakeOptions(int shards_per_side, int num_threads) {
  ShardedOptions options;
  options.shards_per_side = shards_per_side;
  options.num_threads = num_threads;
  return options;
}

TEST(ShardedAssignerTest, SingleShardBitIdenticalToMonolithic) {
  const Instance instance = SmallInstance(250, 80, 7);
  GtAssigner monolithic;
  const Assignment expected = monolithic.Run(instance);

  for (const int threads : {1, 4}) {
    ShardedAssigner sharded(MakeOptions(1, threads), GtFactory());
    const Assignment actual = sharded.Run(instance);
    EXPECT_EQ(actual.Pairs(), expected.Pairs()) << "threads=" << threads;
    // The one shard's TPG seeding prices exactly the monolithic pairs.
    EXPECT_EQ(sharded.stats().seed_pairs_priced,
              monolithic.stats().seed_pairs_priced);
  }
  EXPECT_GT(monolithic.stats().seed_pairs_priced, 0);
}

TEST(ShardedAssignerTest, ResultIndependentOfThreadCount) {
  const Instance instance = SmallInstance(300, 100, 13);
  ShardedAssigner one(MakeOptions(4, 1), GtFactory());
  const Assignment baseline = one.Run(instance);
  for (const int threads : {2, 4, 8}) {
    ShardedAssigner many(MakeOptions(4, threads), GtFactory());
    EXPECT_EQ(many.Run(instance).Pairs(), baseline.Pairs())
        << "threads=" << threads;
  }

  // SKEW at S=4 packs most of the work into the centre shards, so the
  // pool's threads claim the 16 shards in a timing-dependent order.
  SyntheticInstanceConfig config;
  config.num_workers = 800;
  config.num_tasks = 250;
  config.worker.spatial.distribution = LocationDistribution::kSkewed;
  config.task.spatial.distribution = LocationDistribution::kSkewed;
  Rng rng(29);
  const Instance skew = GenerateSyntheticInstance(config, /*now=*/0.0, &rng);
  const Assignment skew_baseline =
      ShardedAssigner(MakeOptions(4, 1), GtFactory()).Run(skew);
  EXPECT_GT(skew_baseline.NumAssigned(), 0);
  for (const int threads : {1, 2, 3, 4, 7}) {
    ShardedAssigner many(MakeOptions(4, threads), GtFactory());
    EXPECT_EQ(many.Run(skew).Pairs(), skew_baseline.Pairs())
        << "SKEW threads=" << threads;
  }
}

TEST(ShardedAssignerTest, ValidAcrossShardCountsAndSeeds) {
  for (const uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    const Instance instance = SmallInstance(240, 80, seed);
    GtAssigner monolithic;
    const double mono_score = TotalScore(instance, monolithic.Run(instance));
    for (const int s_per_side : {2, 4, 8}) {
      ShardedAssigner sharded(MakeOptions(s_per_side, 2), GtFactory());
      const Assignment assignment = sharded.Run(instance);
      const Status status = assignment.Validate(instance);
      EXPECT_TRUE(status.ok())
          << "seed " << seed << " S " << s_per_side << ": "
          << status.message();
      // Groups are either empty or within [B, a_j]: phase 2 never leaves
      // a started group below the minimum size it seeded toward, and
      // Validate() already bounds capacity above.
      const double score = TotalScore(instance, assignment);
      EXPECT_GE(score, 0.0);
      if (mono_score > 0.0) {
        EXPECT_GE(score / mono_score, 0.5)
            << "seed " << seed << " S " << s_per_side
            << ": sharded score collapsed (" << score << " vs monolithic "
            << mono_score << ")";
      }
    }
  }
}

TEST(ShardedAssignerTest, MetricsPopulated) {
  const Instance instance = SmallInstance(200, 60, 19);
  ShardedAssigner sharded(MakeOptions(4, 2), GtFactory());
  (void)sharded.Run(instance);
  const ServiceMetrics& metrics = sharded.metrics();
  EXPECT_EQ(metrics.num_shards, 16);
  ASSERT_EQ(metrics.shard_workers.size(), 16u);
  ASSERT_EQ(metrics.shard_tasks.size(), 16u);
  ASSERT_EQ(metrics.shard_seconds.size(), 16u);
  EXPECT_EQ(metrics.interior_workers + metrics.boundary_workers,
            instance.num_workers());
  EXPECT_GE(metrics.partition_seconds, 0.0);
  EXPECT_GE(metrics.phase1_seconds, 0.0);
  EXPECT_GE(metrics.phase2_seconds, 0.0);
  const std::string json = metrics.ToJson();
  EXPECT_NE(json.find("\"num_shards\":16"), std::string::npos) << json;
  EXPECT_NE(json.find("\"boundary_workers\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"phase1_seconds\":"), std::string::npos) << json;
  EXPECT_EQ(sharded.Name(), "SHARD4x4(GT)");
}

TEST(ShardedAssignerTest, StatsMovesCountPhaseOneAndPolishMoves) {
  const Instance instance = SmallInstance(250, 80, 7);
  GtAssigner monolithic;
  (void)monolithic.Run(instance);
  ShardedAssigner single(MakeOptions(1, 1), GtFactory());
  (void)single.Run(instance);
  EXPECT_GT(monolithic.stats().moves, 0);
  EXPECT_EQ(single.stats().moves, monolithic.stats().moves);

  ShardedAssigner sharded(MakeOptions(4, 2), GtFactory());
  (void)sharded.Run(instance);
  const ServiceMetrics& metrics = sharded.metrics();
  EXPECT_GT(metrics.solve_moves, 0);
  EXPECT_EQ(sharded.stats().moves,
            metrics.solve_moves + metrics.polish_moves);
}

// ---------------------------------------------------------------------------
// Phase-2 polish vs. its original private best-response loop
// ---------------------------------------------------------------------------

struct OracleCoverage {
  int rounds_with_moves = 0;
  int crowd_outs = 0;
  int active_growth = 0;  ///< crowded-out workers added to the active set
};

/// The polish pass as it was before it shared the GT assigner's round:
/// best-response rounds over an active set that starts as `boundary` and
/// grows by every crowded-out worker, at most `polish_rounds` of them.
/// Each best response is the un-memoized keeper scan, so the oracle
/// shares no best-response memo with the pass it checks. Returns the
/// number of moves.
int OraclePolish(const Instance& global,
                 const std::vector<WorkerIndex>& boundary, int polish_rounds,
                 Assignment* assignment, ScoreKeeper* keeper,
                 OracleCoverage* coverage) {
  int polish_moves = 0;
  std::vector<WorkerIndex> active = boundary;  // ascending
  std::vector<bool> in_active(static_cast<size_t>(global.num_workers()),
                              false);
  for (const WorkerIndex w : active) in_active[static_cast<size_t>(w)] = true;
  for (int round = 0; round < polish_rounds; ++round) {
    int moves_this_round = 0;
    std::vector<WorkerIndex> evicted;
    for (const WorkerIndex w : active) {
      const BestResponse response =
          OracleBestResponse(global, *keeper, *assignment, w);
      if (response.task == assignment->TaskOf(w)) continue;
      const MoveResult result =
          ApplyMove(global, assignment, keeper, w, response.task);
      ++moves_this_round;
      if (result.crowded_out != kNoWorker) ++coverage->crowd_outs;
      if (result.crowded_out != kNoWorker &&
          !in_active[static_cast<size_t>(result.crowded_out)]) {
        in_active[static_cast<size_t>(result.crowded_out)] = true;
        evicted.push_back(result.crowded_out);
        ++coverage->active_growth;
      }
    }
    polish_moves += moves_this_round;
    if (moves_this_round == 0) break;
    ++coverage->rounds_with_moves;
    if (!evicted.empty()) {
      std::sort(evicted.begin(), evicted.end());
      const auto middle =
          active.insert(active.end(), evicted.begin(), evicted.end());
      std::inplace_merge(active.begin(), middle, active.end());
    }
  }
  return polish_moves;
}

TEST(PolishOracleTest, MatchesOriginalLoopOn120Instances) {
  int cap_bound = 0;
  int with_crowd_outs = 0;
  int with_growth = 0;
  int multiskill_moved = 0;
  int skew_moved = 0;
  for (uint64_t seed = 1; seed <= 120; ++seed) {
    const bool skew = seed % 2 == 0;
    const int shards_per_side = 2 + static_cast<int>(seed % 3);
    const int capacity = 3 + static_cast<int>((seed / 3) % 4);
    const bool multiskill = (seed / 12) % 2 == 1;
    const int polish_rounds = 1 + static_cast<int>((seed / 2) % 3);

    SyntheticInstanceConfig config;
    config.num_workers = 150 + static_cast<int>(seed % 5) * 20;
    config.num_tasks = 25 + static_cast<int>(seed % 4) * 5;
    config.task.capacity = capacity;
    // Short reaches leave interior workers on every shard, so boundary
    // workers can crowd them out and grow the active set.
    config.worker.radius_min = 0.03;
    config.worker.radius_max = 0.12;
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
    Instance instance = GenerateSyntheticInstance(config, /*now=*/0.0, &rng);
    if (multiskill) instance.set_objective(&GetMultiSkillObjective());

    // The state polish starts from: phase 1 plus insertion and seeding.
    ShardedOptions options = MakeOptions(shards_per_side, 1);
    options.reconcile.polish_rounds = 0;
    ShardedAssigner unpolished(options, GtFactory());
    const Assignment start = unpolished.Run(instance);
    ShardMapConfig map_config;
    map_config.shards_per_side = shards_per_side;
    const std::vector<WorkerIndex> boundary =
        ShardMap(instance.workers(), instance.tasks(), map_config)
            .boundary_workers();

    const std::string label = "seed " + std::to_string(seed);
    Assignment expected = start;
    ScoreKeeper expected_keeper(instance);
    expected_keeper.Sync(expected);
    OracleCoverage coverage;
    const int expected_moves =
        OraclePolish(instance, boundary, polish_rounds, &expected,
                     &expected_keeper, &coverage);

    Assignment actual = start;
    ScoreKeeper actual_keeper(instance);
    actual_keeper.Sync(actual);
    ReconcileOptions reconcile;
    reconcile.polish_rounds = polish_rounds;
    const int actual_moves = BoundaryReconciler(reconcile).PassPolish(
        instance, boundary, &actual, &actual_keeper);

    ASSERT_EQ(actual.Pairs(), expected.Pairs()) << label;
    ASSERT_EQ(actual_moves, expected_moves) << label;
    ASSERT_EQ(actual_keeper.TotalScore(), expected_keeper.TotalScore())
        << label;

    if (coverage.rounds_with_moves == polish_rounds) ++cap_bound;
    if (coverage.crowd_outs > 0) ++with_crowd_outs;
    if (coverage.active_growth > 0) ++with_growth;
    if (expected_moves > 0 && multiskill) ++multiskill_moved;
    if (expected_moves > 0 && skew) ++skew_moved;
  }
  // The sweep must reach the branches that could tell the loops apart.
  EXPECT_GT(cap_bound, 20);
  EXPECT_GT(with_crowd_outs, 40);
  EXPECT_GT(with_growth, 5);
  EXPECT_GT(multiskill_moved, 20);
  EXPECT_GT(skew_moved, 25);
}

// ---------------------------------------------------------------------------
// The pooled memo refresh on a skew-s4-shaped batch
// ---------------------------------------------------------------------------

/// A Table II batch at m = 5K with SKEW locations over a procedural
/// matrix, the shape whose polish rounds cross kPolishRefreshMinPairs.
Instance SkewTableTwoBatch(uint64_t seed) {
  ExperimentSettings settings;
  settings.num_workers = 5000;
  settings.distribution = LocationDistribution::kSkewed;
  const WorkerGenConfig worker_config = settings.MakeWorkerConfig();
  const TaskGenConfig task_config = settings.MakeTaskConfig();
  Rng rng(seed);
  std::vector<Worker> workers;
  for (int i = 0; i < settings.num_workers; ++i) {
    workers.push_back(GenerateWorker(i, worker_config, 0.0, &rng));
  }
  std::vector<Task> tasks;
  for (int j = 0; j < settings.num_tasks; ++j) {
    tasks.push_back(GenerateTask(j, task_config, 0.0, &rng));
  }
  Instance instance(std::move(workers), std::move(tasks),
                    CooperationMatrix::Procedural(settings.num_workers, seed),
                    0.0, settings.min_group_size);
  instance.ComputeValidPairs();
  return instance;
}

TEST(PolishRefreshTest, SkewS4BatchIsIdenticalAtAnyThreadCount) {
  const Instance instance = SkewTableTwoBatch(1);
  ASSERT_EQ(instance.num_tasks(), 500);
  GtOptions gt;
  gt.use_tsi = true;
  gt.use_lub = true;
  gt.epsilon = ExperimentSettings{}.epsilon;
  const AssignerFactory factory = [gt] {
    return std::make_unique<GtAssigner>(gt);
  };

  // The state the polish starts from (phase 1, insertion and seeding),
  // and its first round's active set: the boundary workers.
  ShardedOptions unpolished = MakeOptions(4, 1);
  unpolished.reconcile.polish_rounds = 0;
  const Assignment start = ShardedAssigner(unpolished, factory).Run(instance);
  ShardMapConfig map_config;
  map_config.shards_per_side = 4;
  const std::vector<WorkerIndex> boundary =
      ShardMap(instance.workers(), instance.tasks(), map_config)
          .boundary_workers();
  size_t active_pairs = 0;
  for (const WorkerIndex w : boundary) {
    active_pairs += instance.ValidTasks(w).size();
  }
  EXPECT_GE(active_pairs, kPolishRefreshMinPairs)
      << "the first polish round must take the pooled refresh";

  const BoundaryReconciler reconciler{ReconcileOptions{}};
  Assignment expected = start;
  ScoreKeeper expected_keeper(instance, expected);
  const int expected_moves =
      reconciler.PassPolish(instance, boundary, &expected, &expected_keeper);
  EXPECT_GT(expected_moves, 0);

  std::optional<Assignment> engine_baseline;
  int engine_polish_moves = 0;
  for (const int threads : {1, 3, 4}) {
    const std::string label = "threads=" + std::to_string(threads);
    ThreadPool pool(threads);
    Assignment actual = start;
    ScoreKeeper keeper(instance, actual);
    const int moves =
        reconciler.PassPolish(instance, boundary, &actual, &keeper, &pool);
    EXPECT_EQ(actual.Pairs(), expected.Pairs()) << label;
    EXPECT_EQ(moves, expected_moves) << label;
    EXPECT_EQ(keeper.TotalScore(), expected_keeper.TotalScore()) << label;

    // The whole engine, whose polish borrows its executor's pool.
    ShardedAssigner engine(MakeOptions(4, threads), factory);
    const Assignment solved = engine.Run(instance);
    if (!engine_baseline.has_value()) {
      engine_baseline = solved;
      engine_polish_moves = engine.metrics().polish_moves;
      EXPECT_GT(engine_polish_moves, 0);
      continue;
    }
    EXPECT_EQ(solved.Pairs(), engine_baseline->Pairs()) << label;
    EXPECT_EQ(engine.metrics().polish_moves, engine_polish_moves) << label;
  }
}

/// GT that appends each shard problem's valid-pair count to `claims` (if
/// non-null) as it starts solving it: on a one-thread executor, the claim
/// order.
class ClaimRecordingGt : public Assigner {
 public:
  ClaimRecordingGt(GtOptions options, std::vector<size_t>* claims)
      : inner_(options), claims_(claims) {}

  std::string Name() const override { return inner_.Name(); }

  Assignment Run(const Instance& instance) override {
    if (claims_ != nullptr) claims_->push_back(instance.NumValidPairs());
    inner_.set_workspace(workspace());
    inner_.set_solve_delta(solve_delta());
    Assignment result = inner_.Run(instance);
    inner_.set_solve_delta(nullptr);
    inner_.set_workspace(nullptr);
    stats_ = inner_.stats();
    return result;
  }

 private:
  GtAssigner inner_;
  std::vector<size_t>* claims_;
};

TEST(ShardedAssignerTest, HeaviestFirstClaimsKeepShardIndexedResults) {
  const Instance instance = SkewTableTwoBatch(1);
  GtOptions gt;
  gt.use_tsi = true;
  gt.use_lub = true;
  gt.epsilon = ExperimentSettings{}.epsilon;
  ShardMapConfig map_config;
  map_config.shards_per_side = 4;
  const ShardMap map(instance.workers(), instance.tasks(), map_config);

  std::optional<Assignment> baseline;
  ServiceMetrics baseline_metrics;
  double baseline_score = 0.0;
  for (const int threads : {1, 2, 3, 4}) {
    const std::string label = "threads=" + std::to_string(threads);
    std::vector<size_t> claims;
    ShardedAssigner engine(MakeOptions(4, threads), [&gt, &claims, threads] {
      return std::make_unique<ClaimRecordingGt>(
          gt, threads == 1 ? &claims : nullptr);
    });
    const Assignment solved = engine.Run(instance);
    const ServiceMetrics& metrics = engine.metrics();

    // Per-shard outputs stay indexed by shard, whatever claimed them.
    ASSERT_EQ(metrics.shard_seconds.size(), 16u) << label;
    int solved_shards = 0;
    for (int s = 0; s < 16; ++s) {
      const size_t i = static_cast<size_t>(s);
      EXPECT_EQ(metrics.shard_workers[i],
                static_cast<int>(map.HomeWorkersOf(s).size()))
          << label << " shard " << s;
      const bool has_work =
          metrics.shard_workers[i] > 0 && metrics.shard_tasks[i] > 0;
      solved_shards += has_work ? 1 : 0;
      EXPECT_EQ(metrics.shard_seconds[i] > 0.0, has_work)
          << label << " shard " << s;
    }
    EXPECT_GE(solved_shards, 2) << label;

    if (!baseline.has_value()) {
      // One thread claims in order: heaviest shard first, never a lighter
      // shard before a heavier one.
      ASSERT_EQ(static_cast<int>(claims.size()), solved_shards);
      EXPECT_TRUE(std::is_sorted(claims.rbegin(), claims.rend()));
      EXPECT_GT(claims.front(), claims.back());
      baseline = solved;
      baseline_metrics = metrics;
      baseline_score = engine.stats().final_score;
      continue;
    }
    EXPECT_EQ(solved.Pairs(), baseline->Pairs()) << label;
    EXPECT_EQ(metrics.solve_moves, baseline_metrics.solve_moves) << label;
    EXPECT_EQ(metrics.polish_moves, baseline_metrics.polish_moves) << label;
    EXPECT_EQ(engine.stats().final_score, baseline_score) << label;  // bitwise
  }
}

// ---------------------------------------------------------------------------
// DispatchService: admission queue & streaming
// ---------------------------------------------------------------------------

TEST(DispatchServiceTest, AdmissionBudgetDefersEarliestDeadlineFirst) {
  // Four tasks, budget two: the two earliest deadlines are admitted.
  std::vector<Worker> workers;
  for (int i = 0; i < 6; ++i) {
    workers.push_back(Worker{i, {0.5, 0.5}, 1.0, 1.0, 0.0});
  }
  std::vector<Task> tasks = {Task{0, {0.5, 0.5}, 0.0, 9.0, 3},
                             Task{1, {0.5, 0.5}, 0.0, 2.0, 3},
                             Task{2, {0.5, 0.5}, 0.0, 5.0, 3},
                             Task{3, {0.5, 0.5}, 0.0, 2.0, 3}};
  const CooperationMatrix coop(6, 0.9);
  DispatchConfig config;
  config.sharded = MakeOptions(2, 1);
  config.max_tasks_per_batch = 2;
  DispatchService service(config, &coop, GtFactory());
  const DispatchResult result = service.RunBatch(workers, tasks, 0.0);

  ASSERT_EQ(result.instance.num_tasks(), 2);
  // Deadline 2.0 twice, tie broken by id: tasks 1 then 3 are admitted.
  EXPECT_EQ(result.instance.tasks()[0].id, 1);
  EXPECT_EQ(result.instance.tasks()[1].id, 3);
  ASSERT_EQ(result.deferred.size(), 2u);
  EXPECT_EQ(result.deferred[0].id, 2);  // deadline 5 before deadline 9
  EXPECT_EQ(result.deferred[1].id, 0);
  EXPECT_EQ(result.metrics.admitted_tasks, 2);
  EXPECT_EQ(result.metrics.deferred_tasks, 2);
}

TEST(DispatchServiceTest, UnlimitedBudgetAdmitsEverything) {
  std::vector<Worker> workers = {Worker{0, {0.5, 0.5}, 1.0, 1.0, 0.0},
                                 Worker{1, {0.5, 0.5}, 1.0, 1.0, 0.0},
                                 Worker{2, {0.5, 0.5}, 1.0, 1.0, 0.0}};
  std::vector<Task> tasks = {Task{0, {0.5, 0.5}, 0.0, 9.0, 3}};
  const CooperationMatrix coop(3, 0.9);
  DispatchConfig config;
  config.sharded = MakeOptions(2, 1);
  DispatchService service(config, &coop, GtFactory());
  const DispatchResult result = service.RunBatch(workers, tasks, 0.0);
  EXPECT_TRUE(result.deferred.empty());
  EXPECT_EQ(result.batch.completed_tasks, 1);
  EXPECT_EQ(result.batch.assigned_workers, 3);
  EXPECT_TRUE(result.assignment.Validate(result.instance).ok());
}

/// Streaming scenario on one global matrix, mirroring sim_test's fixture.
struct ServiceFixture {
  std::vector<Worker> workers;
  std::vector<Task> tasks;
  CooperationMatrix coop;

  ServiceFixture(int m, int n, double horizon, uint64_t seed) : coop(m) {
    Rng rng(seed);
    for (int i = 0; i < m; ++i) {
      Worker worker;
      worker.id = i;
      worker.location = {rng.Uniform(), rng.Uniform()};
      worker.speed = 0.2;
      worker.radius = 0.4;
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

/// Batch solver for the service's seam that runs the built-in engine and,
/// on the same instance and warm-start delta, the factory's assigner
/// alone, counting the batches where the two assignments differ.
class MonolithicCrossCheck : public ShardedBatchSolver {
 public:
  explicit MonolithicCrossCheck(ShardedAssigner* engine) : engine_(engine) {}

  Assignment Solve(const Instance& instance) override {
    GtAssigner monolithic;
    monolithic.set_solve_delta(delta_);
    const Assignment expected = monolithic.Run(instance);
    Assignment actual = engine_->Solve(instance);
    if (actual.Pairs() != expected.Pairs()) ++mismatches;
    if (delta_ != nullptr) ++warm_batches;
    ++batches;
    return actual;
  }
  const ServiceMetrics& metrics() const override {
    return engine_->metrics();
  }
  void AttachWorkspace(BatchWorkspace* workspace) override {
    engine_->AttachWorkspace(workspace);
  }
  void SetSolveDelta(const SolveDelta* delta) override {
    delta_ = delta;
    engine_->SetSolveDelta(delta);
  }

  int batches = 0;
  int warm_batches = 0;
  int mismatches = 0;

 private:
  ShardedAssigner* engine_;
  const SolveDelta* delta_ = nullptr;
};

TEST(DispatchServiceTest, StreamingAtS1SolvesEachBatchLikeTheAssignerAlone) {
  // With one shard and no admission budget the streaming loop is the
  // plain Algorithm 1 loop: every batch, warm-started or cold, must get
  // exactly the assignment the factory's assigner produces on its own.
  const ServiceFixture fixture(50, 16, 4.0, 101);
  const EventStream stream(fixture.workers, fixture.tasks);

  DispatchConfig config;
  config.sharded = MakeOptions(1, 2);
  config.min_group_size = 3;
  DispatchService service(config, &fixture.coop, GtFactory());
  MonolithicCrossCheck check(&service.sharded_assigner());
  service.set_batch_solver(&check);
  const RunSummary summary = service.Run(stream);

  ASSERT_FALSE(summary.batches.empty());
  EXPECT_EQ(check.batches, static_cast<int>(summary.batches.size()));
  EXPECT_GT(check.warm_batches, 0);
  EXPECT_EQ(check.mismatches, 0);
  EXPECT_EQ(service.batch_metrics().size(), summary.batches.size());
}

TEST(DispatchServiceTest, StreamingCarriesAdmissionOverflow) {
  const ServiceFixture fixture(40, 20, 3.0, 55);
  const EventStream stream(fixture.workers, fixture.tasks);
  DispatchConfig config;
  config.sharded = MakeOptions(2, 2);
  config.min_group_size = 3;
  config.max_tasks_per_batch = 2;
  DispatchService service(config, &fixture.coop, GtFactory());
  const RunSummary summary = service.Run(stream);

  ASSERT_EQ(service.batch_metrics().size(), summary.batches.size());
  for (size_t i = 0; i < summary.batches.size(); ++i) {
    const ServiceMetrics& metrics = service.batch_metrics()[i];
    EXPECT_LE(metrics.admitted_tasks, 2);
    EXPECT_EQ(summary.batches[i].num_tasks, metrics.admitted_tasks);
    // Deferred overflow re-enters the queue: depth counts it.
    EXPECT_GE(metrics.queue_depth, metrics.deferred_tasks - 0);
  }
  // The budget defers work but the queue keeps it alive: something still
  // completes over the run.
  EXPECT_GT(summary.TotalCompletedTasks(), 0);
}

TEST(ShardedAssignerTest, ShardResultArrivalOrderDoesNotMatter) {
  // Solve every shard independently, then replay the results at the
  // reconciler in several arrival orders. Shards share no workers and no
  // tasks, so the folds commute and every order must reproduce the
  // executor's ascending-order result bit-for-bit — the property the
  // distributed coordinator leans on when network jitter permutes shard
  // result arrivals.
  const Instance instance = SmallInstance(200, 60, 17);
  ShardedOptions options = MakeOptions(2, 1);
  ShardedAssigner reference(options, GtFactory());
  const Assignment expected = reference.Run(instance);

  ShardMapConfig map_config;
  map_config.shards_per_side = options.shards_per_side;
  const ShardMap map(instance.workers(), instance.tasks(), map_config);
  ShardExecutor executor(1);
  const std::vector<ShardProblem> problems =
      executor.BuildProblems(instance, map);

  std::vector<std::optional<Assignment>> locals;
  for (const ShardProblem& problem : problems) {
    locals.push_back(
        ShardExecutor::SolveProblem(problem, GtFactory(), nullptr));
  }

  std::vector<int> order(problems.size());
  std::iota(order.begin(), order.end(), 0);
  BoundaryReconciler reconciler(options.reconcile);
  for (int variant = 0; variant < 3; ++variant) {
    if (variant == 1) std::reverse(order.begin(), order.end());
    if (variant == 2) std::rotate(order.begin(), order.begin() + 1,
                                  order.end());
    Assignment assignment(instance);
    for (const int shard : order) {
      if (locals[shard].has_value()) {
        ShardExecutor::FoldProblem(problems[shard], *locals[shard],
                                   &assignment);
      }
    }
    reconciler.Reconcile(instance, map.boundary_workers(), &assignment);
    EXPECT_EQ(assignment.Pairs(), expected.Pairs()) << "variant " << variant;
  }
}

TEST(DispatchServiceDeathTest, StreamingRejectsNonDenseWorkerIds) {
  std::vector<Worker> workers = {Worker{5, {0.5, 0.5}, 1.0, 1.0, 0.0}};
  std::vector<Task> tasks = {Task{0, {0.5, 0.5}, 0.0, 9.0, 3}};
  const EventStream stream(std::move(workers), std::move(tasks));
  const CooperationMatrix coop(6, 0.5);
  DispatchConfig config;
  config.sharded = MakeOptions(1, 1);
  DispatchService service(config, &coop, GtFactory());
  EXPECT_DEATH({ (void)service.Run(stream); }, "permutation");
}

TEST(DispatchServiceDeathTest, StreamingRejectsDuplicateWorkerIds) {
  std::vector<Worker> workers = {Worker{1, {0.5, 0.5}, 1.0, 1.0, 0.0},
                                 Worker{1, {0.5, 0.5}, 1.0, 1.0, 0.0}};
  const EventStream stream(std::move(workers), {});
  const CooperationMatrix coop(2, 0.5);
  DispatchConfig config;
  config.sharded = MakeOptions(1, 1);
  DispatchService service(config, &coop, GtFactory());
  EXPECT_DEATH({ (void)service.Run(stream); }, "permutation");
}

TEST(DispatchServiceDeathTest, StreamingRejectsTooSmallCooperationMatrix) {
  std::vector<Worker> workers = {Worker{0, {0.5, 0.5}, 1.0, 1.0, 0.0},
                                 Worker{1, {0.5, 0.5}, 1.0, 1.0, 0.0}};
  const EventStream stream(std::move(workers), {});
  const CooperationMatrix coop(1, 0.5);
  DispatchConfig config;
  config.sharded = MakeOptions(1, 1);
  DispatchService service(config, &coop, GtFactory());
  EXPECT_DEATH({ (void)service.Run(stream); }, "smaller than the stream");
}

}  // namespace
}  // namespace casc
