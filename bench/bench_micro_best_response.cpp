// Micro-benchmarks for the delta-evaluation kernel: scratch (rebuild the
// group, two from-scratch GroupScore calls per candidate) vs. delta
// (ScoreKeeper marginals, one affinity-row scan) vs. the parallel
// speculative GT round. tools/run_bench.sh records these numbers as
// BENCH_PR<k>.json so the perf trajectory is tracked PR over PR.

#include <benchmark/benchmark.h>

#include <vector>

#include "algo/best_response.h"
#include "algo/gt_assigner.h"
#include "common/rng.h"
#include "gen/synthetic.h"
#include "model/instance.h"
#include "model/score_keeper.h"

namespace casc {
namespace {

/// Every pair valid, every task at `group_size` members, plus 32 free
/// workers that probe joins. Capacity leaves one slot open so the probes
/// exercise the non-crowding (pure marginal) path.
struct Fixture {
  Fixture(int num_tasks, int group_size, int capacity)
      : instance(Build(num_tasks, group_size, capacity)),
        assignment(instance),
        keeper(instance) {
    for (TaskIndex t = 0; t < instance.num_tasks(); ++t) {
      for (int g = 0; g < group_size; ++g) {
        assignment.Assign(t * group_size + g, t);
      }
    }
    keeper.Sync(assignment);
    first_free = instance.num_tasks() * group_size;
  }

  static Instance Build(int num_tasks, int group_size, int capacity) {
    const int num_workers = num_tasks * group_size + 32;
    Rng rng(2024);
    CooperationMatrix coop(num_workers);
    for (int i = 0; i < num_workers; ++i) {
      for (int k = i + 1; k < num_workers; ++k) {
        coop.SetSymmetric(i, k, rng.Uniform());
      }
    }
    std::vector<Worker> workers;
    for (int i = 0; i < num_workers; ++i) {
      workers.push_back(Worker{i, {0.5, 0.5}, 1.0, 1.0, 0.0});
    }
    std::vector<Task> tasks;
    for (int j = 0; j < num_tasks; ++j) {
      tasks.push_back(Task{j, {0.5, 0.5}, 0.0, 10.0, capacity});
    }
    Instance instance(std::move(workers), std::move(tasks), std::move(coop),
                      0.0, 2);
    instance.ComputeValidPairs();
    return instance;
  }

  Instance instance;
  Assignment assignment;
  ScoreKeeper keeper;
  WorkerIndex first_free = 0;
};

// -- StrategyUtility: one candidate evaluation ------------------------------

void BM_StrategyUtilityScratch(benchmark::State& state) {
  Fixture fx(16, static_cast<int>(state.range(0)),
             static_cast<int>(state.range(0)) + 2);
  TaskIndex t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(StrategyUtility(
        fx.instance, fx.assignment, fx.first_free, t, nullptr));
    t = (t + 1) % fx.instance.num_tasks();
  }
}

void BM_StrategyUtilityDelta(benchmark::State& state) {
  Fixture fx(16, static_cast<int>(state.range(0)),
             static_cast<int>(state.range(0)) + 2);
  TaskIndex t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(StrategyUtility(
        fx.instance, fx.keeper, fx.assignment, fx.first_free, t, nullptr));
    t = (t + 1) % fx.instance.num_tasks();
  }
}

// -- ComputeBestResponse: full strategy scan --------------------------------

void BM_BestResponseScratch(benchmark::State& state) {
  Fixture fx(16, static_cast<int>(state.range(0)),
             static_cast<int>(state.range(0)) + 2);
  WorkerIndex w = fx.first_free;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ComputeBestResponse(fx.instance, fx.assignment, w));
    if (++w >= fx.instance.num_workers()) w = fx.first_free;
  }
}

void BM_BestResponseDelta(benchmark::State& state) {
  Fixture fx(16, static_cast<int>(state.range(0)),
             static_cast<int>(state.range(0)) + 2);
  WorkerIndex w = fx.first_free;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ComputeBestResponse(fx.instance, fx.keeper, fx.assignment, w));
    if (++w >= fx.instance.num_workers()) w = fx.first_free;
  }
}

// -- Crowding path: joining a full task runs DropOneCrowding --------------

void BM_BestResponseCrowdingScratch(benchmark::State& state) {
  Fixture fx(16, static_cast<int>(state.range(0)),
             static_cast<int>(state.range(0)));
  WorkerIndex w = fx.first_free;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ComputeBestResponse(fx.instance, fx.assignment, w));
    if (++w >= fx.instance.num_workers()) w = fx.first_free;
  }
}

void BM_BestResponseCrowdingDelta(benchmark::State& state) {
  Fixture fx(16, static_cast<int>(state.range(0)),
             static_cast<int>(state.range(0)));
  WorkerIndex w = fx.first_free;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ComputeBestResponse(fx.instance, fx.keeper, fx.assignment, w));
    if (++w >= fx.instance.num_workers()) w = fx.first_free;
  }
}

// -- End-to-end GT: serial vs. speculative-parallel rounds ------------------

Instance GtInstance() {
  Rng rng(42);
  SyntheticInstanceConfig config;
  config.num_workers = 600;
  config.num_tasks = 150;
  config.worker.radius_min = 0.2;
  config.worker.radius_max = 0.4;
  return GenerateSyntheticInstance(config, 0.0, &rng);
}

void BM_GtRunThreads(benchmark::State& state) {
  const Instance instance = GtInstance();
  GtOptions options;
  options.num_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    GtAssigner gt(options);
    benchmark::DoNotOptimize(gt.Run(instance));
  }
}

BENCHMARK(BM_StrategyUtilityScratch)->Arg(4)->Arg(8)->Arg(12);
BENCHMARK(BM_StrategyUtilityDelta)->Arg(4)->Arg(8)->Arg(12);
BENCHMARK(BM_BestResponseScratch)->Arg(4)->Arg(8)->Arg(12);
BENCHMARK(BM_BestResponseDelta)->Arg(4)->Arg(8)->Arg(12);
BENCHMARK(BM_BestResponseCrowdingScratch)->Arg(8);
BENCHMARK(BM_BestResponseCrowdingDelta)->Arg(8);
BENCHMARK(BM_GtRunThreads)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace casc
