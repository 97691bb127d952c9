// City-scale streaming simulation: the full batch-based framework of
// Algorithm 1. Workers and tasks arrive as Poisson processes over a
// working day — with morning and evening rush hours — and every batch
// interval the platform assigns idle workers to open tasks. Started
// tasks occupy their teams for a while; unserved tasks carry over until
// their deadlines expire.
//
//   ./city_simulation [--worker-rate R] [--task-rate R] [--hours H]
//                     [--approach gt|tpg] [--seed S]

#include <cstdio>
#include <memory>
#include <string>

#include "algo/gt_assigner.h"
#include "algo/tpg_assigner.h"
#include "common/flags.h"
#include "common/histogram.h"
#include "gen/trace.h"
#include "service/dispatch_service.h"

int main(int argc, char** argv) {
  casc::FlagParser flags;
  flags.DefineDouble("worker-rate", 35.0, "worker arrivals per hour");
  flags.DefineDouble("task-rate", 14.0, "task creations per hour");
  flags.DefineInt64("hours", 12, "length of the simulated day (batches)", 1,
                    casc::FlagParser::kIntMax);
  flags.DefineString("approach", "gt", "gt or tpg");
  flags.DefineInt64("seed", 7, "generator seed");
  flags.ParseOrExit(argc, argv);

  casc::Rng rng(static_cast<uint64_t>(flags.GetInt64("seed")));

  // A downtown-clustered city with two rush hours.
  casc::TraceConfig trace_config;
  trace_config.horizon = static_cast<double>(flags.GetInt64("hours"));
  trace_config.worker_rate = flags.GetDouble("worker-rate");
  trace_config.task_rate = flags.GetDouble("task-rate");
  trace_config.rush_windows.push_back({1.0, 3.0, 2.5});   // morning rush
  trace_config.rush_windows.push_back({8.0, 10.0, 2.0});  // evening rush
  trace_config.worker.spatial.distribution =
      casc::LocationDistribution::kSkewed;
  trace_config.worker.speed_min = 0.03;
  trace_config.worker.speed_max = 0.06;
  trace_config.worker.radius_min = 0.15;
  trace_config.worker.radius_max = 0.25;
  trace_config.task.spatial.distribution =
      casc::LocationDistribution::kSkewed;
  trace_config.task.remaining_time = 3.0;
  trace_config.task.capacity = 4;

  const casc::Trace trace = casc::GenerateTrace(trace_config, &rng);
  std::printf("day trace: %zu workers, %zu tasks over %.0f hours\n",
              trace.workers.size(), trace.tasks.size(),
              trace_config.horizon);

  casc::CooperationMatrix coop(static_cast<int>(trace.workers.size()));
  for (int i = 0; i < coop.num_workers(); ++i) {
    for (int k = i + 1; k < coop.num_workers(); ++k) {
      coop.SetSymmetric(i, k, rng.Uniform());
    }
  }
  const casc::EventStream stream(trace.workers, trace.tasks);

  casc::AssignerFactory factory;
  if (flags.GetString("approach") == "tpg") {
    factory = [] { return std::make_unique<casc::TpgAssigner>(); };
  } else {
    casc::GtOptions options;
    options.use_tsi = true;
    options.use_lub = true;
    factory = [options] {
      return std::make_unique<casc::GtAssigner>(options);
    };
  }
  const std::string solver_name = factory()->Name();

  // One shard and no admission budget: the plain Algorithm 1 loop, each
  // batch solved exactly as the assigner would solve it alone.
  casc::DispatchConfig config;
  config.sharded.shards_per_side = 1;
  config.batch_interval = 1.0;  // one batch per "hour"
  config.task_duration = 1.0;
  config.min_group_size = 3;
  casc::DispatchService service(config, &coop, factory);
  const casc::RunSummary summary = service.Run(stream);

  casc::SummaryStats batch_scores;
  std::printf("\nhour  workers  open-tasks  started  score    ms\n");
  for (const auto& batch : summary.batches) {
    std::printf("%4.0f  %7d  %10d  %7d  %7.2f  %5.1f\n", batch.now,
                batch.num_workers, batch.num_tasks, batch.completed_tasks,
                batch.score, batch.seconds * 1e3);
    batch_scores.Add(batch.score);
  }
  std::printf(
      "\nday total: Q = %.2f over %lld started tasks, "
      "%lld worker-assignments (%s)\n",
      summary.TotalScore(),
      static_cast<long long>(summary.TotalCompletedTasks()),
      static_cast<long long>(summary.TotalAssignedWorkers()),
      solver_name.c_str());
  std::printf("per-batch score: %s\n", batch_scores.ToString(2).c_str());
  return 0;
}
