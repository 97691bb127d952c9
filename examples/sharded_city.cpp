// Sharded dispatch over a streaming city: the DispatchService drives the
// batch framework of Algorithm 1 through the sharded engine — spatial
// partition, per-shard parallel assignment, boundary reconciliation —
// with an admission budget that carries overflow tasks between batches.
//
//   ./sharded_city [--workers 4000] [--tasks 1600] [--hours 8]
//                  [--shards 4] [--threads 4] [--budget 300] [--seed 11]

#include <cstdio>
#include <memory>

#include "algo/gt_assigner.h"
#include "common/flags.h"
#include "common/rng.h"
#include "gen/synthetic.h"
#include "service/dispatch_service.h"
#include "sim/event_stream.h"

int main(int argc, char** argv) {
  casc::FlagParser flags;
  const int64_t kIntMax = casc::FlagParser::kIntMax;
  flags.DefineInt64("workers", 4000, "workers over the day", 0, kIntMax);
  flags.DefineInt64("tasks", 1600, "tasks over the day", 0, kIntMax);
  flags.DefineInt64("hours", 8, "simulated horizon (one batch per hour)", 1,
                    kIntMax);
  flags.DefineInt64("shards", 4, "shards per side (S)", 1, 64);
  flags.DefineInt64("threads", 4, "threads for per-shard assignment", 1,
                    1024);
  flags.DefineInt64("budget", 300, "admission budget per batch (0 = off)", 0,
                    kIntMax);
  flags.DefineInt64("seed", 11, "generator seed");
  flags.ParseOrExit(argc, argv);
  const int m = static_cast<int>(flags.GetInt64("workers"));
  const int n = static_cast<int>(flags.GetInt64("tasks"));
  const double horizon = static_cast<double>(flags.GetInt64("hours"));

  // Arrivals spread uniformly over the day; cooperation qualities come
  // from the O(1)-memory procedural matrix (city-scale populations).
  casc::Rng rng(static_cast<uint64_t>(flags.GetInt64("seed")));
  casc::WorkerGenConfig worker_config;
  casc::TaskGenConfig task_config;
  std::vector<casc::Worker> workers;
  for (int i = 0; i < m; ++i) {
    workers.push_back(casc::GenerateWorker(
        i, worker_config, rng.Uniform(0.0, horizon), &rng));
  }
  std::vector<casc::Task> tasks;
  for (int j = 0; j < n; ++j) {
    tasks.push_back(
        casc::GenerateTask(j, task_config, rng.Uniform(0.0, horizon), &rng));
  }
  const casc::CooperationMatrix coop =
      casc::CooperationMatrix::Procedural(m, rng.Next());
  const casc::EventStream stream(std::move(workers), std::move(tasks));

  casc::DispatchConfig config;
  config.sharded.shards_per_side = static_cast<int>(flags.GetInt64("shards"));
  config.sharded.num_threads = static_cast<int>(flags.GetInt64("threads"));
  config.min_group_size = 3;
  config.max_tasks_per_batch = static_cast<int>(flags.GetInt64("budget"));
  casc::DispatchService service(config, &coop, [] {
    casc::GtOptions options;
    options.use_tsi = true;
    options.use_lub = true;
    return std::make_unique<casc::GtAssigner>(options);
  });

  const casc::RunSummary summary = service.Run(stream);

  std::printf(
      "hour  workers  admitted  deferred  queue  boundary  started  score\n");
  for (size_t i = 0; i < summary.batches.size(); ++i) {
    const casc::BatchMetrics& batch = summary.batches[i];
    const casc::ServiceMetrics& metrics = service.batch_metrics()[i];
    std::printf("%4.0f  %7d  %8d  %8d  %5d  %8d  %7d  %6.2f\n", batch.now,
                batch.num_workers, metrics.admitted_tasks,
                metrics.deferred_tasks, metrics.queue_depth,
                metrics.boundary_workers, batch.completed_tasks,
                batch.score);
  }
  std::printf("\nday total: Q = %.2f over %lld started tasks (S=%d, %d threads)\n",
              summary.TotalScore(),
              static_cast<long long>(summary.TotalCompletedTasks()),
              config.sharded.shards_per_side, config.sharded.num_threads);
  if (!service.batch_metrics().empty()) {
    std::printf("last batch metrics: %s\n",
                service.batch_metrics().back().ToJson().c_str());
  }
  return 0;
}
