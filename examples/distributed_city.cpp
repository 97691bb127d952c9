// Distributed dispatch over a streaming city: the same Algorithm 1 batch
// loop as sharded_city, but every batch runs as one epoch of the
// coordinator/shard-node protocol over the deterministic simulated
// network — dispatch messages out, per-shard results back, the boundary
// reconciliation passes as coordinator round-trips, and a commit
// broadcast. A lossy network and a mid-run node crash show retries,
// failover and (when unlucky) lost-shard carry-over in action; rerunning
// with the same seed replays the exact same story.
//
//   ./distributed_city [--workers 3000] [--tasks 1200] [--hours 8]
//                      [--shards 3] [--nodes 4] [--drop 0.1]
//                      [--crash_time 1.0] [--seed 11]
//
// --crash_time < 0 disables the crash; CASC_NO_DISTRIBUTED=1 falls back
// to the in-process engine (identical assignments at zero faults).

#include <cstdio>
#include <memory>
#include <vector>

#include "algo/gt_assigner.h"
#include "common/flags.h"
#include "common/rng.h"
#include "gen/synthetic.h"
#include "net/net_dispatch.h"
#include "sim/event_stream.h"

int main(int argc, char** argv) {
  casc::FlagParser flags;
  const int64_t kIntMax = casc::FlagParser::kIntMax;
  flags.DefineInt64("workers", 3000, "workers over the day", 0, kIntMax);
  flags.DefineInt64("tasks", 1200, "tasks over the day", 0, kIntMax);
  flags.DefineInt64("hours", 8, "simulated horizon (one batch per hour)", 1,
                    kIntMax);
  flags.DefineInt64("shards", 3, "shards per side (S)", 1, 64);
  flags.DefineInt64("nodes", 4, "simulated shard solver nodes", 1, 1024);
  flags.DefineDouble("drop", 0.1, "i.i.d. message drop probability");
  flags.DefineDouble("crash_time", 1.0,
                     "virtual network second node 1 crashes at (< 0 = "
                     "never); the virtual clock spans batches and "
                     "advances ~0.5s per batch");
  flags.DefineInt64("seed", 11, "generator + network seed");
  flags.ParseOrExit(argc, argv);
  const int m = static_cast<int>(flags.GetInt64("workers"));
  const int n = static_cast<int>(flags.GetInt64("tasks"));
  const double horizon = static_cast<double>(flags.GetInt64("hours"));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt64("seed"));

  casc::Rng rng(seed);
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
  config.min_group_size = 3;

  casc::DistributedConfig dist;
  dist.num_nodes = static_cast<int>(flags.GetInt64("nodes"));
  dist.network.seed = seed ^ 0xD15C0;
  dist.network.drop_rate = flags.GetDouble("drop");
  dist.network.base_delay = 0.02;
  dist.network.jitter = 0.01;
  dist.network.solve_seconds = 0.2;
  dist.protocol.retry_timeout = 1.0;
  dist.protocol.max_attempts = 4;
  dist.protocol.heartbeat_interval = 0.5;
  // Batches advance the one shared virtual clock, so a crash scheduled
  // between two batch epochs takes out whatever that node was serving.
  const double crash_time = flags.GetDouble("crash_time");
  if (crash_time >= 0.0) {
    dist.network.crashes.push_back(
        {/*node=*/1, /*time=*/crash_time, /*restart_time=*/-1.0});
  }

  casc::DistributedDispatchService service(config, dist, &coop, [] {
    casc::GtOptions options;
    options.use_tsi = true;
    options.use_lub = true;
    return std::make_unique<casc::GtAssigner>(options);
  });
  std::printf("mode: %s\n",
              service.distributed() ? "distributed (simulated network)"
                                    : "in-process (kill switch)");

  const casc::RunSummary summary = service.Run(stream);

  std::printf(
      "hour  workers  assigned  lost  retries  failover  msgs  rtt_p99\n");
  for (size_t i = 0; i < summary.batches.size(); ++i) {
    const casc::BatchMetrics& batch = summary.batches[i];
    const casc::ServiceMetrics& metrics =
        service.service().batch_metrics()[i];
    std::printf("%4.0f  %7d  %8d  %4d  %7d  %8d  %4lld  %6.3fs\n",
                batch.now, batch.num_workers, batch.assigned_workers,
                metrics.lost_shards, metrics.net_retries,
                metrics.net_failovers,
                static_cast<long long>(metrics.net_messages),
                metrics.net_rtt_p99_seconds);
  }
  std::printf("\nday total: Q = %.2f over %lld started tasks\n",
              summary.TotalScore(),
              static_cast<long long>(summary.TotalCompletedTasks()));
  if (service.net_solver() != nullptr) {
    const casc::NetStats& stats = service.net_solver()->net_stats();
    std::printf("network: %lld msgs, %lld bytes, %lld dropped "
                "(%lld rng, %lld partition, %lld dead), %lld crashes\n",
                static_cast<long long>(stats.messages_sent),
                static_cast<long long>(stats.bytes_sent),
                static_cast<long long>(stats.TotalDropped()),
                static_cast<long long>(stats.dropped_rng),
                static_cast<long long>(stats.dropped_partition),
                static_cast<long long>(stats.dropped_dead),
                static_cast<long long>(stats.crashes));
  }
  return 0;
}
