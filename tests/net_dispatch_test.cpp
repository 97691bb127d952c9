#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "algo/gt_assigner.h"
#include "common/rng.h"
#include "gen/synthetic.h"
#include "gen/trace.h"
#include "model/objective.h"
#include "net/net_dispatch.h"
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

ShardedOptions MakeOptions(int shards_per_side, int num_threads = 1) {
  ShardedOptions options;
  options.shards_per_side = shards_per_side;
  options.num_threads = num_threads;
  return options;
}

/// Both solvers share the partition prologue and the telemetry fold, so
/// every ServiceMetrics field that depends on neither timing nor the
/// transport must agree between the network and in-process paths.
void ExpectSameDeterministicMetrics(const ServiceMetrics& actual,
                                    const ServiceMetrics& expected,
                                    const std::string& label) {
  EXPECT_EQ(actual.num_shards, expected.num_shards) << label;
  EXPECT_EQ(actual.shard_workers, expected.shard_workers) << label;
  EXPECT_EQ(actual.shard_tasks, expected.shard_tasks) << label;
  EXPECT_EQ(actual.interior_workers, expected.interior_workers) << label;
  EXPECT_EQ(actual.boundary_workers, expected.boundary_workers) << label;
  EXPECT_EQ(actual.adopted_boundary, expected.adopted_boundary) << label;
  EXPECT_EQ(actual.inserted_boundary, expected.inserted_boundary) << label;
  EXPECT_EQ(actual.seeded_boundary, expected.seeded_boundary) << label;
  EXPECT_EQ(actual.polish_moves, expected.polish_moves) << label;
  EXPECT_EQ(actual.solve_rounds, expected.solve_rounds) << label;
  EXPECT_EQ(actual.solve_moves, expected.solve_moves) << label;
  EXPECT_EQ(actual.dirty_workers, expected.dirty_workers) << label;
  EXPECT_EQ(actual.dirty_fraction, expected.dirty_fraction) << label;
  EXPECT_EQ(actual.warm_started, expected.warm_started) << label;
  EXPECT_EQ(actual.prune_evals, expected.prune_evals) << label;
  EXPECT_EQ(actual.feasibility_rejects, expected.feasibility_rejects)
      << label;
  EXPECT_EQ(actual.lost_shards, expected.lost_shards) << label;
  EXPECT_EQ(actual.objective, expected.objective) << label;
  EXPECT_EQ(actual.admitted_tasks, expected.admitted_tasks) << label;
  EXPECT_EQ(actual.deferred_tasks, expected.deferred_tasks) << label;
  EXPECT_EQ(actual.queue_depth, expected.queue_depth) << label;
}

// ---------------------------------------------------------------------------
// Bit-identity: zero-delay zero-loss network == in-process ShardedAssigner
// ---------------------------------------------------------------------------

TEST(NetDispatchTest, ZeroFaultNetworkBitIdenticalToInProcess) {
  for (const uint64_t seed : {1u, 7u, 23u}) {
    const Instance instance = SmallInstance(240, 80, seed);
    for (const int s_per_side : {1, 2, 4}) {
      ShardedAssigner in_process(MakeOptions(s_per_side), GtFactory());
      const Assignment expected = in_process.Run(instance);

      DistributedConfig dist;
      dist.num_nodes = 3;
      NetShardedAssigner net(MakeOptions(s_per_side), dist, GtFactory());
      const Assignment actual = net.Solve(instance);
      const std::string label =
          "seed " + std::to_string(seed) + " S " + std::to_string(s_per_side);
      EXPECT_EQ(actual.Pairs(), expected.Pairs()) << label;
      ExpectSameDeterministicMetrics(net.metrics(), in_process.metrics(),
                                     label);
      EXPECT_GT(net.metrics().net_messages, 0);
      EXPECT_EQ(net.metrics().net_dropped, 0);
      EXPECT_EQ(net.metrics().lost_shards, 0);
      EXPECT_EQ(net.metrics().net_failovers, 0);
    }
  }
}

TEST(NetDispatchTest, DelaysAndJitterReorderArrivalsButNotTheResult) {
  // Jittered delays permute the order shard results reach the
  // coordinator; the ascending-shard fold makes the assignment identical
  // anyway — the end-to-end order-independence property.
  const Instance instance = SmallInstance(260, 90, 5);
  ShardedAssigner in_process(MakeOptions(3), GtFactory());
  const Assignment expected = in_process.Run(instance);
  for (const uint64_t net_seed : {11u, 12u, 13u}) {
    DistributedConfig dist;
    dist.num_nodes = 4;
    dist.network.base_delay = 0.01;
    dist.network.jitter = 0.05;
    dist.network.solve_seconds = 0.02;
    dist.network.seed = net_seed;
    dist.protocol.retry_timeout = 10.0;  // delays alone must not retry
    NetShardedAssigner net(MakeOptions(3), dist, GtFactory());
    const Assignment actual = net.Solve(instance);
    EXPECT_EQ(actual.Pairs(), expected.Pairs()) << "net seed " << net_seed;
    EXPECT_EQ(net.metrics().net_retries, 0);
  }
}

TEST(NetDispatchTest, DropsWithRetriesStillConvergeToTheSameAssignment) {
  // Retries re-draw the drop coin, so with enough attempts every shard
  // result eventually lands and the batch is bit-identical to the
  // fault-free run: drops cost latency and bytes, not quality.
  const Instance instance = SmallInstance(220, 70, 9);
  ShardedAssigner in_process(MakeOptions(2), GtFactory());
  const Assignment expected = in_process.Run(instance);

  DistributedConfig dist;
  dist.num_nodes = 3;
  dist.network.drop_rate = 0.25;
  dist.network.base_delay = 0.01;
  dist.protocol.retry_timeout = 0.1;
  dist.protocol.max_attempts = 12;  // enough that loss of a shard is
                                    // astronomically unlikely
  NetShardedAssigner net(MakeOptions(2), dist, GtFactory());
  const Assignment actual = net.Solve(instance);
  EXPECT_EQ(actual.Pairs(), expected.Pairs());
  EXPECT_EQ(net.metrics().lost_shards, 0);
  EXPECT_GT(net.metrics().net_dropped, 0);
  EXPECT_GT(net.metrics().net_retries, 0);
}

TEST(NetDispatchTest, ReplaySameConfigSameSeedIsIdentical) {
  const Instance instance = SmallInstance(200, 60, 3);
  const auto run = [&](uint64_t seed) {
    DistributedConfig dist;
    dist.num_nodes = 3;
    dist.network.drop_rate = 0.2;
    dist.network.jitter = 0.02;
    dist.network.seed = seed;
    dist.protocol.retry_timeout = 0.1;
    dist.protocol.max_attempts = 10;
    NetShardedAssigner net(MakeOptions(2), dist, GtFactory());
    Assignment assignment = net.Solve(instance);
    return std::make_pair(assignment.Pairs(), net.net_stats().messages_sent);
  };
  const auto [pairs_a, sent_a] = run(77);
  const auto [pairs_b, sent_b] = run(77);
  EXPECT_EQ(pairs_a, pairs_b);
  EXPECT_EQ(sent_a, sent_b);
}

// ---------------------------------------------------------------------------
// Failover
// ---------------------------------------------------------------------------

TEST(NetDispatchTest, DeadNodeFailsOverAndTheBatchStillMatches) {
  // Node 1 is down from the start and never returns. Its shards fail
  // over to the survivors; since every solver is deterministic the final
  // assignment still matches the in-process run exactly.
  const Instance instance = SmallInstance(240, 80, 13);
  ShardedAssigner in_process(MakeOptions(2), GtFactory());
  const Assignment expected = in_process.Run(instance);

  DistributedConfig dist;
  dist.num_nodes = 3;
  dist.network.crashes.push_back({/*node=*/1, /*time=*/0.0,
                                  /*restart_time=*/-1.0});
  dist.protocol.retry_timeout = 0.05;
  dist.protocol.max_attempts = 2;
  NetShardedAssigner net(MakeOptions(2), dist, GtFactory());
  const Assignment actual = net.Solve(instance);
  EXPECT_EQ(actual.Pairs(), expected.Pairs());
  EXPECT_GT(net.metrics().net_failovers, 0);
  EXPECT_EQ(net.metrics().lost_shards, 0);
  EXPECT_TRUE(actual.Validate(instance).ok());
}

TEST(NetDispatchTest, AllNodesDeadLosesShardsButCommitsAValidBatch) {
  // Every solver node is gone: all shards are lost and their workers go
  // through phase 2, which still commits a valid assignment (degraded,
  // not deadlocked).
  const Instance instance = SmallInstance(150, 50, 21);
  DistributedConfig dist;
  dist.num_nodes = 2;
  dist.network.crashes.push_back({1, 0.0, -1.0});
  dist.network.crashes.push_back({2, 0.0, -1.0});
  dist.protocol.retry_timeout = 0.05;
  dist.protocol.max_attempts = 2;
  NetShardedAssigner net(MakeOptions(2), dist, GtFactory());
  const Assignment assignment = net.Solve(instance);
  EXPECT_TRUE(assignment.Validate(instance).ok());
  EXPECT_GT(net.metrics().lost_shards, 0);
  // Phase 2 (the in-process Reconcile call, over the lost shards'
  // workers) recovers real work even with zero solver nodes.
  EXPECT_GT(assignment.NumAssigned(), 0);
}

TEST(NetDispatchTest, RestartedNodeReSolvesAfterCacheLoss) {
  // Crash node 1 mid-run with a restart: batches after the restart
  // dispatch to it again and it re-solves from a clean slate.
  const Instance instance = SmallInstance(200, 60, 31);
  DistributedConfig dist;
  dist.num_nodes = 2;
  dist.network.solve_seconds = 0.1;
  dist.network.crashes.push_back({1, 0.05, 0.3});
  dist.protocol.retry_timeout = 0.2;
  dist.protocol.max_attempts = 4;
  dist.protocol.heartbeat_interval = 0.1;
  NetShardedAssigner net(MakeOptions(2), dist, GtFactory());
  const Assignment first = net.Solve(instance);
  EXPECT_TRUE(first.Validate(instance).ok());
  // Second batch on the same network: node 1 restarted and serves again.
  const Assignment second = net.Solve(instance);
  EXPECT_EQ(first.Pairs(), second.Pairs());
  EXPECT_EQ(net.simulator().stats().crashes, 1);
  EXPECT_EQ(net.simulator().stats().restarts, 1);
}

// ---------------------------------------------------------------------------
// DispatchService integration
// ---------------------------------------------------------------------------

/// Streaming scenario on one global matrix (mirrors sharded_dispatch_test).
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

/// A 30-batch warm stream with short reaches and a rush, so phase 2
/// finds idle boundary workers for every one of its passes.
Trace WarmTrace() {
  TraceConfig config;
  config.horizon = 30.0;
  config.worker_rate = 12.0;
  config.task_rate = 5.0;
  config.rush_windows.push_back({0.0, 9.0, 3.0});
  config.worker.radius_min = 0.10;
  config.worker.radius_max = 0.20;
  config.worker.speed_min = 0.05;
  config.worker.speed_max = 0.10;
  config.task.remaining_time = 6.0;
  config.task.capacity = 4;
  Rng rng(2019);
  return GenerateTrace(config, &rng);
}

TEST(NetDispatchServiceTest, StreamingMatchesInProcessAtZeroFaults) {
  // Both paths run phase 2 through the same Reconcile call, so on a warm
  // stream the net path's reconcile counts equal the in-process ones at
  // any shard-thread count, and it times its phase 2.
  const Trace trace = WarmTrace();
  const CooperationMatrix coop = CooperationMatrix::Procedural(
      static_cast<int>(trace.workers.size()), 2019);
  const EventStream stream(trace.workers, trace.tasks);
  for (const int threads : {1, 4}) {
    DispatchConfig config;
    config.sharded = MakeOptions(2, threads);
    config.min_group_size = 3;
    config.task_duration = 2.0;
    config.max_tasks_per_batch = 30;
    const std::string label = "threads " + std::to_string(threads);

    DispatchService in_process(config, &coop, GtFactory());
    const RunSummary expected = in_process.Run(stream);

    DistributedConfig dist;
    dist.num_nodes = 3;
    NetShardedAssigner net(config.sharded, dist, GtFactory());
    DispatchService distributed(config, &coop, GtFactory());
    distributed.set_batch_solver(&net);
    const RunSummary actual = distributed.Run(stream);

    ASSERT_EQ(actual.batches.size(), expected.batches.size()) << label;
    for (size_t i = 0; i < expected.batches.size(); ++i) {
      EXPECT_DOUBLE_EQ(actual.batches[i].score, expected.batches[i].score);
      EXPECT_EQ(actual.batches[i].assigned_workers,
                expected.batches[i].assigned_workers);
      EXPECT_EQ(actual.batches[i].completed_tasks,
                expected.batches[i].completed_tasks);
      EXPECT_EQ(actual.batches[i].gt_rounds, expected.batches[i].gt_rounds);
    }
    const std::vector<ServiceMetrics>& net_metrics =
        distributed.batch_metrics();
    const std::vector<ServiceMetrics>& local_metrics =
        in_process.batch_metrics();
    ASSERT_EQ(net_metrics.size(), local_metrics.size()) << label;
    bool saw_messages = false;
    bool saw_warm = false;
    int phase2_timed = 0;
    ReconcileStats phase2;  // summed over the stream, for non-vacuity
    for (size_t i = 0; i < local_metrics.size(); ++i) {
      ExpectSameDeterministicMetrics(
          net_metrics[i], local_metrics[i],
          label + " batch " + std::to_string(i));
      saw_messages = saw_messages || net_metrics[i].net_messages > 0;
      saw_warm = saw_warm || local_metrics[i].warm_started;
      if (local_metrics[i].phase2_seconds > 0.0) {
        EXPECT_GT(net_metrics[i].phase2_seconds, 0.0)
            << label << " batch " << i;
        ++phase2_timed;
      }
      phase2.adopted += local_metrics[i].adopted_boundary;
      phase2.inserted += local_metrics[i].inserted_boundary;
      phase2.seeded += local_metrics[i].seeded_boundary;
      phase2.polish_moves += local_metrics[i].polish_moves;
    }
    // The network path reported real traffic, the stream exercised the
    // warm-start handoff on both paths, and phase 2 did work of each kind.
    EXPECT_TRUE(saw_messages) << label;
    EXPECT_TRUE(saw_warm) << label;
    EXPECT_GT(phase2_timed, 0) << label;
    EXPECT_GT(phase2.adopted, 0) << label;
    EXPECT_GT(phase2.inserted, 0) << label;
    EXPECT_GT(phase2.seeded, 0) << label;
    EXPECT_GT(phase2.polish_moves, 0) << label;
  }
}

TEST(NetDispatchServiceTest, LostShardWorkersReplayNextBatch) {
  // All workers arrive at t=0, there is a single shard and its only
  // solver node is down from the start, so batch 0's phase-1 result is
  // lost. The lost shard's workers go through the reconcile passes; every
  // worker those leave idle must re-enter batch 1's admission, while the
  // batch-0 assignees stay busy (task_duration > batch_interval).
  ServiceFixture fixture(36, 16, 2.0, 91);
  for (Worker& worker : fixture.workers) worker.arrival_time = 0.0;
  for (int j = 0; j < 16; ++j) {
    fixture.tasks[j].create_time = j < 8 ? 0.0 : 1.0;
    fixture.tasks[j].deadline = fixture.tasks[j].create_time + 3.0;
  }
  const EventStream stream(fixture.workers, fixture.tasks);

  DispatchConfig config;
  config.sharded = MakeOptions(1);
  config.batch_interval = 1.0;
  config.task_duration = 5.0;
  DistributedConfig dist;
  dist.num_nodes = 1;
  dist.network.crashes.push_back({/*node=*/1, /*time=*/0.0,
                                  /*restart_time=*/-1.0});
  dist.protocol.retry_timeout = 0.05;
  dist.protocol.max_attempts = 2;
  NetShardedAssigner net(config.sharded, dist, GtFactory());
  DispatchService service(config, &fixture.coop, GtFactory());
  service.set_batch_solver(&net);
  const RunSummary summary = service.Run(stream);
  const std::vector<ServiceMetrics>& metrics = service.batch_metrics();

  ASSERT_GE(summary.batches.size(), 2u);
  EXPECT_GT(metrics[0].lost_shards, 0);
  EXPECT_GT(summary.batches[0].assigned_workers, 0);  // placed by phase 2
  EXPECT_EQ(summary.batches[1].num_workers,
            36 - summary.batches[0].assigned_workers);
}

// ---------------------------------------------------------------------------
// Fault-injection fuzz: validity, termination, retention
// ---------------------------------------------------------------------------

/// Retention floor the fuzz asserts: even under drops, a partition window
/// and a node crash, a batch must keep at least this fraction of the
/// fault-free run's assigned workers (failover + absorption make the
/// realistic outcome 100%; the floor guards the degraded worst case).
constexpr double kRetentionFloor = 0.25;

TEST(NetDispatchFuzzTest, SeededFaultsPreserveValidityTerminationRetention) {
  const Instance instance = SmallInstance(140, 48, 77);
  ShardedAssigner in_process(MakeOptions(2), GtFactory());
  const Assignment baseline = in_process.Run(instance);
  const int baseline_assigned = baseline.NumAssigned();
  ASSERT_GT(baseline_assigned, 0);

  int identical = 0;
  int degraded = 0;
  for (uint64_t seed = 0; seed < 100; ++seed) {
    Rng rng(seed * 2654435761u + 1);
    DistributedConfig dist;
    dist.num_nodes = 3;
    dist.network.seed = seed + 1;
    dist.network.drop_rate = rng.Uniform(0.0, 0.4);
    dist.network.base_delay = rng.Uniform(0.0, 0.05);
    dist.network.jitter = rng.Uniform(0.0, 0.02);
    dist.network.solve_seconds = rng.Uniform(0.0, 0.05);
    // One partition window separating one node from the rest.
    NetPartition partition;
    partition.start = rng.Uniform(0.0, 0.5);
    partition.end = partition.start + rng.Uniform(0.1, 1.5);
    partition.island = {static_cast<NodeId>(1 + seed % 3)};
    dist.network.partitions.push_back(partition);
    // One crash; 50% of the seeds let the node come back.
    CrashEvent crash;
    crash.node = static_cast<NodeId>(1 + (seed / 3) % 3);
    crash.time = rng.Uniform(0.0, 0.5);
    crash.restart_time =
        rng.Bernoulli(0.5) ? crash.time + rng.Uniform(0.1, 1.0) : -1.0;
    dist.network.crashes.push_back(crash);
    // Arbitrary timeout/retry settings: termination must not depend on
    // them being tuned.
    dist.protocol.retry_timeout = rng.Uniform(0.02, 0.5);
    // Spare draw: each seed keeps the attempt and heartbeat draws the
    // retention floor was set against.
    (void)rng.Bernoulli(0.5);
    dist.protocol.max_attempts = 1 + static_cast<int>(rng.Uniform(0.0, 6.0));
    dist.protocol.heartbeat_interval =
        rng.Bernoulli(0.5) ? 0.0 : rng.Uniform(0.05, 0.3);

    NetShardedAssigner net(MakeOptions(2), dist, GtFactory());
    // Termination: Solve CHECK-fails (and kills the test) if the
    // protocol stalls or blows the event budget.
    const Assignment assignment = net.Solve(instance);

    const Status status = assignment.Validate(instance);
    ASSERT_TRUE(status.ok()) << "seed " << seed << ": " << status.message();
    const double retention = static_cast<double>(assignment.NumAssigned()) /
                             static_cast<double>(baseline_assigned);
    EXPECT_GE(retention, kRetentionFloor) << "seed " << seed;
    if (net.metrics().lost_shards == 0 &&
        assignment.Pairs() == baseline.Pairs()) {
      ++identical;
    } else {
      ++degraded;
    }
  }
  // With bounded faults and failover, most seeds recover the exact
  // fault-free assignment; all of them stay valid and above the floor.
  EXPECT_GT(identical, 50) << "identical=" << identical
                           << " degraded=" << degraded;
}

}  // namespace
}  // namespace casc
