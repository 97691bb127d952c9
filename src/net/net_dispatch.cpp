#include "net/net_dispatch.h"

#include <cstdlib>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/stopwatch.h"
#include "model/objective_model.h"

namespace casc {

bool DistributedEnabled(const DistributedConfig& config) {
  return config.enabled && std::getenv("CASC_NO_DISTRIBUTED") == nullptr;
}

NetShardedAssigner::NetShardedAssigner(ShardedOptions options,
                                       DistributedConfig config,
                                       AssignerFactory factory)
    : options_(options),
      config_(config),
      factory_(std::move(factory)),
      executor_(options.num_threads),
      sim_(config.network),
      coordinator_(options.reconcile, config.protocol, config.num_nodes) {
  CASC_CHECK(factory_ != nullptr);
  CASC_CHECK_GE(config_.num_nodes, 1);
  CASC_CHECK_GT(config_.max_events_per_batch, 0);
  for (const CrashEvent& crash : config_.network.crashes) {
    CASC_CHECK_NE(crash.node, kCoordinatorNode)
        << "the coordinator is durable by assumption; crash a shard node";
    CASC_CHECK_GE(crash.node, 1);
    CASC_CHECK_LE(crash.node, config_.num_nodes);
  }
  sim_.AddNode(kCoordinatorNode, &coordinator_);
  for (int n = 1; n <= config_.num_nodes; ++n) {
    nodes_.push_back(std::make_unique<ShardSolverNode>(
        factory_, config_.network.solve_seconds));
    sim_.AddNode(n, nodes_.back().get());
  }
}

Assignment NetShardedAssigner::Solve(const Instance& instance) {
  CASC_CHECK(instance.valid_pairs_ready());
  metrics_ = ServiceMetrics{};

  // Same staleness guard as the in-process ShardedAssigner: a delta that
  // does not match this instance degrades to a cold batch.
  const SolveDelta* delta = delta_;
  if (delta != nullptr &&
      (delta->num_carried == 0 ||
       static_cast<int>(delta->seed_task.size()) != instance.num_workers())) {
    delta = nullptr;
  }

  Stopwatch watch;
  ShardMapConfig map_config;
  map_config.shards_per_side = options_.shards_per_side;
  map_config.world = options_.world;
  const ShardMap map(instance.workers(), instance.tasks(), map_config);
  // Reclaim the previous batch's CSR capacity when no straggler message
  // still references the old table (the common case).
  if (problems_ != nullptr && problems_.use_count() == 1) {
    executor_.RecycleProblems(problems_.get());
  }
  problems_ = std::make_shared<std::vector<ShardProblem>>(
      executor_.BuildProblems(instance, map, delta));
  metrics_.partition_seconds = watch.ElapsedSeconds();

  const ShardLoadStats load = map.LoadStats();
  metrics_.num_shards = map.num_shards();
  metrics_.shard_workers = load.workers_per_shard;
  metrics_.shard_tasks = load.tasks_per_shard;
  metrics_.interior_workers = load.interior_workers;
  metrics_.boundary_workers = load.boundary_workers;

  const NetStats before = sim_.stats();
  Assignment assignment = workspace_ != nullptr
                              ? workspace_->AcquireAssignment(instance)
                              : Assignment(instance);
  NodeContext context = sim_.MakeContext(kCoordinatorNode);
  watch.Restart();
  coordinator_.StartBatch(context, &instance, &map, problems_,
                          std::move(assignment), delta);
  const bool finished = sim_.RunUntil(
      [this] { return coordinator_.done(); }, config_.max_events_per_batch);
  CASC_CHECK(finished)
      << "distributed batch did not terminate: the protocol stalled or "
         "exceeded the per-batch event budget";
  // The whole message-driven solve + reconcile rounds count as phase 1;
  // phase 2 has no separate wall time here (its passes run inside the
  // round trips).
  metrics_.phase1_seconds = watch.ElapsedSeconds();
  Assignment result = coordinator_.TakeAssignment();

  const NetBatchStats& batch = coordinator_.batch_stats();
  metrics_.shard_seconds = batch.shard_seconds;
  metrics_.prune_evals = batch.prune_evals;
  metrics_.feasibility_rejects = batch.feasibility_rejects;
  metrics_.objective = std::string(instance.objective().Id());
  metrics_.adopted_boundary = batch.reconcile.adopted;
  metrics_.inserted_boundary = batch.reconcile.inserted;
  metrics_.seeded_boundary = batch.reconcile.seeded;
  metrics_.polish_moves = batch.reconcile.polish_moves;
  metrics_.solve_rounds = batch.solve_rounds;
  metrics_.solve_moves = batch.solve_moves;
  metrics_.dirty_workers = batch.dirty_workers;
  metrics_.dirty_fraction =
      instance.num_workers() > 0
          ? static_cast<double>(batch.dirty_workers) /
                static_cast<double>(instance.num_workers())
          : 0.0;
  metrics_.warm_started = batch.warm_started;
  metrics_.lost_shards = batch.lost_shards;
  metrics_.net_retries = batch.retries;
  metrics_.net_failovers = batch.failovers;
  metrics_.net_rtt_p50_seconds = batch.rtt_p50_seconds;
  metrics_.net_rtt_p99_seconds = batch.rtt_p99_seconds;
  const NetStats& after = sim_.stats();
  metrics_.net_messages = after.messages_sent - before.messages_sent;
  metrics_.net_bytes = after.bytes_sent - before.bytes_sent;
  metrics_.net_dropped = after.TotalDropped() - before.TotalDropped();
  return result;
}

DistributedDispatchService::DistributedDispatchService(
    DispatchConfig config, DistributedConfig dist,
    const CooperationMatrix* global_coop, AssignerFactory factory)
    : service_(config, global_coop, factory) {
  if (DistributedEnabled(dist)) {
    net_ = std::make_unique<NetShardedAssigner>(config.sharded, dist,
                                                std::move(factory));
    service_.set_batch_solver(net_.get());
  }
}

}  // namespace casc
