#include "net/net_dispatch.h"

#include <utility>

#include "common/check.h"
#include "common/stopwatch.h"

namespace casc {

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

  // Reclaim the previous batch's CSR capacity when no straggler message
  // still references the old table (the common case).
  if (problems_ != nullptr && problems_.use_count() == 1) {
    executor_.RecycleProblems(problems_.get());
  }
  BatchPartition partition =
      PartitionBatch(instance, options_, delta_, &executor_, &metrics_);
  problems_ = std::make_shared<std::vector<ShardProblem>>(
      std::move(partition.problems));

  const NetStats before = sim_.stats();
  Assignment assignment = workspace_ != nullptr
                              ? workspace_->AcquireAssignment(instance)
                              : Assignment(instance);
  NodeContext context = sim_.MakeContext(kCoordinatorNode);
  Stopwatch watch;
  coordinator_.StartBatch(context, &instance, &partition.map, problems_,
                          std::move(assignment), partition.delta);
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
  FoldSolveTelemetry(batch.shard_stats, batch.reconcile,
                     instance.num_workers(), &metrics_);
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

}  // namespace casc
