#include "net/net_dispatch.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "common/check.h"
#include "common/stopwatch.h"

namespace casc {
namespace {

/// Simulator events one run may process; a batch runs twice, to the fold
/// and then to the commit. The livelock backstop behind the termination
/// guarantee: a run exceeding it is a protocol bug and fails a CHECK.
constexpr int64_t kMaxEventsPerRun = 10'000'000;

/// Phase 2's workers: the boundary workers plus the home workers of every
/// lost shard, ascending and unique.
std::vector<WorkerIndex> PhaseTwoWorkers(const ShardMap& map,
                                         const std::vector<char>& shard_lost) {
  std::vector<WorkerIndex> workers = map.boundary_workers();
  for (size_t s = 0; s < shard_lost.size(); ++s) {
    if (shard_lost[s] == 0) continue;
    const std::vector<WorkerIndex>& home =
        map.HomeWorkersOf(static_cast<int>(s));
    workers.insert(workers.end(), home.begin(), home.end());
  }
  if (workers.size() > map.boundary_workers().size()) {
    // A lost shard's boundary members are already in the set.
    std::sort(workers.begin(), workers.end());
    workers.erase(std::unique(workers.begin(), workers.end()), workers.end());
  }
  return workers;
}

}  // namespace

NetShardedAssigner::NetShardedAssigner(ShardedOptions options,
                                       DistributedConfig config,
                                       AssignerFactory factory)
    : options_(options),
      config_(config),
      factory_(std::move(factory)),
      executor_(options.num_threads),
      reconciler_(options.reconcile),
      sim_(config.network),
      coordinator_(config.protocol, config.num_nodes) {
  CASC_CHECK(factory_ != nullptr);
  CASC_CHECK_GE(config_.num_nodes, 1);
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
  const auto run_until = [this](const std::function<bool()>& reached) {
    CASC_CHECK(sim_.RunUntil(reached, kMaxEventsPerRun))
        << "distributed batch did not terminate: the protocol stalled or "
           "exceeded the event budget";
  };
  Assignment assignment = workspace_ != nullptr
                              ? workspace_->AcquireAssignment(instance)
                              : Assignment(instance);
  NodeContext context = sim_.MakeContext(kCoordinatorNode);

  // Phase 1 over the network: dispatch, retries, failover and the fold.
  Stopwatch watch;
  coordinator_.StartBatch(context, &instance, problems_,
                          std::move(assignment), partition.delta);
  run_until([this] { return coordinator_.folded(); });
  metrics_.phase1_seconds = watch.ElapsedSeconds();
  assignment = coordinator_.TakeFolded();
  const NetBatchStats& batch = coordinator_.batch_stats();

  watch.Restart();
  const ReconcileStats reconcile = reconciler_.Reconcile(
      instance, PhaseTwoWorkers(partition.map, batch.shard_lost),
      &assignment, partition.delta, executor_.pool());
  metrics_.phase2_seconds = watch.ElapsedSeconds();

  // The commit round is transport; neither phase's time covers it.
  coordinator_.Commit(context, assignment.Pairs());
  run_until([this] { return coordinator_.done(); });

  metrics_.shard_seconds = batch.shard_seconds;
  FoldSolveTelemetry(batch.shard_stats, reconcile, instance.num_workers(),
                     &metrics_);
  metrics_.lost_shards = static_cast<int>(
      std::count(batch.shard_lost.begin(), batch.shard_lost.end(), 1));
  metrics_.net_retries = batch.retries;
  metrics_.net_failovers = batch.failovers;
  metrics_.net_rtt_p50_seconds = batch.rtt_p50_seconds;
  metrics_.net_rtt_p99_seconds = batch.rtt_p99_seconds;
  const NetStats& after = sim_.stats();
  metrics_.net_messages = after.messages_sent - before.messages_sent;
  metrics_.net_bytes = after.bytes_sent - before.bytes_sent;
  metrics_.net_dropped = after.TotalDropped() - before.TotalDropped();
  return assignment;
}

}  // namespace casc
