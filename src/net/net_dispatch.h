#ifndef CASC_NET_NET_DISPATCH_H_
#define CASC_NET_NET_DISPATCH_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "net/coordinator.h"
#include "net/network_config.h"
#include "net/shard_node.h"
#include "net/simulator.h"
#include "service/boundary_reconciler.h"
#include "service/dispatch_service.h"

namespace casc {

/// Configuration of the distributed dispatch mode: how many simulated
/// solver nodes to run, the network fault/latency model and the
/// coordinator protocol knobs.
struct DistributedConfig {
  /// Shard solver nodes (>= 1), at ids 1..num_nodes; the coordinator is
  /// node 0 and is durable (crash events must not target it).
  int num_nodes = 4;

  NetworkConfig network;
  ProtocolConfig protocol;
};

/// The message-driven ShardedBatchSolver: runs each batch as one epoch
/// of the coordinator/shard-node protocol over a deterministic simulated
/// network. Owns the simulator and the nodes for its whole lifetime, so
/// the virtual clock, fault schedule and crash events span batches — a
/// node that crashes in batch 3 is still down in batch 4 until its
/// scheduled restart.
///
/// Solve() follows ShardedAssigner::Run step for step: PartitionBatch;
/// phase 1 over the network (the coordinator dispatches, retries, fails
/// over and folds); one BoundaryReconciler::Reconcile at the coordinator
/// over the boundary workers plus every lost shard's home workers; an
/// acked commit round; FoldSolveTelemetry.
///
/// Determinism: for a fixed (options, config, factory) and instance
/// sequence, every run produces bit-identical assignments and identical
/// NetStats. The assignments are also bit-identical to the in-process
/// ShardedAssigner whatever the delays and drops, as long as no shard is
/// lost and, in a warm batch, none fails over (a failed-over shard
/// re-solves cold): shard results are folded in ascending shard order
/// regardless of arrival order, and phase 2 is the same call.
///
/// To stream over the network, hand one to
/// DispatchService::set_batch_solver: admission, carry-over and commit
/// stay in the service, only the per-batch solve moves.
class NetShardedAssigner : public ShardedBatchSolver {
 public:
  NetShardedAssigner(ShardedOptions options, DistributedConfig config,
                     AssignerFactory factory);

  Assignment Solve(const Instance& instance) override;
  const ServiceMetrics& metrics() const override { return metrics_; }
  void AttachWorkspace(BatchWorkspace* workspace) override {
    workspace_ = workspace;
  }
  void SetSolveDelta(const SolveDelta* delta) override { delta_ = delta; }

  /// Cumulative wire statistics across all batches so far.
  const NetStats& net_stats() const { return sim_.stats(); }

  /// Stats of the most recent batch, from the coordinator's seat.
  const NetBatchStats& batch_stats() const {
    return coordinator_.batch_stats();
  }

  /// Test oracles.
  NetworkSimulator& simulator() { return sim_; }
  const ShardSolverNode& shard_node(int i) const { return *nodes_[i]; }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }

 private:
  ShardedOptions options_;
  DistributedConfig config_;
  AssignerFactory factory_;
  /// Builds and recycles the problems; its pool serves phase 2's polish.
  ShardExecutor executor_;
  BoundaryReconciler reconciler_;
  NetworkSimulator sim_;
  CoordinatorNode coordinator_;
  std::vector<std::unique_ptr<ShardSolverNode>> nodes_;
  BatchWorkspace* workspace_ = nullptr;
  /// The in-flight batch's problem table; shared so straggler dispatch
  /// messages keep it alive. Recycled at the next Solve() when this is
  /// again the sole owner.
  std::shared_ptr<std::vector<ShardProblem>> problems_;
  ServiceMetrics metrics_;
  /// Next batch's cross-batch warm-start export (null = cold); sliced
  /// per shard into the problem table, stamped on every kDispatch and
  /// handed to Reconcile. Not owned; the streaming loop re-attaches a
  /// fresh delta every batch.
  const SolveDelta* delta_ = nullptr;
};

}  // namespace casc

#endif  // CASC_NET_NET_DISPATCH_H_
