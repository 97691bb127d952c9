#ifndef CASC_NET_SHARD_NODE_H_
#define CASC_NET_SHARD_NODE_H_

#include <cstdint>
#include <map>
#include <tuple>
#include <vector>

#include "model/batch_workspace.h"
#include "net/node.h"
#include "service/shard_executor.h"

namespace casc {

/// A simulated shard solver node: receives kDispatch messages, runs the
/// factory's (deterministic, single-threaded) assigner over the carried
/// ShardProblem, and replies with the local assignment as kShardResult —
/// the reply doubles as the dispatch ack. Reconcile and commit broadcasts
/// are applied to the node's view of the batch and acked.
///
/// Results are cached by (epoch, shard, skeleton_epoch): a retransmitted
/// dispatch — the coordinator timing out on a lost result — is answered
/// from the cache instead of re-solving, so retries cost wire time, not
/// compute. The skeleton epoch is part of the key because the same
/// (epoch, shard) can legitimately be asked for both warm (the original
/// dispatch) and cold (a re-dispatch after this node rejoined following
/// a failover elsewhere) — the two solves may differ, and serving the
/// stale warm result for a cold request would desynchronize the fold.
/// The cache is volatile: a crash clears it (OnCrash), and a re-dispatch
/// after restart re-solves from scratch, producing the identical result
/// because the solver is deterministic.
class ShardSolverNode : public Node {
 public:
  /// `solve_delay` is the virtual compute time a solve occupies before
  /// the result hits the wire (NetworkConfig::solve_seconds).
  ShardSolverNode(AssignerFactory factory, double solve_delay);

  void OnMessage(NetContext& net, NodeId from, const Message& msg) override;
  void OnTimer(NetContext& net, int timer_id) override;
  void OnCrash() override;
  void OnRestart(NetContext& net) override;

  /// Solves performed (cache misses) — observability for tests asserting
  /// that retries do not re-solve and that crashes do.
  int64_t solves() const { return solves_; }

  /// The last committed epoch this node acked (-1 before the first).
  int committed_epoch() const { return committed_epoch_; }

 private:
  struct CachedResult {
    std::vector<AssignedPair> pairs;  ///< local indices, fold order
    double solve_seconds = 0.0;
    AssignerStats stats;
  };

  void HandleDispatch(NetContext& net, NodeId from, const Message& msg);

  AssignerFactory factory_;
  double solve_delay_;
  BatchWorkspace workspace_;
  /// (epoch, shard, skeleton_epoch) -> solved result; trimmed at commit.
  std::map<std::tuple<int, int, int>, CachedResult> cache_;
  /// The node's view of the committed global assignment (volatile).
  std::vector<AssignedPair> committed_pairs_;
  int committed_epoch_ = -1;
  int64_t solves_ = 0;
};

}  // namespace casc

#endif  // CASC_NET_SHARD_NODE_H_
