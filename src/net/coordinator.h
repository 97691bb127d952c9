#ifndef CASC_NET_COORDINATOR_H_
#define CASC_NET_COORDINATOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/histogram.h"
#include "model/assignment.h"
#include "model/instance.h"
#include "net/node.h"
#include "service/shard_executor.h"

namespace casc {

/// Retry/timeout/liveness knobs of the coordinator protocol. Every wait
/// is timer-driven and every retry counter is bounded, so a batch always
/// terminates: a shard exhausts max_attempts per node, fails over at
/// most once per node, and is then declared lost (its workers join phase
/// 2's boundary set); an unacked commit marks the silent node suspected
/// and completes without it. Retransmission k waits retry_timeout * 2^k,
/// and three consecutive unanswered heartbeats suspect a node.
struct ProtocolConfig {
  /// Base wait before a dispatch/commit is retransmitted.
  double retry_timeout = 1.0;

  /// Transmissions per (shard, node) or (commit, node) before the node
  /// is suspected (>= 1).
  int max_attempts = 3;

  /// Period of the coordinator's liveness probes; 0 disables heartbeats
  /// (the retry path still detects failures, just later).
  double heartbeat_interval = 0.0;
};

/// What one distributed batch cost, from the coordinator's seat.
struct NetBatchStats {
  int retries = 0;        ///< retransmissions after a timeout
  int failovers = 0;      ///< shards re-dispatched to another node
  double rtt_p50_seconds = 0.0;  ///< dispatch -> result round trips
  double rtt_p99_seconds = 0.0;
  std::vector<double> shard_seconds;  ///< reported per-shard solve times
  /// Per shard: the solver's AssignerStats as its node reported them
  /// (default for empty and lost shards).
  std::vector<AssignerStats> shard_stats;
  /// Per shard: 1 if no node could solve it. Its home workers stay idle
  /// through the fold; the driver adds them to phase 2's boundary set.
  std::vector<char> shard_lost;
};

/// The coordinator node of the distributed dispatch protocol. Owns the
/// batch state machine around phase 2, which the driver runs between
/// the fold and the commit (NetShardedAssigner::Solve):
///
///   kSolve:    kDispatch every non-empty shard to its node (shard s ->
///              node 1 + s mod N), buffer kShardResult replies (the ack),
///              retry on timeout with exponential backoff; a node
///              exhausting max_attempts is suspected and its shards fail
///              over to the alive node with the fewest outstanding
///              shards (ties: lowest id). A shard that failed over on
///              every node is lost.
///   kFolded:   buffered results are folded in ascending shard order —
///              arrival order cannot matter, which is what makes the
///              zero-delay zero-loss run bit-identical to the in-process
///              ShardedAssigner. The driver takes the folded assignment
///              and reconciles it.
///   kCommit:   Commit() broadcasts the final assignment, acked by every
///              unsuspected node; done() then turns true.
///
/// The coordinator is durable by assumption (no crash events may target
/// node 0); shard nodes may crash, restart, lag or vanish at any point.
class CoordinatorNode : public Node {
 public:
  /// `num_shard_nodes` >= 1 solver nodes live at ids 1..num_shard_nodes.
  CoordinatorNode(ProtocolConfig protocol, int num_shard_nodes);

  /// Kicks off one batch (driver API, called between simulator events
  /// via MakeContext). `instance` must outlive the batch; `problems` is
  /// shared so in-flight dispatches can never dangle. `assignment` is
  /// the (empty, pooled) assignment the fold fills. A non-null `delta`
  /// (the batch's cross-batch warm-start export over the global
  /// instance) warm-dispatches the shards: each kDispatch stamps the
  /// skeleton epoch so the nodes use the problems' pre-sliced deltas.
  /// Shards re-dispatched after a failover fall back to a cold solve
  /// (skeleton epoch -1).
  void StartBatch(NetContext& net, const Instance* instance,
                  std::shared_ptr<const std::vector<ShardProblem>> problems,
                  Assignment assignment, const SolveDelta* delta = nullptr);

  /// True once every shard is resolved and folded, until Commit().
  bool folded() const { return phase_ == Phase::kFolded; }

  /// Moves the folded assignment out (once per batch, when folded()).
  Assignment TakeFolded();

  /// Broadcasts the batch's final `pairs` to every unsuspected node and
  /// waits for their acks (call once per batch, after TakeFolded()).
  void Commit(NetContext& net, std::vector<AssignedPair> pairs);

  /// True once the commit round of the current batch is acked.
  bool done() const { return phase_ == Phase::kDone; }

  const NetBatchStats& batch_stats() const { return stats_; }

  /// Nodes this coordinator currently considers failed.
  int num_suspected() const;

  void OnMessage(NetContext& net, NodeId from, const Message& msg) override;
  void OnTimer(NetContext& net, int timer_id) override;

 private:
  enum class Phase { kIdle, kSolve, kFolded, kCommit, kDone };

  struct ShardState {
    NodeId node = 0;     ///< current assignee
    int attempt = 0;     ///< transmissions to the current assignee
    int failovers = 0;   ///< distinct nodes tried so far
    bool resolved = false;
    bool empty = false;  ///< no workers or no tasks; nothing to solve
    /// Failed over at least once: re-dispatches go out cold (skeleton
    /// epoch -1) so the replacement node's solve never depends on a warm
    /// cache entry the original assignee may or may not have built.
    bool cold = false;
    uint64_t timer_token = 0;
    double dispatch_time = 0.0;  ///< latest transmission (for RTT)
    std::vector<AssignedPair> pairs;  ///< buffered local result
    double solve_seconds = 0.0;
    AssignerStats stats;
  };

  /// The acked commit round.
  struct AckWait {
    std::vector<AssignedPair> payload;
    std::vector<char> acked;      ///< by node - 1
    std::vector<int> attempts;    ///< by node - 1
    std::vector<uint64_t> tokens; ///< by node - 1
    int outstanding = 0;
  };

  struct TimerRecord {
    enum Kind { kShardRetry, kAckRetry, kHeartbeat } kind = kShardRetry;
    int epoch = 0;
    int shard = -1;
    NodeId node = 0;
    int attempt = 0;
  };

  int RegisterTimer(const TimerRecord& record);
  double RetryDelay(int attempt) const;

  /// (Re)transmits shard `s` to its current assignee and arms the retry.
  void DispatchShard(NetContext& net, int s);

  /// Marks `node` failed: its pending commit slot completes without it
  /// and its unresolved shards fail over.
  void SuspectNode(NetContext& net, NodeId node);

  /// Moves shard `s` to the best surviving node, or declares it lost.
  void FailoverShard(NetContext& net, int s);

  /// All shards resolved: fold the buffered results in ascending shard
  /// order into the batch's assignment.
  void Fold();

  /// (Re)transmits the commit to `node` and arms its retry.
  void SendCommit(NetContext& net, NodeId node);

  /// The commit round fully acked (or abandoned per suspect): done.
  void FinishBatch();

  ProtocolConfig protocol_;
  int num_shard_nodes_;

  Phase phase_ = Phase::kIdle;
  int epoch_ = -1;
  const Instance* instance_ = nullptr;
  const SolveDelta* delta_ = nullptr;  ///< warm-start export; null = cold
  std::shared_ptr<const std::vector<ShardProblem>> problems_;
  Assignment assignment_;
  std::vector<ShardState> shards_;
  int outstanding_shards_ = 0;
  AckWait wait_;
  std::vector<char> suspected_;         ///< by node - 1
  std::vector<char> heard_since_beat_;  ///< by node - 1
  std::vector<int> heartbeat_misses_;   ///< by node - 1
  std::vector<TimerRecord> timers_;
  QuantileSketch rtt_;
  NetBatchStats stats_;
};

}  // namespace casc

#endif  // CASC_NET_COORDINATOR_H_
