#ifndef CASC_NET_COORDINATOR_H_
#define CASC_NET_COORDINATOR_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/histogram.h"
#include "model/assignment.h"
#include "model/instance.h"
#include "model/score_keeper.h"
#include "net/node.h"
#include "service/boundary_reconciler.h"
#include "service/shard_executor.h"
#include "service/shard_map.h"

namespace casc {

/// Retry/timeout/liveness knobs of the coordinator protocol. Every wait
/// is timer-driven and every retry counter is bounded, so a batch always
/// terminates: a shard exhausts max_attempts per node, fails over at
/// most once per node, and is then declared lost (its workers fall back
/// to the reconcile passes); an unacked broadcast marks the silent node
/// suspected and completes without it.
struct ProtocolConfig {
  /// Base wait before a dispatch/broadcast is retransmitted.
  double retry_timeout = 1.0;

  /// Exponential backoff factor: attempt k waits timeout * backoff^k.
  double retry_backoff = 2.0;

  /// Transmissions per (shard, node) or (broadcast, node) before the
  /// node is suspected (>= 1).
  int max_attempts = 3;

  /// Period of the coordinator's liveness probes; 0 disables heartbeats
  /// (the retry path still detects failures, just later).
  double heartbeat_interval = 0.0;

  /// Consecutive unanswered heartbeats before a node is suspected.
  int heartbeat_miss_limit = 3;
};

/// What one distributed batch cost, from the coordinator's seat.
struct NetBatchStats {
  int retries = 0;        ///< retransmissions after a timeout
  int failovers = 0;      ///< shards re-dispatched to another node
  int lost_shards = 0;    ///< shards no node could solve (workers absorbed)
  double rtt_p50_seconds = 0.0;  ///< dispatch -> result round trips
  double rtt_p99_seconds = 0.0;
  ReconcileStats reconcile;
  std::vector<double> shard_seconds;  ///< reported per-shard solve times
  int64_t prune_evals = 0;
  int64_t feasibility_rejects = 0;  ///< objective JoinFeasible rejections

  /// Solver convergence telemetry reported by the shard nodes (same
  /// aggregation as the in-process ShardedAssigner: rounds max over
  /// shards, moves/dirty summed, warm if any shard warm-started).
  int solve_rounds = 0;
  int64_t solve_moves = 0;
  int64_t dirty_workers = 0;
  bool warm_started = false;
};

/// The coordinator node of the distributed dispatch protocol. Owns the
/// batch state machine:
///
///   kSolve:    kDispatch every non-empty shard to its node (shard s ->
///              node 1 + s mod N), buffer kShardResult replies (the ack),
///              retry on timeout with exponential backoff; a node
///              exhausting max_attempts is suspected and its shards fail
///              over to the alive node with the fewest outstanding
///              shards (ties: lowest id). A shard that failed over on
///              every node is lost: its home workers are merged into the
///              reconcile boundary set so the batch still commits a
///              valid (if smaller) assignment.
///   fold:      buffered results are folded in ascending shard order —
///              arrival order cannot matter, which is what makes the
///              zero-delay zero-loss run bit-identical to the in-process
///              ShardedAssigner.
///   kInsert/kSeed/kPolish: the BoundaryReconciler passes run *at the
///              coordinator* (the same pass code as in-process), each
///              followed by a broadcast of the placement delta to all
///              unsuspected nodes and an acked round trip.
///   kCommit:   the final assignment is broadcast and acked; done() turns
///              true and the driver collects the assignment and stats.
///
/// The coordinator is durable by assumption (no crash events may target
/// node 0); shard nodes may crash, restart, lag or vanish at any point.
class CoordinatorNode : public Node {
 public:
  /// `num_shard_nodes` >= 1 solver nodes live at ids 1..num_shard_nodes.
  CoordinatorNode(ReconcileOptions reconcile, ProtocolConfig protocol,
                  int num_shard_nodes);

  /// Kicks off one batch (driver API, called between simulator events
  /// via MakeContext). `instance`, `map` must outlive the batch;
  /// `problems` is shared so in-flight dispatches can never dangle.
  /// `assignment` is the (empty, pooled) output the batch fills. A
  /// non-null `delta` (the batch's cross-batch warm-start export over
  /// the global instance; must outlive the batch) warm-dispatches the
  /// shards — each kDispatch stamps the skeleton epoch so the nodes use
  /// the problems' pre-sliced deltas — and drives the reconciler's
  /// adoption pass at the coordinator. Shards re-dispatched after a
  /// failover fall back to a cold solve (skeleton epoch -1).
  void StartBatch(NetContext& net, const Instance* instance,
                  const ShardMap* map,
                  std::shared_ptr<const std::vector<ShardProblem>> problems,
                  Assignment assignment, const SolveDelta* delta = nullptr);

  /// True once the commit round of the current batch is acked.
  bool done() const { return phase_ == Phase::kDone; }

  /// Moves the committed assignment out (call once per batch, after
  /// done()).
  Assignment TakeAssignment();

  const NetBatchStats& batch_stats() const { return stats_; }

  /// Nodes this coordinator currently considers failed.
  int num_suspected() const;

  void OnMessage(NetContext& net, NodeId from, const Message& msg) override;
  void OnTimer(NetContext& net, int timer_id) override;

 private:
  enum class Phase { kIdle, kSolve, kInsert, kSeed, kPolish, kCommit, kDone };

  struct ShardState {
    NodeId node = 0;     ///< current assignee
    int attempt = 0;     ///< transmissions to the current assignee
    int failovers = 0;   ///< distinct nodes tried so far
    bool resolved = false;
    bool lost = false;
    bool empty = false;  ///< no workers or no tasks; nothing to solve
    /// Failed over at least once: re-dispatches go out cold (skeleton
    /// epoch -1) so the replacement node's solve never depends on a warm
    /// cache entry the original assignee may or may not have built.
    bool cold = false;
    uint64_t timer_token = 0;
    double dispatch_time = 0.0;  ///< latest transmission (for RTT)
    std::vector<AssignedPair> pairs;  ///< buffered local result
    double solve_seconds = 0.0;
    int64_t prune_evals = 0;
    int64_t feasibility_rejects = 0;
    int solve_rounds = 0;
    int64_t solve_moves = 0;
    int64_t dirty_workers = 0;
    bool warm_started = false;
  };

  /// One acked broadcast round (reconcile pass delta or commit).
  struct AckWait {
    int stage = 0;
    MessageType type = MessageType::kReconcile;
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
    int stage = 0;
  };

  int RegisterTimer(const TimerRecord& record);
  double RetryDelay(int attempt) const;

  /// (Re)transmits shard `s` to its current assignee and arms the retry.
  void DispatchShard(NetContext& net, int s);

  /// Marks `node` failed: pending broadcast slots complete without it and
  /// its unresolved shards fail over.
  void SuspectNode(NetContext& net, NodeId node);

  /// Moves shard `s` to the best surviving node, or declares it lost.
  void FailoverShard(NetContext& net, int s);

  /// All shards resolved: fold ascending, sync the keeper, run pass 1
  /// and open its broadcast round.
  void EnterReconcile(NetContext& net);

  /// Opens an acked broadcast of `payload` to every unsuspected node.
  void Broadcast(NetContext& net, MessageType type, int stage,
                 std::vector<AssignedPair> payload);

  /// The current broadcast round fully acked: run the next pass / commit.
  void OnRoundAcked(NetContext& net);

  void FinishBatch();

  ReconcileOptions reconcile_options_;
  BoundaryReconciler reconciler_;
  ProtocolConfig protocol_;
  int num_shard_nodes_;

  Phase phase_ = Phase::kIdle;
  int epoch_ = -1;
  const Instance* instance_ = nullptr;
  const ShardMap* map_ = nullptr;
  const SolveDelta* delta_ = nullptr;  ///< warm-start export; null = cold
  std::shared_ptr<const std::vector<ShardProblem>> problems_;
  Assignment assignment_;
  std::optional<ScoreKeeper> keeper_;
  std::vector<WorkerIndex> boundary_;
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
