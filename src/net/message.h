#ifndef CASC_NET_MESSAGE_H_
#define CASC_NET_MESSAGE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "model/assignment.h"

namespace casc {

struct ShardProblem;

/// Identity of a simulated node. The coordinator is always node 0; shard
/// solver nodes are 1..num_nodes.
using NodeId = int;

inline constexpr NodeId kCoordinatorNode = 0;

/// The explicit wire protocol of the distributed dispatch plane. Every
/// cross-node interaction is one of these typed messages — there is no
/// shared-memory side channel between the coordinator and the shard
/// nodes beyond the read-only per-batch problem table referenced by
/// kDispatch (whose payload bytes are still accounted, see ByteSize).
enum class MessageType : uint8_t {
  kDispatch,      ///< coordinator -> shard node: solve this shard problem
  kShardResult,   ///< shard node -> coordinator: local assignment (the ack)
  kReconcile,     ///< coordinator -> nodes: one reconcile pass's placements
  kCommit,        ///< coordinator -> nodes: the batch's final assignment
  kAck,           ///< node -> coordinator: ack of kReconcile / kCommit
  kHeartbeat,     ///< coordinator -> node: liveness probe
  kHeartbeatAck,  ///< node -> coordinator: liveness reply
};

/// Ack/round tags: reconcile passes ack stages 1..3, commit acks stage 4.
inline constexpr int kStageReconcileInsert = 1;
inline constexpr int kStageReconcileSeed = 2;
inline constexpr int kStageReconcilePolish = 3;
inline constexpr int kStageCommit = 4;

/// One simulated network message. A single struct (not a class hierarchy)
/// keeps the event queue flat and copyable; fields unused by a type stay
/// at their defaults. `pairs` carries local (worker, task) placements for
/// results, reconcile deltas and the commit snapshot.
struct Message {
  MessageType type = MessageType::kAck;
  int epoch = 0;    ///< batch epoch (stale cross-epoch messages are ignored)
  int shard = -1;   ///< kDispatch / kShardResult: shard problem id
  int stage = 0;    ///< kReconcile: pass; kAck: stage being acked
  int attempt = 0;  ///< retransmission counter (diagnostics only)

  /// kDispatch: epoch of the previous-equilibrium skeleton the carried
  /// problem's warm-start slice (ShardProblem::delta) was derived from,
  /// or -1 to demand a cold solve. The coordinator sends -1 for cold
  /// batches and for shards re-dispatched after a failover — a node that
  /// rejoined mid-batch must not serve a cached warm result the
  /// coordinator no longer expects — and the node keys its result cache
  /// on this value so warm and cold solves of the same (epoch, shard)
  /// never alias.
  int skeleton_epoch = -1;

  /// kDispatch: the shard's sub-instance — an aliasing shared_ptr into
  /// the coordinator's per-batch problem table, so a straggler dispatch
  /// still queued when the batch ends keeps the table alive instead of
  /// dangling. ByteSize() accounts the bytes a real wire transfer of the
  /// workers/tasks/valid pairs would cost.
  std::shared_ptr<const ShardProblem> problem;

  /// kDispatch: registry id of the ObjectiveModel the shard must score
  /// under (ObjectiveByName). A real wire transfer cannot ship the
  /// objective's vtable, only its name — the receiving node re-resolves
  /// it and CHECKs it matches the problem's instance, so a coordinator /
  /// solver objective mismatch fails loudly instead of silently scoring
  /// two different games.
  std::string objective_id;

  /// kShardResult: the local assignment; kReconcile: the pass's placement
  /// delta ((w, kNoTask) encodes "left idle"); kCommit: the final pairs.
  std::vector<AssignedPair> pairs;

  /// kShardResult: solver diagnostics folded into ServiceMetrics.
  double solve_seconds = 0.0;
  int64_t prune_evals = 0;
  int64_t feasibility_rejects = 0;

  /// kShardResult: solver convergence telemetry (best-response rounds,
  /// strategy moves, the warm-start dirty frontier, and whether the
  /// shard seeded from the dispatched skeleton slice).
  int solve_rounds = 0;
  int64_t solve_moves = 0;
  int64_t dirty_workers = 0;
  bool warm_started = false;

  /// Estimated wire size in bytes (header + payload), the quantity the
  /// simulator's byte counters accumulate.
  int64_t ByteSize() const;
};

/// Display name for logs and traces ("DISPATCH", "ACK", ...).
std::string ToString(MessageType type);

}  // namespace casc

#endif  // CASC_NET_MESSAGE_H_
