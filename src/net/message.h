#ifndef CASC_NET_MESSAGE_H_
#define CASC_NET_MESSAGE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "algo/assigner.h"
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
  kCommit,        ///< coordinator -> nodes: the batch's final assignment
  kAck,           ///< node -> coordinator: ack of kCommit
  kHeartbeat,     ///< coordinator -> node: liveness probe
  kHeartbeatAck,  ///< node -> coordinator: liveness reply
};

/// One simulated network message. A single struct (not a class hierarchy)
/// keeps the event queue flat and copyable; fields unused by a type stay
/// at their defaults. `pairs` carries the (worker, task) placements of
/// shard results and of the commit snapshot.
struct Message {
  MessageType type = MessageType::kAck;
  int epoch = 0;    ///< batch epoch (stale cross-epoch messages are ignored)
  int shard = -1;   ///< kDispatch / kShardResult: shard problem id
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

  /// kShardResult: the local assignment; kCommit: the final pairs.
  std::vector<AssignedPair> pairs;

  /// kShardResult: the shard solver's wall time and its AssignerStats,
  /// folded into ServiceMetrics at the driver (FoldSolveTelemetry).
  double solve_seconds = 0.0;
  AssignerStats stats;

  /// Estimated wire size in bytes (header + payload), the quantity the
  /// simulator's byte counters accumulate.
  int64_t ByteSize() const;
};

/// Display name for logs and traces ("DISPATCH", "ACK", ...).
std::string ToString(MessageType type);

}  // namespace casc

#endif  // CASC_NET_MESSAGE_H_
