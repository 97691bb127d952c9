#include "net/shard_node.h"

#include <optional>
#include <utility>

#include "common/check.h"
#include "model/objective_model.h"

namespace casc {

ShardSolverNode::ShardSolverNode(AssignerFactory factory, double solve_delay)
    : factory_(std::move(factory)), solve_delay_(solve_delay) {
  CASC_CHECK(factory_ != nullptr);
  CASC_CHECK_GE(solve_delay_, 0.0);
}

void ShardSolverNode::HandleDispatch(NetContext& net, NodeId from,
                                     const Message& msg) {
  CASC_CHECK(msg.problem != nullptr);
  // The wire contract ships the objective by registry id; re-resolve it
  // and insist it matches the instance we were handed. A real deployment
  // would deserialize the problem and then set_objective(resolved) —
  // here the carried instance already points at the process-wide
  // singleton, so resolution doubles as a version-skew check.
  const ObjectiveModel* resolved = ObjectiveByName(msg.objective_id);
  CASC_CHECK(resolved != nullptr)
      << "dispatch for unknown objective '" << msg.objective_id << "'";
  CASC_CHECK_EQ(resolved, &msg.problem->instance.objective())
      << "dispatch objective '" << msg.objective_id
      << "' does not match the shard problem's instance";
  const std::tuple<int, int, int> key{msg.epoch, msg.shard,
                                      msg.skeleton_epoch};
  auto cached = cache_.find(key);
  const bool miss = cached == cache_.end();
  if (miss) {
    CachedResult result;
    AssignerStats stats;
    // skeleton_epoch < 0 demands a cold solve of the dispatched problem
    // even when it carries a warm-start slice (failover fallback).
    std::optional<Assignment> local = ShardExecutor::SolveProblem(
        *msg.problem, factory_, &workspace_, &result.solve_seconds, &stats,
        /*use_delta=*/msg.skeleton_epoch >= 0);
    result.prune_evals = stats.candidates_evaluated;
    result.feasibility_rejects = stats.feasibility_rejects;
    result.solve_rounds = stats.rounds;
    result.solve_moves = stats.moves;
    result.dirty_workers = stats.dirty_workers;
    result.warm_started = stats.warm_started;
    ++solves_;
    if (local.has_value()) {
      // ForEachPair order (task-major, group position) is exactly the
      // order FoldProblem replays, so shipping the pairs preserves the
      // in-process fold bit-for-bit.
      local->ForEachPair([&result](WorkerIndex lw, TaskIndex lt) {
        result.pairs.push_back({lw, lt});
      });
      workspace_.Recycle(std::move(*local));
    }
    cached = cache_.emplace(key, std::move(result)).first;
  }
  Message reply;
  reply.type = MessageType::kShardResult;
  reply.epoch = msg.epoch;
  reply.shard = msg.shard;
  reply.attempt = msg.attempt;
  reply.pairs = cached->second.pairs;
  reply.solve_seconds = cached->second.solve_seconds;
  reply.prune_evals = cached->second.prune_evals;
  reply.feasibility_rejects = cached->second.feasibility_rejects;
  reply.solve_rounds = cached->second.solve_rounds;
  reply.solve_moves = cached->second.solve_moves;
  reply.dirty_workers = cached->second.dirty_workers;
  reply.warm_started = cached->second.warm_started;
  // A fresh solve occupies the modeled compute time before the result
  // hits the wire; a cache hit answers immediately (work already done).
  net.SendAfter(miss ? solve_delay_ : 0.0, from, std::move(reply));
}

void ShardSolverNode::OnMessage(NetContext& net, NodeId from,
                                const Message& msg) {
  switch (msg.type) {
    case MessageType::kDispatch:
      HandleDispatch(net, from, msg);
      return;
    case MessageType::kReconcile: {
      // The node's assignment view only matters at commit; reconcile
      // deltas are acknowledged so the coordinator's round completes.
      Message ack;
      ack.type = MessageType::kAck;
      ack.epoch = msg.epoch;
      ack.stage = msg.stage;
      net.Send(from, std::move(ack));
      return;
    }
    case MessageType::kCommit: {
      if (msg.epoch >= committed_epoch_) {
        committed_pairs_ = msg.pairs;
        committed_epoch_ = msg.epoch;
        // Results for committed (or older) epochs can never be asked for
        // again; trim the cache so a long run stays bounded.
        for (auto it = cache_.begin(); it != cache_.end();) {
          it = std::get<0>(it->first) <= msg.epoch ? cache_.erase(it) : ++it;
        }
      }
      Message ack;
      ack.type = MessageType::kAck;
      ack.epoch = msg.epoch;
      ack.stage = kStageCommit;
      net.Send(from, std::move(ack));
      return;
    }
    case MessageType::kHeartbeat: {
      Message ack;
      ack.type = MessageType::kHeartbeatAck;
      ack.epoch = msg.epoch;
      net.Send(from, std::move(ack));
      return;
    }
    case MessageType::kShardResult:
    case MessageType::kAck:
    case MessageType::kHeartbeatAck:
      return;  // coordinator-bound traffic; ignore if misrouted
  }
}

void ShardSolverNode::OnTimer(NetContext& net, int timer_id) {
  (void)net;
  (void)timer_id;  // shard nodes are purely reactive
}

void ShardSolverNode::OnCrash() {
  cache_.clear();
  committed_pairs_.clear();
  committed_epoch_ = -1;
}

void ShardSolverNode::OnRestart(NetContext& net) {
  // Nothing to announce: the coordinator's retries and heartbeats will
  // rediscover this node on their own.
  (void)net;
}

}  // namespace casc
