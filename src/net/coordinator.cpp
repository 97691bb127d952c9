#include "net/coordinator.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/check.h"
#include "model/objective_model.h"

namespace casc {
namespace {

/// Exponential backoff factor: retransmission k waits timeout * 2^k.
constexpr double kRetryBackoff = 2.0;

/// Consecutive unanswered heartbeats before a node is suspected.
constexpr int kHeartbeatMissLimit = 3;

}  // namespace

CoordinatorNode::CoordinatorNode(ProtocolConfig protocol, int num_shard_nodes)
    : protocol_(protocol), num_shard_nodes_(num_shard_nodes) {
  CASC_CHECK_GE(num_shard_nodes_, 1);
  CASC_CHECK_GT(protocol_.retry_timeout, 0.0);
  CASC_CHECK_GE(protocol_.max_attempts, 1);
  CASC_CHECK_GE(protocol_.heartbeat_interval, 0.0);
}

int CoordinatorNode::RegisterTimer(const TimerRecord& record) {
  timers_.push_back(record);
  return static_cast<int>(timers_.size()) - 1;
}

double CoordinatorNode::RetryDelay(int attempt) const {
  double delay = protocol_.retry_timeout;
  for (int i = 0; i < attempt; ++i) delay *= kRetryBackoff;
  return delay;
}

int CoordinatorNode::num_suspected() const {
  int count = 0;
  for (const char s : suspected_) count += s != 0;
  return count;
}

void CoordinatorNode::StartBatch(
    NetContext& net, const Instance* instance,
    std::shared_ptr<const std::vector<ShardProblem>> problems,
    Assignment assignment, const SolveDelta* delta) {
  CASC_CHECK(phase_ == Phase::kIdle || phase_ == Phase::kDone)
      << "a batch is still in flight";
  CASC_CHECK(instance != nullptr);
  CASC_CHECK(problems != nullptr);
  ++epoch_;
  instance_ = instance;
  delta_ = UsableSolveDelta(delta, instance->num_workers());
  problems_ = std::move(problems);
  assignment_ = std::move(assignment);
  stats_ = NetBatchStats{};
  rtt_.Reset();
  const int num_shards = static_cast<int>(problems_->size());
  stats_.shard_seconds.assign(static_cast<size_t>(num_shards), 0.0);
  stats_.shard_stats.assign(static_cast<size_t>(num_shards), AssignerStats{});
  stats_.shard_lost.assign(static_cast<size_t>(num_shards), 0);
  shards_.assign(static_cast<size_t>(num_shards), ShardState{});
  wait_ = AckWait{};
  // Suspicion does not carry across batches: a node that was silent last
  // epoch gets probed again (it may have restarted since).
  suspected_.assign(static_cast<size_t>(num_shard_nodes_), 0);
  heard_since_beat_.assign(static_cast<size_t>(num_shard_nodes_), 0);
  heartbeat_misses_.assign(static_cast<size_t>(num_shard_nodes_), 0);

  phase_ = Phase::kSolve;
  outstanding_shards_ = 0;
  for (int s = 0; s < num_shards; ++s) {
    ShardState& state = shards_[static_cast<size_t>(s)];
    const ShardProblem& problem = (*problems_)[static_cast<size_t>(s)];
    if (problem.instance.num_workers() == 0 ||
        problem.instance.num_tasks() == 0) {
      state.empty = true;
      state.resolved = true;
      continue;
    }
    state.node = 1 + s % num_shard_nodes_;
    ++outstanding_shards_;
  }
  for (int s = 0; s < num_shards; ++s) {
    if (!shards_[static_cast<size_t>(s)].resolved) DispatchShard(net, s);
  }
  if (protocol_.heartbeat_interval > 0.0) {
    TimerRecord beat;
    beat.kind = TimerRecord::kHeartbeat;
    beat.epoch = epoch_;
    net.SetTimer(protocol_.heartbeat_interval, RegisterTimer(beat));
  }
  if (outstanding_shards_ == 0) Fold();
}

Assignment CoordinatorNode::TakeFolded() {
  CASC_CHECK(phase_ == Phase::kFolded);
  return std::move(assignment_);
}

void CoordinatorNode::DispatchShard(NetContext& net, int s) {
  ShardState& state = shards_[static_cast<size_t>(s)];
  Message msg;
  msg.type = MessageType::kDispatch;
  msg.epoch = epoch_;
  msg.shard = s;
  msg.attempt = state.attempt;
  msg.problem = std::shared_ptr<const ShardProblem>(
      problems_, &(*problems_)[static_cast<size_t>(s)]);
  msg.objective_id = std::string(instance_->objective().Id());
  // Warm batches stamp the skeleton epoch; a shard that failed over goes
  // out cold (see ShardState::cold).
  msg.skeleton_epoch = delta_ != nullptr && !state.cold ? epoch_ : -1;
  state.dispatch_time = net.now();
  net.Send(state.node, std::move(msg));
  TimerRecord retry;
  retry.kind = TimerRecord::kShardRetry;
  retry.epoch = epoch_;
  retry.shard = s;
  retry.node = state.node;
  retry.attempt = state.attempt;
  state.timer_token =
      net.SetTimer(RetryDelay(state.attempt), RegisterTimer(retry));
}

void CoordinatorNode::SuspectNode(NetContext& net, NodeId node) {
  const size_t slot = static_cast<size_t>(node - 1);
  if (suspected_[slot] != 0) return;
  suspected_[slot] = 1;
  // Unresolved shards parked on the dead node move elsewhere. Collect
  // first: FailoverShard may re-enter state we are iterating.
  std::vector<int> to_move;
  for (size_t s = 0; s < shards_.size(); ++s) {
    const ShardState& state = shards_[s];
    if (!state.resolved && state.node == node) {
      to_move.push_back(static_cast<int>(s));
    }
  }
  for (const int s : to_move) FailoverShard(net, s);
  // An open commit round stops waiting for the suspect.
  if (wait_.outstanding > 0 && wait_.acked[slot] == 0) {
    wait_.acked[slot] = 1;
    --wait_.outstanding;
    if (wait_.outstanding == 0) FinishBatch();
  }
}

void CoordinatorNode::FailoverShard(NetContext& net, int s) {
  ShardState& state = shards_[static_cast<size_t>(s)];
  ++state.failovers;
  NodeId target = -1;
  if (state.failovers < num_shard_nodes_) {
    // Deterministic choice: the unsuspected node with the fewest
    // unresolved shards, ties to the lowest id.
    std::vector<int> load(static_cast<size_t>(num_shard_nodes_), 0);
    for (const ShardState& other : shards_) {
      if (!other.resolved && !other.empty) {
        ++load[static_cast<size_t>(other.node - 1)];
      }
    }
    int best_load = 0;
    for (NodeId n = 1; n <= num_shard_nodes_; ++n) {
      if (suspected_[static_cast<size_t>(n - 1)] != 0) continue;
      if (n == state.node) continue;  // the node that just failed us
      const int l = load[static_cast<size_t>(n - 1)];
      if (target < 0 || l < best_load) {
        target = n;
        best_load = l;
      }
    }
  }
  if (target < 0) {
    // Every node tried or suspected: the shard is lost. Its workers stay
    // idle through the fold and join phase 2's boundary set, so the
    // batch still commits.
    state.resolved = true;
    stats_.shard_lost[static_cast<size_t>(s)] = 1;
    --outstanding_shards_;
    if (outstanding_shards_ == 0 && phase_ == Phase::kSolve) Fold();
    return;
  }
  state.node = target;
  state.attempt = 0;
  state.cold = true;  // replacement solves from scratch (see header)
  ++stats_.failovers;
  DispatchShard(net, s);
}

void CoordinatorNode::Fold() {
  // Ascending shard order, replaying each buffered result's pairs in
  // their recorded (ForEachPair) order — bit-identical to
  // ShardExecutor::Run's fold no matter when each result arrived. Lost
  // and empty shards hold no pairs and default stats.
  for (size_t s = 0; s < shards_.size(); ++s) {
    const ShardState& state = shards_[s];
    const ShardProblem& problem = (*problems_)[s];
    for (const AssignedPair& pair : state.pairs) {
      assignment_.Assign(
          problem.global_workers[static_cast<size_t>(pair.worker)],
          problem.global_tasks[static_cast<size_t>(pair.task)]);
    }
    stats_.shard_seconds[s] = state.solve_seconds;
    stats_.shard_stats[s] = state.stats;
  }
  phase_ = Phase::kFolded;
}

void CoordinatorNode::Commit(NetContext& net,
                             std::vector<AssignedPair> pairs) {
  CASC_CHECK(phase_ == Phase::kFolded);
  phase_ = Phase::kCommit;
  wait_ = AckWait{};
  wait_.payload = std::move(pairs);
  wait_.acked.assign(static_cast<size_t>(num_shard_nodes_), 0);
  wait_.attempts.assign(static_cast<size_t>(num_shard_nodes_), 0);
  wait_.tokens.assign(static_cast<size_t>(num_shard_nodes_), 0);
  for (NodeId n = 1; n <= num_shard_nodes_; ++n) {
    const size_t slot = static_cast<size_t>(n - 1);
    if (suspected_[slot] != 0) {
      wait_.acked[slot] = 1;  // the round completes without the suspect
      continue;
    }
    SendCommit(net, n);
    ++wait_.outstanding;
  }
  if (wait_.outstanding == 0) FinishBatch();
}

void CoordinatorNode::SendCommit(NetContext& net, NodeId node) {
  const size_t slot = static_cast<size_t>(node - 1);
  Message msg;
  msg.type = MessageType::kCommit;
  msg.epoch = epoch_;
  msg.attempt = wait_.attempts[slot];
  msg.pairs = wait_.payload;
  net.Send(node, std::move(msg));
  TimerRecord retry;
  retry.kind = TimerRecord::kAckRetry;
  retry.epoch = epoch_;
  retry.node = node;
  retry.attempt = wait_.attempts[slot];
  wait_.tokens[slot] =
      net.SetTimer(RetryDelay(retry.attempt), RegisterTimer(retry));
}

void CoordinatorNode::FinishBatch() {
  phase_ = Phase::kDone;
  stats_.rtt_p50_seconds = rtt_.Quantile(0.5);
  stats_.rtt_p99_seconds = rtt_.Quantile(0.99);
}

void CoordinatorNode::OnMessage(NetContext& net, NodeId from,
                                const Message& msg) {
  if (from >= 1 && from <= num_shard_nodes_) {
    heard_since_beat_[static_cast<size_t>(from - 1)] = 1;
  }
  switch (msg.type) {
    case MessageType::kShardResult: {
      if (msg.epoch != epoch_ || phase_ != Phase::kSolve) return;  // stale
      ShardState& state = shards_[static_cast<size_t>(msg.shard)];
      if (state.resolved) return;  // duplicate or superseded by failover
      state.resolved = true;
      state.pairs = msg.pairs;
      state.solve_seconds = msg.solve_seconds;
      state.stats = msg.stats;
      net.CancelTimer(state.timer_token);
      rtt_.Add(net.now() - state.dispatch_time);
      --outstanding_shards_;
      if (outstanding_shards_ == 0) Fold();
      return;
    }
    case MessageType::kAck: {
      if (msg.epoch != epoch_ || wait_.outstanding == 0) return;
      const size_t slot = static_cast<size_t>(from - 1);
      if (wait_.acked[slot] != 0) return;
      wait_.acked[slot] = 1;
      net.CancelTimer(wait_.tokens[slot]);
      --wait_.outstanding;
      if (wait_.outstanding == 0) FinishBatch();
      return;
    }
    case MessageType::kHeartbeatAck: {
      const size_t slot = static_cast<size_t>(from - 1);
      heartbeat_misses_[slot] = 0;
      // A heartbeat answer is the rejoin signal: the node is back (e.g.
      // restarted) and may serve future failovers and broadcasts.
      suspected_[slot] = 0;
      return;
    }
    case MessageType::kDispatch:
    case MessageType::kCommit:
    case MessageType::kHeartbeat:
      return;  // node-bound traffic; ignore if misrouted
  }
}

void CoordinatorNode::OnTimer(NetContext& net, int timer_id) {
  CASC_CHECK_GE(timer_id, 0);
  CASC_CHECK_LT(static_cast<size_t>(timer_id), timers_.size());
  const TimerRecord record = timers_[static_cast<size_t>(timer_id)];
  if (record.epoch != epoch_) return;  // a previous batch's timer
  switch (record.kind) {
    case TimerRecord::kShardRetry: {
      if (phase_ != Phase::kSolve) return;
      ShardState& state = shards_[static_cast<size_t>(record.shard)];
      if (state.resolved) return;
      if (state.node != record.node || state.attempt != record.attempt) {
        return;  // superseded by a retry or failover
      }
      ++state.attempt;
      if (state.attempt < protocol_.max_attempts) {
        ++stats_.retries;
        DispatchShard(net, record.shard);
      } else {
        SuspectNode(net, state.node);
      }
      return;
    }
    case TimerRecord::kAckRetry: {
      if (wait_.outstanding == 0) return;
      const size_t slot = static_cast<size_t>(record.node - 1);
      if (wait_.acked[slot] != 0) return;
      if (record.attempt != wait_.attempts[slot]) return;  // superseded
      ++wait_.attempts[slot];
      if (wait_.attempts[slot] < protocol_.max_attempts) {
        ++stats_.retries;
        SendCommit(net, record.node);
      } else {
        SuspectNode(net, record.node);
      }
      return;
    }
    case TimerRecord::kHeartbeat: {
      if (phase_ == Phase::kDone || phase_ == Phase::kIdle) return;
      for (NodeId n = 1; n <= num_shard_nodes_; ++n) {
        const size_t slot = static_cast<size_t>(n - 1);
        if (heard_since_beat_[slot] == 0) {
          ++heartbeat_misses_[slot];
          if (heartbeat_misses_[slot] >= kHeartbeatMissLimit &&
              suspected_[slot] == 0) {
            SuspectNode(net, n);
          }
        } else {
          heartbeat_misses_[slot] = 0;
        }
        heard_since_beat_[slot] = 0;
        Message probe;
        probe.type = MessageType::kHeartbeat;
        probe.epoch = epoch_;
        net.Send(n, std::move(probe));
      }
      TimerRecord beat;
      beat.kind = TimerRecord::kHeartbeat;
      beat.epoch = epoch_;
      net.SetTimer(protocol_.heartbeat_interval, RegisterTimer(beat));
      return;
    }
  }
}

}  // namespace casc
