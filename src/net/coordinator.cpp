#include "net/coordinator.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/check.h"
#include "model/objective_model.h"

namespace casc {

CoordinatorNode::CoordinatorNode(ReconcileOptions reconcile,
                                 ProtocolConfig protocol, int num_shard_nodes)
    : reconcile_options_(reconcile),
      reconciler_(reconcile),
      protocol_(protocol),
      num_shard_nodes_(num_shard_nodes) {
  CASC_CHECK_GE(num_shard_nodes_, 1);
  CASC_CHECK_GT(protocol_.retry_timeout, 0.0);
  CASC_CHECK_GE(protocol_.retry_backoff, 1.0);
  CASC_CHECK_GE(protocol_.max_attempts, 1);
  CASC_CHECK_GE(protocol_.heartbeat_interval, 0.0);
  CASC_CHECK_GE(protocol_.heartbeat_miss_limit, 1);
}

int CoordinatorNode::RegisterTimer(const TimerRecord& record) {
  timers_.push_back(record);
  return static_cast<int>(timers_.size()) - 1;
}

double CoordinatorNode::RetryDelay(int attempt) const {
  double delay = protocol_.retry_timeout;
  for (int i = 0; i < attempt; ++i) delay *= protocol_.retry_backoff;
  return delay;
}

int CoordinatorNode::num_suspected() const {
  int count = 0;
  for (const char s : suspected_) count += s != 0;
  return count;
}

void CoordinatorNode::StartBatch(
    NetContext& net, const Instance* instance, const ShardMap* map,
    std::shared_ptr<const std::vector<ShardProblem>> problems,
    Assignment assignment, const SolveDelta* delta) {
  CASC_CHECK(phase_ == Phase::kIdle || phase_ == Phase::kDone)
      << "a batch is still in flight";
  CASC_CHECK(instance != nullptr);
  CASC_CHECK(map != nullptr);
  CASC_CHECK(problems != nullptr);
  ++epoch_;
  instance_ = instance;
  map_ = map;
  delta_ = delta != nullptr && delta->num_carried > 0 &&
                   static_cast<int>(delta->seed_task.size()) ==
                       instance->num_workers()
               ? delta
               : nullptr;
  problems_ = std::move(problems);
  assignment_ = std::move(assignment);
  keeper_.reset();
  stats_ = NetBatchStats{};
  rtt_.Reset();
  const int num_shards = static_cast<int>(problems_->size());
  stats_.shard_seconds.assign(static_cast<size_t>(num_shards), 0.0);
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
  if (outstanding_shards_ == 0) EnterReconcile(net);
}

Assignment CoordinatorNode::TakeAssignment() {
  CASC_CHECK(phase_ == Phase::kDone);
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
  // An open broadcast round stops waiting for the suspect.
  if (wait_.outstanding > 0 && wait_.acked[slot] == 0) {
    wait_.acked[slot] = 1;
    --wait_.outstanding;
    if (wait_.outstanding == 0) OnRoundAcked(net);
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
    // idle through the fold and are re-admitted by the reconcile passes
    // (see EnterReconcile), so the batch still commits.
    state.resolved = true;
    state.lost = true;
    ++stats_.lost_shards;
    --outstanding_shards_;
    if (outstanding_shards_ == 0 && phase_ == Phase::kSolve) {
      EnterReconcile(net);
    }
    return;
  }
  state.node = target;
  state.attempt = 0;
  state.cold = true;  // replacement solves from scratch (see header)
  ++stats_.failovers;
  DispatchShard(net, s);
}

void CoordinatorNode::EnterReconcile(NetContext& net) {
  // Fold in ascending shard order, replaying each buffered result's
  // pairs in their recorded (ForEachPair) order — bit-identical to
  // ShardExecutor::Run's fold no matter when each result arrived.
  for (size_t s = 0; s < shards_.size(); ++s) {
    const ShardState& state = shards_[s];
    if (state.lost || state.empty) continue;
    const ShardProblem& problem = (*problems_)[s];
    for (const AssignedPair& pair : state.pairs) {
      assignment_.Assign(
          problem.global_workers[static_cast<size_t>(pair.worker)],
          problem.global_tasks[static_cast<size_t>(pair.task)]);
    }
    stats_.shard_seconds[s] = state.solve_seconds;
    stats_.prune_evals += state.prune_evals;
    stats_.feasibility_rejects += state.feasibility_rejects;
    stats_.solve_rounds = std::max(stats_.solve_rounds, state.solve_rounds);
    stats_.solve_moves += state.solve_moves;
    stats_.dirty_workers += state.dirty_workers;
    stats_.warm_started = stats_.warm_started || state.warm_started;
  }

  boundary_ = map_->boundary_workers();
  bool augmented = false;
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (!shards_[s].lost) continue;
    const std::vector<WorkerIndex>& home =
        map_->HomeWorkersOf(static_cast<int>(s));
    boundary_.insert(boundary_.end(), home.begin(), home.end());
    augmented = true;
  }
  if (augmented) {
    // Lost shards' home workers join the boundary set (their boundary
    // members are already in it — dedup) so the insert/seed/polish
    // passes can still place them somewhere valid.
    std::sort(boundary_.begin(), boundary_.end());
    boundary_.erase(std::unique(boundary_.begin(), boundary_.end()),
                    boundary_.end());
  }

  keeper_.emplace(*instance_);
  keeper_->Sync(assignment_);

  phase_ = Phase::kInsert;
  std::vector<AssignedPair> placements;
  // Warm batches re-seat idle boundary workers on their retained groups
  // before the greedy insertion — the same pass order as the in-process
  // Reconcile, with the adoptions riding the insert-stage broadcast (no
  // extra round trip).
  if (delta_ != nullptr) {
    stats_.reconcile.adopted = reconciler_.PassAdopt(
        *instance_, boundary_, *delta_, &assignment_, &*keeper_,
        &placements);
  }
  stats_.reconcile.inserted = reconciler_.PassInsert(
      *instance_, boundary_, &assignment_, &*keeper_, &placements);
  Broadcast(net, MessageType::kReconcile, kStageReconcileInsert,
            std::move(placements));
}

void CoordinatorNode::Broadcast(NetContext& net, MessageType type, int stage,
                                std::vector<AssignedPair> payload) {
  wait_ = AckWait{};
  wait_.stage = stage;
  wait_.type = type;
  wait_.payload = std::move(payload);
  wait_.acked.assign(static_cast<size_t>(num_shard_nodes_), 0);
  wait_.attempts.assign(static_cast<size_t>(num_shard_nodes_), 0);
  wait_.tokens.assign(static_cast<size_t>(num_shard_nodes_), 0);
  for (NodeId n = 1; n <= num_shard_nodes_; ++n) {
    const size_t slot = static_cast<size_t>(n - 1);
    if (suspected_[slot] != 0) {
      wait_.acked[slot] = 1;  // the round completes without the suspect
      continue;
    }
    Message msg;
    msg.type = type;
    msg.epoch = epoch_;
    msg.stage = stage;
    msg.pairs = wait_.payload;
    net.Send(n, std::move(msg));
    TimerRecord retry;
    retry.kind = TimerRecord::kAckRetry;
    retry.epoch = epoch_;
    retry.node = n;
    retry.stage = stage;
    retry.attempt = 0;
    wait_.tokens[slot] = net.SetTimer(RetryDelay(0), RegisterTimer(retry));
    ++wait_.outstanding;
  }
  if (wait_.outstanding == 0) OnRoundAcked(net);
}

void CoordinatorNode::OnRoundAcked(NetContext& net) {
  switch (wait_.stage) {
    case kStageReconcileInsert: {
      if (reconcile_options_.seed_underfilled) {
        phase_ = Phase::kSeed;
        std::vector<AssignedPair> delta;
        stats_.reconcile.seeded = reconciler_.PassSeed(
            *instance_, boundary_, &assignment_, &*keeper_, &delta);
        Broadcast(net, MessageType::kReconcile, kStageReconcileSeed,
                  std::move(delta));
        return;
      }
      [[fallthrough]];
    }
    case kStageReconcileSeed: {
      if (reconcile_options_.polish_rounds > 0) {
        phase_ = Phase::kPolish;
        std::vector<AssignedPair> delta;
        stats_.reconcile.polish_moves = reconciler_.PassPolish(
            *instance_, boundary_, &assignment_, &*keeper_, &delta);
        Broadcast(net, MessageType::kReconcile, kStageReconcilePolish,
                  std::move(delta));
        return;
      }
      [[fallthrough]];
    }
    case kStageReconcilePolish: {
      phase_ = Phase::kCommit;
      Broadcast(net, MessageType::kCommit, kStageCommit,
                assignment_.Pairs());
      return;
    }
    case kStageCommit: {
      FinishBatch();
      return;
    }
    default:
      CASC_CHECK(false) << "unknown broadcast stage " << wait_.stage;
  }
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
      state.prune_evals = msg.prune_evals;
      state.feasibility_rejects = msg.feasibility_rejects;
      state.solve_rounds = msg.solve_rounds;
      state.solve_moves = msg.solve_moves;
      state.dirty_workers = msg.dirty_workers;
      state.warm_started = msg.warm_started;
      net.CancelTimer(state.timer_token);
      rtt_.Add(net.now() - state.dispatch_time);
      --outstanding_shards_;
      if (outstanding_shards_ == 0) EnterReconcile(net);
      return;
    }
    case MessageType::kAck: {
      if (msg.epoch != epoch_ || wait_.outstanding == 0) return;
      if (msg.stage != wait_.stage) return;  // ack of an earlier round
      const size_t slot = static_cast<size_t>(from - 1);
      if (wait_.acked[slot] != 0) return;
      wait_.acked[slot] = 1;
      net.CancelTimer(wait_.tokens[slot]);
      --wait_.outstanding;
      if (wait_.outstanding == 0) OnRoundAcked(net);
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
    case MessageType::kReconcile:
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
      if (wait_.outstanding == 0 || record.stage != wait_.stage) return;
      const size_t slot = static_cast<size_t>(record.node - 1);
      if (wait_.acked[slot] != 0) return;
      if (record.attempt != wait_.attempts[slot]) return;  // superseded
      ++wait_.attempts[slot];
      if (wait_.attempts[slot] < protocol_.max_attempts) {
        ++stats_.retries;
        Message msg;
        msg.type = wait_.type;
        msg.epoch = epoch_;
        msg.stage = wait_.stage;
        msg.attempt = wait_.attempts[slot];
        msg.pairs = wait_.payload;
        net.Send(record.node, std::move(msg));
        TimerRecord retry = record;
        retry.attempt = wait_.attempts[slot];
        wait_.tokens[slot] = net.SetTimer(RetryDelay(retry.attempt),
                                          RegisterTimer(retry));
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
          if (heartbeat_misses_[slot] >= protocol_.heartbeat_miss_limit &&
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
