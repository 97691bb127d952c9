#include "net/simulator.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "service/shard_executor.h"

namespace casc {

int64_t Message::ByteSize() const {
  // Fixed header: type, epoch, shard, stage, attempt, skeleton_epoch +
  // framing.
  int64_t bytes = 32;
  if (problem != nullptr) {
    // A real transfer would ship the shard's workers, tasks and valid
    // pairs; account them even though the simulation carries a reference.
    bytes += static_cast<int64_t>(problem->instance.num_workers()) * 48;
    bytes += static_cast<int64_t>(problem->instance.num_tasks()) * 40;
    bytes += static_cast<int64_t>(problem->instance.NumValidPairs()) * 8;
    if (skeleton_epoch >= 0) {
      // Warm dispatch additionally ships the shard's skeleton slice:
      // one seed task id (4 bytes) and one dirty flag per local worker,
      // plus one dirty flag per local task.
      bytes += static_cast<int64_t>(problem->delta.seed_task.size()) * 4;
      bytes += static_cast<int64_t>(problem->delta.dirty.size());
      bytes += static_cast<int64_t>(problem->delta.dirty_task.size());
    }
  }
  bytes += static_cast<int64_t>(objective_id.size());
  bytes += static_cast<int64_t>(pairs.size()) * 8;
  if (type == MessageType::kShardResult) bytes += 56;  // stats trailer
  return bytes;
}

std::string ToString(MessageType type) {
  switch (type) {
    case MessageType::kDispatch:
      return "DISPATCH";
    case MessageType::kShardResult:
      return "RESULT";
    case MessageType::kCommit:
      return "COMMIT";
    case MessageType::kAck:
      return "ACK";
    case MessageType::kHeartbeat:
      return "HEARTBEAT";
    case MessageType::kHeartbeatAck:
      return "HEARTBEAT_ACK";
  }
  return "UNKNOWN";
}

double NodeContext::now() const { return sim_->now(); }

void NodeContext::Send(NodeId to, Message msg) {
  sim_->Send(self_, to, std::move(msg));
}

void NodeContext::SendAfter(double delay, NodeId to, Message msg) {
  sim_->SendAfter(delay, self_, to, std::move(msg));
}

uint64_t NodeContext::SetTimer(double delay, int timer_id) {
  return sim_->SetTimer(self_, delay, timer_id);
}

void NodeContext::CancelTimer(uint64_t token) { sim_->CancelTimer(token); }

NetworkSimulator::NetworkSimulator(const NetworkConfig& config)
    : config_(config), rng_(config.seed) {
  CASC_CHECK_GE(config_.base_delay, 0.0);
  CASC_CHECK_GE(config_.jitter, 0.0);
  CASC_CHECK_GE(config_.drop_rate, 0.0);
  CASC_CHECK_LE(config_.drop_rate, 1.0);
  for (const CrashEvent& crash : config_.crashes) {
    Event down;
    down.time = crash.time;
    down.seq = next_seq_++;
    down.kind = Event::kCrash;
    down.node = crash.node;
    queue_.push(down);
    if (crash.restart_time >= 0.0) {
      CASC_CHECK_GE(crash.restart_time, crash.time)
          << "a node cannot restart before it crashed";
      Event up;
      up.time = crash.restart_time;
      up.seq = next_seq_++;
      up.kind = Event::kRestart;
      up.node = crash.node;
      queue_.push(up);
    }
  }
}

void NetworkSimulator::AddNode(NodeId id, Node* node) {
  CASC_CHECK(node != nullptr);
  CASC_CHECK_GE(id, 0);
  if (static_cast<size_t>(id) >= nodes_.size()) {
    nodes_.resize(static_cast<size_t>(id) + 1, nullptr);
    alive_.resize(static_cast<size_t>(id) + 1, true);
    incarnation_.resize(static_cast<size_t>(id) + 1, 0);
  }
  CASC_CHECK(nodes_[static_cast<size_t>(id)] == nullptr)
      << "node id " << id << " registered twice";
  nodes_[static_cast<size_t>(id)] = node;
}

bool NetworkSimulator::IsAlive(NodeId id) const {
  CASC_CHECK_GE(id, 0);
  CASC_CHECK_LT(static_cast<size_t>(id), nodes_.size());
  return alive_[static_cast<size_t>(id)];
}

double NetworkSimulator::DrawDelay() {
  double delay = config_.base_delay;
  if (config_.jitter > 0.0) delay += rng_.Uniform(0.0, config_.jitter);
  return delay;
}

bool NetworkSimulator::Partitioned(NodeId a, NodeId b, double time) const {
  for (const NetPartition& partition : config_.partitions) {
    if (time < partition.start || time >= partition.end) continue;
    const bool a_in = std::find(partition.island.begin(),
                                partition.island.end(),
                                a) != partition.island.end();
    const bool b_in = std::find(partition.island.begin(),
                                partition.island.end(),
                                b) != partition.island.end();
    if (a_in != b_in) return true;
  }
  return false;
}

void NetworkSimulator::SendAfter(double delay, NodeId from, NodeId to,
                                 Message msg) {
  CASC_CHECK_GE(delay, 0.0);
  CASC_CHECK_GE(to, 0);
  CASC_CHECK_LT(static_cast<size_t>(to), nodes_.size());
  ++stats_.messages_sent;
  stats_.bytes_sent += msg.ByteSize();
  // Fault draws happen at send time, in send order: the Rng stream is a
  // pure function of the message schedule, which is what makes a
  // (config, seed) pair replay bit-identically.
  if (Partitioned(from, to, now_)) {
    ++stats_.dropped_partition;
    return;
  }
  if (config_.drop_rate > 0.0 && rng_.Bernoulli(config_.drop_rate)) {
    ++stats_.dropped_rng;
    return;
  }
  Event event;
  event.time = now_ + delay + DrawDelay();
  event.seq = next_seq_++;
  event.kind = Event::kDeliver;
  event.node = to;
  event.from = from;
  event.msg = std::move(msg);
  queue_.push(std::move(event));
}

uint64_t NetworkSimulator::SetTimer(NodeId node, double delay, int timer_id) {
  CASC_CHECK_GE(node, 0);
  CASC_CHECK_LT(static_cast<size_t>(node), nodes_.size());
  CASC_CHECK_GE(delay, 0.0);
  Event event;
  event.time = now_ + delay;
  event.seq = next_seq_++;
  event.kind = Event::kTimer;
  event.node = node;
  event.timer_id = timer_id;
  event.token = next_token_++;
  event.incarnation = incarnation_[static_cast<size_t>(node)];
  queue_.push(std::move(event));
  return event.token;
}

void NetworkSimulator::CancelTimer(uint64_t token) {
  if (token != 0) canceled_timers_.insert(token);
}

void NetworkSimulator::Dispatch(const Event& event) {
  Node* node = nodes_[static_cast<size_t>(event.node)];
  switch (event.kind) {
    case Event::kDeliver: {
      if (!alive_[static_cast<size_t>(event.node)]) {
        ++stats_.dropped_dead;
        return;
      }
      ++stats_.messages_delivered;
      NodeContext context(this, event.node);
      node->OnMessage(context, event.from, event.msg);
      return;
    }
    case Event::kTimer: {
      const auto canceled = canceled_timers_.find(event.token);
      if (canceled != canceled_timers_.end()) {
        canceled_timers_.erase(canceled);
        return;
      }
      // A timer armed before a crash dies with the incarnation that set
      // it: restarted nodes start from a clean slate.
      if (!alive_[static_cast<size_t>(event.node)] ||
          event.incarnation != incarnation_[static_cast<size_t>(event.node)]) {
        return;
      }
      ++stats_.timers_fired;
      NodeContext context(this, event.node);
      node->OnTimer(context, event.timer_id);
      return;
    }
    case Event::kCrash: {
      if (!alive_[static_cast<size_t>(event.node)]) return;
      alive_[static_cast<size_t>(event.node)] = false;
      ++stats_.crashes;
      if (node != nullptr) node->OnCrash();
      return;
    }
    case Event::kRestart: {
      if (alive_[static_cast<size_t>(event.node)]) return;
      alive_[static_cast<size_t>(event.node)] = true;
      ++incarnation_[static_cast<size_t>(event.node)];
      ++stats_.restarts;
      if (node != nullptr) {
        NodeContext context(this, event.node);
        node->OnRestart(context);
      }
      return;
    }
  }
}

bool NetworkSimulator::RunUntil(const std::function<bool()>& done,
                                int64_t max_events) {
  CASC_CHECK(done != nullptr);
  int64_t processed = 0;
  while (!done()) {
    if (queue_.empty()) return false;  // stalled: nothing left to fire
    if (processed >= max_events) return false;  // livelock backstop
    Event event = queue_.top();
    queue_.pop();
    CASC_CHECK_GE(event.time, now_) << "virtual clock went backwards";
    now_ = event.time;
    // Crash targets may be registered later than scheduled; skip unknown.
    if (static_cast<size_t>(event.node) >= nodes_.size() ||
        nodes_[static_cast<size_t>(event.node)] == nullptr) {
      continue;
    }
    Dispatch(event);
    ++processed;
  }
  return true;
}

}  // namespace casc
