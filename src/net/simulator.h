#ifndef CASC_NET_SIMULATOR_H_
#define CASC_NET_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "net/message.h"
#include "net/network_config.h"
#include "net/node.h"

namespace casc {

class NetworkSimulator;

/// The per-node NetContext facade (stack-constructed per callback; cheap).
class NodeContext : public NetContext {
 public:
  NodeContext(NetworkSimulator* sim, NodeId self) : sim_(sim), self_(self) {}

  double now() const override;
  NodeId self() const override { return self_; }
  void Send(NodeId to, Message msg) override;
  void SendAfter(double delay, NodeId to, Message msg) override;
  uint64_t SetTimer(double delay, int timer_id) override;
  void CancelTimer(uint64_t token) override;

 private:
  NetworkSimulator* sim_;
  NodeId self_;
};

/// Aggregate counters of everything that crossed (or died on) the wire.
struct NetStats {
  int64_t messages_sent = 0;
  int64_t messages_delivered = 0;
  int64_t bytes_sent = 0;
  int64_t dropped_rng = 0;        ///< i.i.d. drop_rate losses
  int64_t dropped_partition = 0;  ///< losses to an active partition window
  int64_t dropped_dead = 0;       ///< deliveries to a crashed node
  int64_t timers_fired = 0;
  int64_t crashes = 0;
  int64_t restarts = 0;

  int64_t TotalDropped() const {
    return dropped_rng + dropped_partition + dropped_dead;
  }
};

/// Deterministic discrete-event network simulator: one virtual clock, a
/// (time, sequence) priority queue, one base link delay plus jitter,
/// seeded RNG-driven drops, partition windows and node crash/restart
/// events — all replayable bit-identically from a NetworkConfig + seed.
///
/// Single-threaded by construction: node callbacks run one at a time in
/// event order, so nodes need no locks and every run with the same config
/// and the same externally-injected sends produces the same trace.
///
/// Drop and delay draws happen at *send* time in send order (one Rng
/// consumed sequentially), which makes the fault pattern a function of
/// the message schedule alone — retries re-draw, so a retransmission can
/// survive where the original was lost.
class NetworkSimulator {
 public:
  explicit NetworkSimulator(const NetworkConfig& config);

  /// Registers `node` under `id` (dense, >= 0; id 0 is the coordinator by
  /// convention). Not owned. Crash events of the config referencing this
  /// id take effect once registered.
  void AddNode(NodeId id, Node* node);

  double now() const { return now_; }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }

  /// Liveness as scheduled by the config (test/driver oracle — protocol
  /// nodes must detect failures via messages, never by calling this).
  bool IsAlive(NodeId id) const;

  /// Context for externally-driven sends (e.g. the dispatch driver
  /// kicking off a batch as the coordinator).
  NodeContext MakeContext(NodeId id) { return NodeContext(this, id); }

  /// Processes events in (time, seq) order until `done()` turns true, the
  /// queue drains, or `max_events` were processed. Returns true iff
  /// `done()` turned true — the caller's termination proof; a false
  /// return means the protocol stalled (no pending events) or livelocked
  /// (budget exhausted).
  bool RunUntil(const std::function<bool()>& done, int64_t max_events);

  const NetStats& stats() const { return stats_; }

  // -- NetContext backends (called via NodeContext) --
  void Send(NodeId from, NodeId to, Message msg) {
    SendAfter(0.0, from, to, std::move(msg));
  }
  void SendAfter(double delay, NodeId from, NodeId to, Message msg);
  uint64_t SetTimer(NodeId node, double delay, int timer_id);
  void CancelTimer(uint64_t token);

 private:
  struct Event {
    enum Kind { kDeliver, kTimer, kCrash, kRestart };
    double time = 0.0;
    uint64_t seq = 0;  ///< global schedule order; ties on `time` keep FIFO
    Kind kind = kDeliver;
    NodeId node = 0;  ///< destination / timer owner / crash target
    NodeId from = 0;
    Message msg;
    int timer_id = 0;
    uint64_t token = 0;
    int incarnation = 0;  ///< timer validity: dies with a crash
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  /// One-way link delay: the base delay plus a jitter draw.
  double DrawDelay();

  /// True when an active partition window separates `a` and `b` at `time`.
  bool Partitioned(NodeId a, NodeId b, double time) const;

  void Dispatch(const Event& event);

  NetworkConfig config_;
  Rng rng_;
  std::vector<Node*> nodes_;
  std::vector<bool> alive_;
  std::vector<int> incarnation_;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::unordered_set<uint64_t> canceled_timers_;
  double now_ = 0.0;
  uint64_t next_seq_ = 0;
  uint64_t next_token_ = 1;
  NetStats stats_;
};

}  // namespace casc

#endif  // CASC_NET_SIMULATOR_H_
