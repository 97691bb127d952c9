#ifndef CASC_NET_NETWORK_CONFIG_H_
#define CASC_NET_NETWORK_CONFIG_H_

#include <cstdint>
#include <vector>

#include "net/message.h"

namespace casc {

/// A partition window: during [start, end) every message crossing the
/// island boundary (in either direction) is dropped. Several windows may
/// overlap; a message is dropped if any active window separates its
/// endpoints.
struct NetPartition {
  double start = 0.0;
  double end = 0.0;
  std::vector<NodeId> island;
};

/// A node crash at `time`; `restart_time` < 0 means the node never comes
/// back. A crashed node loses all volatile state (Node::OnCrash), drops
/// every delivery while down, and its pending timers die with it.
struct CrashEvent {
  NodeId node = 0;
  double time = 0.0;
  double restart_time = -1.0;
};

/// The deterministic fault/latency model of the simulated network. A
/// (config, seed) pair replays bit-identically: the single virtual clock
/// orders events by (time, sequence number) and one seeded Rng drives
/// every random draw (drops, jitter) in schedule order.
struct NetworkConfig {
  /// One-way delivery delay applied to every link.
  double base_delay = 0.0;

  /// Extra per-message delay drawn uniformly from [0, jitter). Zero keeps
  /// every delay at base_delay.
  double jitter = 0.0;

  /// I.i.d. probability that a delivery is dropped (drawn per message
  /// from the seeded Rng).
  double drop_rate = 0.0;

  /// Scheduled partition windows.
  std::vector<NetPartition> partitions;

  /// Scheduled node crashes / restarts (virtual clock).
  std::vector<CrashEvent> crashes;

  /// Virtual compute time one shard solve costs on a node (makes the
  /// round-trip latency distribution non-degenerate under delays).
  double solve_seconds = 0.0;

  /// Seed of the simulator's Rng. Same config + same seed => identical
  /// delivery traces, drops and therefore identical dispatch outcomes.
  uint64_t seed = 0x5EEDDA7Aull;
};

}  // namespace casc

#endif  // CASC_NET_NETWORK_CONFIG_H_
