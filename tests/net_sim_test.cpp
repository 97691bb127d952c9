#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/simulator.h"

namespace casc {
namespace {

/// Records everything that happens to it; optionally echoes an ack for
/// every message received.
class RecorderNode : public Node {
 public:
  explicit RecorderNode(bool echo = false) : echo_(echo) {}

  void OnMessage(NetContext& net, NodeId from, const Message& msg) override {
    log_.push_back("msg:" + ToString(msg.type) + ":from" +
                   std::to_string(from) + "@" + std::to_string(net.now()));
    if (echo_) {
      Message ack;
      ack.type = MessageType::kAck;
      ack.epoch = msg.epoch;
      net.Send(from, std::move(ack));
    }
  }
  void OnTimer(NetContext& net, int timer_id) override {
    log_.push_back("timer:" + std::to_string(timer_id) + "@" +
                   std::to_string(net.now()));
  }
  void OnCrash() override { log_.push_back("crash"); }
  void OnRestart(NetContext& net) override {
    log_.push_back("restart@" + std::to_string(net.now()));
  }

  const std::vector<std::string>& log() const { return log_; }

 private:
  bool echo_;
  std::vector<std::string> log_;
};

int CountPrefix(const std::vector<std::string>& log,
                const std::string& prefix) {
  int count = 0;
  for (const std::string& entry : log) {
    if (entry.rfind(prefix, 0) == 0) ++count;
  }
  return count;
}

TEST(NetworkSimulatorTest, DeliversInTimeOrderWithFifoTies) {
  NetworkConfig config;
  NetworkSimulator sim(config);
  RecorderNode a;
  RecorderNode b;
  sim.AddNode(0, &a);
  sim.AddNode(1, &b);
  NodeContext ctx = sim.MakeContext(0);
  // Three zero-delay sends: same delivery time, FIFO by sequence.
  Message m;
  m.type = MessageType::kHeartbeat;
  m.epoch = 1;
  ctx.Send(1, m);
  m.epoch = 2;
  ctx.SendAfter(0.5, 1, m);
  m.epoch = 3;
  ctx.Send(1, m);
  int delivered = 0;
  EXPECT_TRUE(sim.RunUntil(
      [&] { return (delivered = CountPrefix(b.log(), "msg:")) == 3; }, 100));
  // epochs 1 and 3 at t=0 (send order), epoch 2 at t=0.5.
  ASSERT_EQ(b.log().size(), 3u);
  EXPECT_NE(b.log()[0].find("@0.0"), std::string::npos) << b.log()[0];
  EXPECT_NE(b.log()[2].find("@0.5"), std::string::npos) << b.log()[2];
  EXPECT_EQ(sim.stats().messages_sent, 3);
  EXPECT_EQ(sim.stats().messages_delivered, 3);
}

TEST(NetworkSimulatorTest, ReplayIsBitIdentical) {
  const auto run = [](uint64_t seed) {
    NetworkConfig config;
    config.drop_rate = 0.3;
    config.base_delay = 0.01;
    config.jitter = 0.02;
    config.seed = seed;
    NetworkSimulator sim(config);
    RecorderNode sender;
    RecorderNode receiver;
    sim.AddNode(0, &sender);
    sim.AddNode(1, &receiver);
    NodeContext ctx = sim.MakeContext(0);
    for (int i = 0; i < 200; ++i) {
      Message m;
      m.type = MessageType::kHeartbeat;
      m.epoch = i;
      ctx.Send(1, m);
    }
    (void)sim.RunUntil([&] { return false; }, 1000);  // drain the queue
    return std::make_pair(receiver.log(), sim.stats().dropped_rng);
  };
  const auto [log_a, drops_a] = run(42);
  const auto [log_b, drops_b] = run(42);
  const auto [log_c, drops_c] = run(43);
  EXPECT_EQ(log_a, log_b);  // same seed: identical trace
  EXPECT_EQ(drops_a, drops_b);
  EXPECT_GT(drops_a, 20);  // the fault model is actually firing
  EXPECT_NE(log_a, log_c);  // different seed: different trace
}

TEST(NetworkSimulatorTest, PartitionWindowDropsCrossingMessages) {
  NetworkConfig config;
  NetPartition partition;
  partition.start = 1.0;
  partition.end = 2.0;
  partition.island = {1};
  config.partitions.push_back(partition);
  NetworkSimulator sim(config);
  RecorderNode a;
  RecorderNode b;
  RecorderNode c;
  sim.AddNode(0, &a);
  sim.AddNode(1, &b);
  sim.AddNode(2, &c);
  NodeContext ctx = sim.MakeContext(0);
  Message m;
  m.type = MessageType::kHeartbeat;
  ctx.Send(1, m);            // t=0: before the window, delivered
  ctx.SendAfter(1.5, 1, m);  // scheduled at t=0 — send-time check passes
  (void)sim.RunUntil([&] { return false; }, 100);
  // Now the clock sits at 1.5; a send inside the window to the island is
  // dropped, one within the island's side (2 -> 0, both outside) passes.
  EXPECT_GE(sim.now(), 1.5);
  ctx.Send(1, m);
  NodeContext ctx2 = sim.MakeContext(2);
  ctx2.Send(0, m);
  (void)sim.RunUntil([&] { return false; }, 100);
  EXPECT_EQ(CountPrefix(b.log(), "msg:"), 2);
  EXPECT_EQ(CountPrefix(a.log(), "msg:"), 1);
  EXPECT_EQ(sim.stats().dropped_partition, 1);
}

TEST(NetworkSimulatorTest, CrashDropsDeliveriesAndKillsTimers) {
  NetworkConfig config;
  CrashEvent crash;
  crash.node = 1;
  crash.time = 1.0;
  crash.restart_time = 2.0;
  config.crashes.push_back(crash);
  NetworkSimulator sim(config);
  RecorderNode a;
  RecorderNode b;
  sim.AddNode(0, &a);
  sim.AddNode(1, &b);
  NodeContext as_b = sim.MakeContext(1);
  // Timer armed before the crash, due while down: dies with incarnation.
  as_b.SetTimer(1.5, /*timer_id=*/7);
  NodeContext ctx = sim.MakeContext(0);
  Message m;
  m.type = MessageType::kHeartbeat;
  ctx.SendAfter(1.2, 1, m);  // lands at 1.2, node down -> dropped
  ctx.SendAfter(2.5, 1, m);  // lands at 2.5, after restart -> delivered
  (void)sim.RunUntil([&] { return false; }, 100);
  EXPECT_TRUE(sim.IsAlive(1));  // restarted by the end
  EXPECT_EQ(CountPrefix(b.log(), "crash"), 1);
  EXPECT_EQ(CountPrefix(b.log(), "restart"), 1);
  EXPECT_EQ(CountPrefix(b.log(), "timer:"), 0);  // the timer never fired
  EXPECT_EQ(CountPrefix(b.log(), "msg:"), 1);
  EXPECT_EQ(sim.stats().dropped_dead, 1);
  EXPECT_EQ(sim.stats().crashes, 1);
  EXPECT_EQ(sim.stats().restarts, 1);
}

TEST(NetworkSimulatorTest, CanceledTimerNeverFires) {
  NetworkConfig config;
  NetworkSimulator sim(config);
  RecorderNode a;
  sim.AddNode(0, &a);
  NodeContext ctx = sim.MakeContext(0);
  const uint64_t token = ctx.SetTimer(1.0, 1);
  ctx.SetTimer(2.0, 2);
  ctx.CancelTimer(token);
  (void)sim.RunUntil([&] { return false; }, 100);
  EXPECT_EQ(CountPrefix(a.log(), "timer:1"), 0);
  EXPECT_EQ(CountPrefix(a.log(), "timer:2"), 1);
  EXPECT_EQ(sim.stats().timers_fired, 1);
}

TEST(NetworkSimulatorTest, RunUntilReportsStallAndBudgetExhaustion) {
  NetworkConfig config;
  NetworkSimulator sim(config);
  RecorderNode a;
  sim.AddNode(0, &a);
  // Queue drains without done() turning true: stalled.
  EXPECT_FALSE(sim.RunUntil([] { return false; }, 100));

  // A self-perpetuating timer: the budget is the only way out.
  class Rearm : public Node {
   public:
    void OnMessage(NetContext&, NodeId, const Message&) override {}
    void OnTimer(NetContext& net, int id) override { net.SetTimer(1.0, id); }
  };
  NetworkSimulator sim2(config);
  Rearm rearm;
  sim2.AddNode(0, &rearm);
  sim2.MakeContext(0).SetTimer(1.0, 0);
  EXPECT_FALSE(sim2.RunUntil([] { return false; }, 50));
  EXPECT_EQ(sim2.stats().timers_fired, 50);
}

}  // namespace
}  // namespace casc
