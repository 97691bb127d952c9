// Distributed dispatch benchmark (PR7): the simulated-network
// coordinator/shard-node protocol vs the in-process ShardedAssigner on
// identical batches.
//
// Three sections in the JSON:
//   1. Overhead at zero faults — same assignment by construction
//      (CHECKed bit-identical), so the delta is pure protocol cost:
//      wall time, messages, modeled bytes per batch.
//   2. Degradation under faults — a drop-rate sweep (plus one node-crash
//      scenario) recording retention (assigned workers vs the fault-free
//      run), score ratio, retries, failovers, lost shards and the
//      coordinator's dispatch->result RTT p50/p99.
//   3. The 100-seed fault-injection fuzz (random drops, a partition
//      window, one crash, arbitrary retry knobs) — every run must
//      terminate and validate; the JSON records the retention
//      distribution and how many runs stayed bit-identical.
//
//   ./bench_net_dispatch [--workers 2000] [--tasks 600] [--shards 4]
//                        [--nodes 4] [--reps 5] [--seed 42]
//                        [--json BENCH_PR7.json]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "algo/gt_assigner.h"
#include "common/check.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "gen/synthetic.h"
#include "model/objective.h"
#include "net/net_dispatch.h"

namespace {

casc::AssignerFactory GtFactory() {
  return [] { return std::make_unique<casc::GtAssigner>(); };
}

struct FaultRow {
  std::string name;
  double drop_rate = 0.0;
  bool crash = false;
  double retention = 0.0;
  double score_ratio = 0.0;
  int lost_shards = 0;
  int retries = 0;
  int failovers = 0;
  int64_t messages = 0;
  int64_t dropped = 0;
  double rtt_p50 = 0.0;
  double rtt_p99 = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  casc::FlagParser flags;
  flags.DefineInt64("workers", 2000, "workers per batch instance");
  flags.DefineInt64("tasks", 600, "tasks per batch instance");
  flags.DefineInt64("shards", 4, "shards per side (S)");
  flags.DefineInt64("nodes", 4, "simulated shard solver nodes");
  flags.DefineInt64("reps", 5, "timed repetitions per configuration");
  flags.DefineInt64("seed", 42, "instance seed");
  flags.DefineString("json", "BENCH_PR7.json", "JSON output path");
  flags.ParseOrExit(argc, argv);
  // Measure the configured paths, not whatever the ambient environment
  // left switched off.
  ::unsetenv("CASC_NO_DISTRIBUTED");

  const uint64_t seed = static_cast<uint64_t>(flags.GetInt64("seed"));
  const int reps = static_cast<int>(flags.GetInt64("reps"));
  const int num_nodes = static_cast<int>(flags.GetInt64("nodes"));

  casc::SyntheticInstanceConfig gen_config;
  gen_config.num_workers = static_cast<int>(flags.GetInt64("workers"));
  gen_config.num_tasks = static_cast<int>(flags.GetInt64("tasks"));
  casc::Rng rng(seed);
  const casc::Instance instance =
      casc::GenerateSyntheticInstance(gen_config, /*now=*/0.0, &rng);

  casc::ShardedOptions options;
  options.shards_per_side = static_cast<int>(flags.GetInt64("shards"));
  options.num_threads = 1;  // apples-to-apples with the serial protocol

  std::printf("instance: %d workers, %d tasks, S=%d, %d nodes\n",
              instance.num_workers(), instance.num_tasks(),
              options.shards_per_side, num_nodes);

  // --- Section 1: zero-fault overhead -----------------------------------
  casc::ShardedAssigner in_process(options, GtFactory());
  const casc::Assignment baseline = in_process.Run(instance);
  const double baseline_score = casc::TotalScore(instance, baseline);
  const int baseline_assigned = baseline.NumAssigned();
  CASC_CHECK_GT(baseline_assigned, 0);

  double in_process_seconds = 0.0;
  for (int r = 0; r < reps; ++r) {
    casc::Stopwatch watch;
    const casc::Assignment repeat = in_process.Run(instance);
    in_process_seconds += watch.ElapsedSeconds();
    CASC_CHECK(repeat.Pairs() == baseline.Pairs());
  }
  in_process_seconds /= reps;

  double net_seconds = 0.0;
  int64_t net_messages = 0;
  int64_t net_bytes = 0;
  {
    casc::DistributedConfig dist;
    dist.num_nodes = num_nodes;
    casc::NetShardedAssigner net(options, dist, GtFactory());
    for (int r = 0; r < reps; ++r) {
      casc::Stopwatch watch;
      const casc::Assignment result = net.Solve(instance);
      net_seconds += watch.ElapsedSeconds();
      CASC_CHECK(result.Pairs() == baseline.Pairs())
          << "zero-fault distributed batch must be bit-identical";
      net_messages = net.metrics().net_messages;
      net_bytes = net.metrics().net_bytes;
    }
    net_seconds /= reps;
  }
  const double overhead =
      in_process_seconds > 0.0 ? net_seconds / in_process_seconds : 0.0;
  std::printf("zero-fault: in-process %.3fms, distributed %.3fms "
              "(%.2fx), %lld msgs, %lld bytes per batch\n",
              in_process_seconds * 1e3, net_seconds * 1e3, overhead,
              static_cast<long long>(net_messages),
              static_cast<long long>(net_bytes));

  // --- Section 2: degradation under faults ------------------------------
  std::vector<FaultRow> rows;
  const double drop_rates[] = {0.0, 0.1, 0.2, 0.3, 0.4, 0.5};
  for (const double drop : drop_rates) {
    casc::DistributedConfig dist;
    dist.num_nodes = num_nodes;
    dist.network.drop_rate = drop;
    dist.network.base_delay = 0.01;
    dist.network.jitter = 0.005;
    dist.network.solve_seconds = 0.05;
    dist.network.seed = seed + static_cast<uint64_t>(drop * 100);
    dist.protocol.retry_timeout = 0.2;
    dist.protocol.max_attempts = 5;
    casc::NetShardedAssigner net(options, dist, GtFactory());
    const casc::Assignment result = net.Solve(instance);
    CASC_CHECK(result.Validate(instance).ok());

    char name[32];
    std::snprintf(name, sizeof(name), "drop-%.1f", drop);
    FaultRow row;
    row.name = name;
    row.drop_rate = drop;
    row.retention = static_cast<double>(result.NumAssigned()) /
                    static_cast<double>(baseline_assigned);
    row.score_ratio = casc::TotalScore(instance, result) / baseline_score;
    row.lost_shards = net.metrics().lost_shards;
    row.retries = net.metrics().net_retries;
    row.failovers = net.metrics().net_failovers;
    row.messages = net.metrics().net_messages;
    row.dropped = net.metrics().net_dropped;
    row.rtt_p50 = net.metrics().net_rtt_p50_seconds;
    row.rtt_p99 = net.metrics().net_rtt_p99_seconds;
    rows.push_back(row);
  }
  {
    // One dead node from t=0: every shard homed there fails over.
    casc::DistributedConfig dist;
    dist.num_nodes = num_nodes;
    dist.network.base_delay = 0.01;
    dist.network.solve_seconds = 0.05;
    dist.network.crashes.push_back({/*node=*/1, /*time=*/0.0,
                                    /*restart_time=*/-1.0});
    dist.protocol.retry_timeout = 0.2;
    dist.protocol.max_attempts = 3;
    casc::NetShardedAssigner net(options, dist, GtFactory());
    const casc::Assignment result = net.Solve(instance);
    CASC_CHECK(result.Validate(instance).ok());
    FaultRow row;
    row.name = "crash-node-1";
    row.crash = true;
    row.retention = static_cast<double>(result.NumAssigned()) /
                    static_cast<double>(baseline_assigned);
    row.score_ratio = casc::TotalScore(instance, result) / baseline_score;
    row.lost_shards = net.metrics().lost_shards;
    row.retries = net.metrics().net_retries;
    row.failovers = net.metrics().net_failovers;
    row.messages = net.metrics().net_messages;
    row.dropped = net.metrics().net_dropped;
    row.rtt_p50 = net.metrics().net_rtt_p50_seconds;
    row.rtt_p99 = net.metrics().net_rtt_p99_seconds;
    rows.push_back(row);
  }

  std::printf("  %-14s %9s %9s %6s %7s %9s %9s %9s %9s\n", "scenario",
              "retain", "score", "lost", "retries", "failover", "dropped",
              "rtt_p50", "rtt_p99");
  for (const FaultRow& row : rows) {
    std::printf("  %-14s %8.3f%% %8.3f%% %6d %7d %9d %9lld %8.3fs %8.3fs\n",
                row.name.c_str(), row.retention * 100.0,
                row.score_ratio * 100.0, row.lost_shards, row.retries,
                row.failovers, static_cast<long long>(row.dropped),
                row.rtt_p50, row.rtt_p99);
  }

  // --- Section 3: the fault-injection fuzz, recorded -------------------
  // Mirrors net_dispatch_test's 100-seed fuzz (random drop rate, one
  // partition window, one crash, arbitrary retry knobs) on a smaller
  // instance and records the aggregate outcome: every run must
  // terminate (CHECKed inside Solve) and validate; the JSON keeps the
  // retention distribution against the fault-free baseline.
  casc::SyntheticInstanceConfig fuzz_gen;
  fuzz_gen.num_workers = 400;
  fuzz_gen.num_tasks = 140;
  casc::Rng fuzz_rng(seed ^ 0xF022);
  const casc::Instance fuzz_instance =
      casc::GenerateSyntheticInstance(fuzz_gen, /*now=*/0.0, &fuzz_rng);
  casc::ShardedOptions fuzz_options;
  fuzz_options.shards_per_side = 2;
  fuzz_options.num_threads = 1;
  casc::ShardedAssigner fuzz_reference(fuzz_options, GtFactory());
  const casc::Assignment fuzz_baseline = fuzz_reference.Run(fuzz_instance);
  const int fuzz_baseline_assigned = fuzz_baseline.NumAssigned();
  CASC_CHECK_GT(fuzz_baseline_assigned, 0);

  const int kFuzzRuns = 100;
  int fuzz_identical = 0;
  int fuzz_lost_shards = 0;
  int fuzz_retries = 0;
  int fuzz_failovers = 0;
  double fuzz_min_retention = 1.0;
  double fuzz_sum_retention = 0.0;
  for (uint64_t run = 0; run < kFuzzRuns; ++run) {
    casc::Rng knobs(run * 2654435761u + 1);
    casc::DistributedConfig dist;
    dist.num_nodes = 3;
    dist.network.seed = run + 1;
    dist.network.drop_rate = knobs.Uniform(0.0, 0.4);
    dist.network.base_delay = knobs.Uniform(0.0, 0.05);
    dist.network.jitter = knobs.Uniform(0.0, 0.02);
    dist.network.solve_seconds = knobs.Uniform(0.0, 0.05);
    casc::NetPartition partition;
    partition.start = knobs.Uniform(0.0, 0.5);
    partition.end = partition.start + knobs.Uniform(0.1, 1.5);
    partition.island = {static_cast<casc::NodeId>(1 + run % 3)};
    dist.network.partitions.push_back(partition);
    casc::CrashEvent crash;
    crash.node = static_cast<casc::NodeId>(1 + (run / 3) % 3);
    crash.time = knobs.Uniform(0.0, 0.5);
    crash.restart_time =
        knobs.Bernoulli(0.5) ? crash.time + knobs.Uniform(0.1, 1.0) : -1.0;
    dist.network.crashes.push_back(crash);
    dist.protocol.retry_timeout = knobs.Uniform(0.02, 0.5);
    dist.protocol.retry_backoff = knobs.Bernoulli(0.5) ? 1.0 : 2.0;
    dist.protocol.max_attempts =
        1 + static_cast<int>(knobs.Uniform(0.0, 6.0));
    dist.protocol.heartbeat_interval =
        knobs.Bernoulli(0.5) ? 0.0 : knobs.Uniform(0.05, 0.3);

    casc::NetShardedAssigner net(fuzz_options, dist, GtFactory());
    const casc::Assignment result = net.Solve(fuzz_instance);
    CASC_CHECK(result.Validate(fuzz_instance).ok()) << "fuzz run " << run;
    const double retention = static_cast<double>(result.NumAssigned()) /
                             static_cast<double>(fuzz_baseline_assigned);
    fuzz_min_retention = std::min(fuzz_min_retention, retention);
    fuzz_sum_retention += retention;
    fuzz_lost_shards += net.metrics().lost_shards;
    fuzz_retries += net.metrics().net_retries;
    fuzz_failovers += net.metrics().net_failovers;
    if (net.metrics().lost_shards == 0 &&
        result.Pairs() == fuzz_baseline.Pairs()) {
      ++fuzz_identical;
    }
  }
  std::printf("fuzz: %d/%d runs bit-identical to fault-free, "
              "min retention %.3f, mean %.3f, %d lost shards, "
              "%d retries, %d failovers — all valid, all terminated\n",
              fuzz_identical, kFuzzRuns, fuzz_min_retention,
              fuzz_sum_retention / kFuzzRuns, fuzz_lost_shards,
              fuzz_retries, fuzz_failovers);

  std::ostringstream json;
  json.precision(std::numeric_limits<double>::max_digits10);
  json << "{\"bench\":\"net_dispatch\",\"seed\":" << seed
       << ",\"workers\":" << instance.num_workers()
       << ",\"tasks\":" << instance.num_tasks()
       << ",\"shards_per_side\":" << options.shards_per_side
       << ",\"nodes\":" << num_nodes << ",\"reps\":" << reps
       << ",\"zero_fault\":{"
       << "\"in_process_seconds\":" << in_process_seconds
       << ",\"distributed_seconds\":" << net_seconds
       << ",\"overhead\":" << overhead
       << ",\"messages_per_batch\":" << net_messages
       << ",\"bytes_per_batch\":" << net_bytes
       << ",\"bit_identical\":true},\"faults\":[";
  for (size_t i = 0; i < rows.size(); ++i) {
    const FaultRow& row = rows[i];
    if (i > 0) json << ",";
    json << "{\"name\":\"" << row.name << "\",\"drop_rate\":"
         << row.drop_rate << ",\"crash\":" << (row.crash ? "true" : "false")
         << ",\"retention\":" << row.retention
         << ",\"score_ratio\":" << row.score_ratio
         << ",\"lost_shards\":" << row.lost_shards
         << ",\"retries\":" << row.retries
         << ",\"failovers\":" << row.failovers
         << ",\"messages\":" << row.messages
         << ",\"dropped\":" << row.dropped
         << ",\"rtt_p50_seconds\":" << row.rtt_p50
         << ",\"rtt_p99_seconds\":" << row.rtt_p99 << "}";
  }
  json << "],\"fuzz\":{\"runs\":" << kFuzzRuns
       << ",\"workers\":" << fuzz_instance.num_workers()
       << ",\"tasks\":" << fuzz_instance.num_tasks()
       << ",\"all_valid\":true,\"all_terminated\":true"
       << ",\"bit_identical_runs\":" << fuzz_identical
       << ",\"min_retention\":" << fuzz_min_retention
       << ",\"mean_retention\":" << fuzz_sum_retention / kFuzzRuns
       << ",\"lost_shards\":" << fuzz_lost_shards
       << ",\"retries\":" << fuzz_retries
       << ",\"failovers\":" << fuzz_failovers << "}}";

  const std::string out = flags.GetString("json");
  std::ofstream file(out);
  CASC_CHECK(file.good()) << "cannot open " << out;
  file << json.str() << "\n";
  std::printf("wrote %s\n", out.c_str());
  return 0;
}
