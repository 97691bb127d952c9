// Golden output fingerprints: a fixed matrix of small runs whose outputs
// are pinned in golden_fingerprints.txt, so a change that moves any
// assignment, score bit or convergence counter fails here even when an
// oracle and its fast path moved together.
//
// A fingerprint is a 64-bit FNV-1a hash of the sorted (batch, worker id,
// task id) triples, the total score's bit pattern in hex, and the summed
// best-response rounds and strategy moves. Every row names its objective,
// so the process default (CASC_OBJECTIVE) cannot change it. A row whose
// name ends in ".net" runs through NetShardedAssigner on a zero-fault
// network and must equal its in-process counterpart (the same name
// without the suffix) in everything but the name; the ".net.drops-crash"
// row pins the networked stream's output under seeded faults.
//
// Usage: golden_test [gtest flags] [--rewrite]
// --rewrite regenerates the committed file from this build instead of
// comparing against it. Rewrite only for a change meant to move an output,
// and name each changed row in CHANGES.md.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "algo/gt_assigner.h"
#include "algo/tpg_assigner.h"
#include "common/check.h"
#include "common/rng.h"
#include "gen/synthetic.h"
#include "gen/trace.h"
#include "model/cooperation_matrix.h"
#include "model/objective.h"
#include "model/objective_model.h"
#include "net/net_dispatch.h"
#include "service/dispatch_service.h"
#include "sim/event_stream.h"

namespace casc {
namespace {

bool g_rewrite = false;

/// (batch index, worker id, task id).
using Triple = std::tuple<int64_t, int64_t, int64_t>;

struct Fingerprint {
  std::string name;
  std::vector<Triple> pairs;
  double score = 0.0;
  int64_t rounds = 0;
  int64_t moves = 0;
};

uint64_t HashPairs(std::vector<Triple> pairs) {
  std::sort(pairs.begin(), pairs.end());
  uint64_t hash = 0xcbf29ce484222325ull;  // FNV-1a offset basis
  const auto mix = [&hash](int64_t value) {
    const uint64_t bits = static_cast<uint64_t>(value);
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (bits >> (8 * byte)) & 0xffu;
      hash *= 0x100000001b3ull;  // FNV-1a prime
    }
  };
  for (const auto& [batch, worker, task] : pairs) {
    mix(batch);
    mix(worker);
    mix(task);
  }
  return hash;
}

std::string FormatRow(const Fingerprint& row) {
  char line[256];
  std::snprintf(line, sizeof(line),
                "%s pairs=%zu hash=%016" PRIx64 " score=%016" PRIx64
                " rounds=%" PRId64 " moves=%" PRId64,
                row.name.c_str(), row.pairs.size(), HashPairs(row.pairs),
                std::bit_cast<uint64_t>(row.score), row.rounds, row.moves);
  return line;
}

void AppendPairs(const Instance& instance, const Assignment& assignment,
                 int64_t batch, std::vector<Triple>* out) {
  assignment.ForEachPair([&](WorkerIndex w, TaskIndex t) {
    out->emplace_back(batch, instance.workers()[static_cast<size_t>(w)].id,
                      instance.tasks()[static_cast<size_t>(t)].id);
  });
}

const ObjectiveModel* Objective(const std::string& id) {
  const ObjectiveModel* objective = ObjectiveByName(id);
  CASC_CHECK(objective != nullptr) << "unknown objective " << id;
  return objective;
}

AssignerFactory GtAllFactory() {
  GtOptions options;
  options.use_tsi = true;
  options.use_lub = true;
  return [options] { return std::make_unique<GtAssigner>(options); };
}

// ---------------------------------------------------------------------------
// One-batch rows: the sharded engine on a Table-II-shaped instance.
// ---------------------------------------------------------------------------

/// The networked sharded engine on `network`, or without one the
/// in-process engine.
std::unique_ptr<ShardedBatchSolver> MakeSolver(
    const ShardedOptions& options, AssignerFactory factory,
    const std::optional<DistributedConfig>& network) {
  if (network.has_value()) {
    return std::make_unique<NetShardedAssigner>(options, *network,
                                                std::move(factory));
  }
  return std::make_unique<ShardedAssigner>(options, std::move(factory));
}

/// Phase-1 rounds (max over shards) and every strategy move of the batch,
/// phase-2 polish moves included.
void AddCounters(const ServiceMetrics& metrics, Fingerprint* row) {
  row->rounds += metrics.solve_rounds;
  row->moves += metrics.solve_moves + metrics.polish_moves;
}

Fingerprint SolveBatch(std::string name, LocationDistribution distribution,
                       int shards_per_side, int threads,
                       AssignerFactory factory, uint64_t seed,
                       std::optional<DistributedConfig> network = {}) {
  SyntheticInstanceConfig config;
  config.num_workers = 1000;
  config.num_tasks = 200;
  config.worker.spatial.distribution = distribution;
  config.task.spatial.distribution = distribution;
  Rng rng(seed);
  Instance instance = GenerateSyntheticInstance(config, /*now=*/0.0, &rng);
  instance.set_objective(Objective("casc"));

  ShardedOptions options;
  options.shards_per_side = shards_per_side;
  options.num_threads = threads;
  const std::unique_ptr<ShardedBatchSolver> solver =
      MakeSolver(options, std::move(factory), network);
  const Assignment assignment = solver->Solve(instance);

  Fingerprint row;
  row.name = std::move(name);
  AppendPairs(instance, assignment, 0, &row.pairs);
  row.score = TotalScore(instance, assignment);
  AddCounters(solver->metrics(), &row);
  return row;
}

// ---------------------------------------------------------------------------
// Stream rows: DispatchService::Run over a ~60-batch GT stream at S = 2.
// ---------------------------------------------------------------------------

/// A GT sharded engine plus a record of every batch it solved.
class RecordingSolver : public ShardedBatchSolver {
 public:
  RecordingSolver(ShardedOptions options,
                  const std::optional<DistributedConfig>& network,
                  Fingerprint* row)
      : inner_(MakeSolver(
            options, [] { return std::make_unique<GtAssigner>(); },
            network)),
        row_(row) {}

  Assignment Solve(const Instance& instance) override {
    Assignment assignment = inner_->Solve(instance);
    AppendPairs(instance, assignment, batch_++, &row_->pairs);
    AddCounters(inner_->metrics(), row_);
    return assignment;
  }
  const ServiceMetrics& metrics() const override { return inner_->metrics(); }
  void AttachWorkspace(BatchWorkspace* workspace) override {
    inner_->AttachWorkspace(workspace);
  }
  void SetSolveDelta(const SolveDelta* delta) override {
    inner_->SetSolveDelta(delta);
  }

 private:
  std::unique_ptr<ShardedBatchSolver> inner_;
  Fingerprint* row_;
  int64_t batch_ = 0;
};

struct StreamFixture {
  Trace trace;
  CooperationMatrix coop{0};
};

/// Skilled workers and tasks, so the multiskill rows differ from casc.
StreamFixture MakeStream() {
  TraceConfig config;
  config.horizon = 60.0;
  config.worker_rate = 12.0;
  config.task_rate = 5.0;
  config.rush_windows.push_back({0.0, 9.0, 3.0});
  config.worker.radius_min = 0.10;
  config.worker.radius_max = 0.20;
  config.worker.speed_min = 0.05;
  config.worker.speed_max = 0.10;
  config.worker.num_skills = 8;
  config.worker.skills_per_worker = 2;
  config.task.remaining_time = 6.0;
  config.task.capacity = 4;
  config.task.num_skills = 8;
  config.task.skills_per_task = 2;
  Rng rng(2019);
  StreamFixture fixture;
  fixture.trace = GenerateTrace(config, &rng);
  fixture.coop = CooperationMatrix::Procedural(
      static_cast<int>(fixture.trace.workers.size()), 2019);
  return fixture;
}

struct StreamMode {
  std::string objective = "casc";
  bool warm = true;
  bool pipeline = true;
  bool audit = false;
  int threads = 2;  ///< the engine's pool, which the CSR emission borrows
  std::optional<DistributedConfig> network;  ///< none: in process
};

Fingerprint RunStream(std::string name, const StreamMode& mode) {
  static const StreamFixture fixture = MakeStream();
  DispatchConfig config;
  config.sharded.shards_per_side = 2;
  config.sharded.num_threads = mode.threads;
  config.min_group_size = 3;
  config.task_duration = 2.0;
  config.max_tasks_per_batch = 30;
  config.objective = mode.objective;
  config.enable_warm_start = mode.warm;
  config.enable_pipeline = mode.pipeline;
  config.audit_streaming = mode.audit;

  Fingerprint row;
  row.name = std::move(name);
  RecordingSolver solver(config.sharded, mode.network, &row);
  DispatchService service(config, &fixture.coop,
                          [] { return std::make_unique<GtAssigner>(); });
  service.set_batch_solver(&solver);
  const EventStream stream(fixture.trace.workers, fixture.trace.tasks);
  row.score = service.Run(stream).TotalScore();
  return row;
}

std::vector<Fingerprint> ComputeRows() {
  std::vector<Fingerprint> rows;
  for (const int threads : {1, 4}) {
    rows.push_back(SolveBatch("batch.skew.s4.gtall.casc.t" +
                                  std::to_string(threads),
                              LocationDistribution::kSkewed, 4, threads,
                              GtAllFactory(), 7));
  }
  rows.push_back(SolveBatch(
      "batch.unif.s1.tpg.casc.t1", LocationDistribution::kUniform, 1, 1,
      [] { return std::make_unique<TpgAssigner>(); }, 11));

  for (const std::string objective : {"casc", "multiskill"}) {
    for (const bool warm : {false, true}) {
      for (const bool pipeline : {false, true}) {
        StreamMode mode;
        mode.objective = objective;
        mode.warm = warm;
        mode.pipeline = pipeline;
        rows.push_back(RunStream("stream.s2.gt." + objective +
                                     (warm ? ".warm" : ".cold") +
                                     (pipeline ? ".pipe" : ".serial"),
                                 mode));
      }
    }
  }
  StreamMode audited;
  audited.audit = true;
  rows.push_back(RunStream("stream.s2.gt.casc.warm.pipe.audit", audited));
  for (const int threads : {1, 3}) {
    StreamMode mode;
    mode.threads = threads;
    rows.push_back(RunStream(
        "stream.s2.gt.casc.warm.pipe.t" + std::to_string(threads), mode));
  }

  rows.push_back(SolveBatch("batch.skew.s4.gtall.casc.t4.net",
                            LocationDistribution::kSkewed, 4, 4,
                            GtAllFactory(), 7, DistributedConfig{}));
  StreamMode networked;
  networked.network = DistributedConfig{};
  rows.push_back(RunStream("stream.s2.gt.casc.warm.pipe.net", networked));
  // Seeded faults: drops, delays and one node crash with a restart. One
  // attempt per node on two nodes makes some batches fail over and some
  // lose shards, whose home workers phase 2 places.
  DistributedConfig faulted;
  faulted.num_nodes = 2;
  faulted.network.drop_rate = 0.1;
  faulted.network.base_delay = 0.01;
  faulted.network.jitter = 0.005;
  faulted.network.solve_seconds = 0.02;
  faulted.network.crashes.push_back(
      {/*node=*/1, /*time=*/0.5, /*restart_time=*/1.5});
  faulted.protocol.retry_timeout = 0.1;
  faulted.protocol.max_attempts = 1;
  networked.network = faulted;
  rows.push_back(
      RunStream("stream.s2.gt.casc.warm.pipe.net.drops-crash", networked));
  return rows;
}

/// The matrix, computed once per process for both tests.
const std::vector<Fingerprint>& Rows() {
  static const std::vector<Fingerprint> rows = ComputeRows();
  return rows;
}

constexpr const char* kHeader =
    "# Golden output fingerprints, one run per line (tests/golden_test.cpp).\n"
    "# Regenerate with `golden_test --rewrite` only for a change meant to\n"
    "# move an output, and name every changed line in CHANGES.md.\n";

TEST(GoldenTest, FingerprintsMatchCommittedFile) {
  const std::vector<Fingerprint>& rows = Rows();
  if (g_rewrite) {
    std::ofstream out(CASC_GOLDEN_FILE);
    ASSERT_TRUE(out) << "cannot write " << CASC_GOLDEN_FILE;
    out << kHeader;
    for (const Fingerprint& row : rows) out << FormatRow(row) << "\n";
    std::printf("rewrote %zu rows to %s\n", rows.size(), CASC_GOLDEN_FILE);
    return;
  }

  std::ifstream in(CASC_GOLDEN_FILE);
  ASSERT_TRUE(in) << "cannot read " << CASC_GOLDEN_FILE;
  std::map<std::string, std::string> golden;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    golden[line.substr(0, line.find(' '))] = line;
  }
  EXPECT_EQ(golden.size(), rows.size()) << "row count differs from the file";
  for (const Fingerprint& row : rows) {
    EXPECT_GT(row.pairs.size(), 0u) << row.name << " assigned nobody";
    const auto it = golden.find(row.name);
    ASSERT_NE(it, golden.end()) << "no golden row " << row.name;
    EXPECT_EQ(FormatRow(row), it->second);
  }
}

/// Every row's fingerprint without its name, by name: twin runs that must
/// agree compare equal here.
std::map<std::string, std::string> RowBodies() {
  std::map<std::string, std::string> bodies;
  for (const Fingerprint& row : Rows()) {
    const std::string line = FormatRow(row);
    bodies[row.name] = line.substr(line.find(' '));
  }
  return bodies;
}

TEST(GoldenTest, ZeroFaultNetworkRowsMatchInProcessRows) {
  const std::string suffix = ".net";
  const std::map<std::string, std::string> bodies = RowBodies();
  int compared = 0;
  for (const auto& [name, body] : bodies) {
    if (!name.ends_with(suffix)) continue;
    const auto twin = bodies.find(name.substr(0, name.size() - suffix.size()));
    ASSERT_NE(twin, bodies.end()) << "no in-process row for " << name;
    EXPECT_EQ(body, twin->second) << name;
    ++compared;
  }
  EXPECT_EQ(compared, 2);
}

TEST(GoldenTest, EngineWidthRowsMatchDefaultWidthRow) {
  const std::map<std::string, std::string> bodies = RowBodies();
  const std::string base = "stream.s2.gt.casc.warm.pipe";
  ASSERT_TRUE(bodies.contains(base));
  for (const std::string width : {".t1", ".t3"}) {
    const auto row = bodies.find(base + width);
    ASSERT_NE(row, bodies.end()) << "no golden row " << base + width;
    EXPECT_EQ(row->second, bodies.at(base)) << base + width;
  }
}

}  // namespace
}  // namespace casc

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--rewrite") {
      casc::g_rewrite = true;
    } else {
      std::fprintf(stderr, "usage: %s [gtest flags] [--rewrite]\n", argv[0]);
      return 1;
    }
  }
  return RUN_ALL_TESTS();
}
