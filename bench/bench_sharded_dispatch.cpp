// Sharded dispatch benchmark: monolithic GT vs the sharded engine at
// S in {1, 2, 4, 8} on large synthetic instances (procedural cooperation
// matrix — a dense 50K matrix would need 20 GB). Reports score retention
// (sharded score / monolithic score) and wall-clock speedup per shard
// count, and writes a machine-readable JSON file for the perf trail.
//
//   ./bench_sharded_dispatch [--sizes 10000,50000] [--shards 1,2,4,8]
//                            [--threads 8] [--seed 42]
//                            [--json BENCH_PR2.json]

#include <cmath>
#include <cstdio>
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
#include "service/dispatch_service.h"

namespace {

std::vector<int> ParseIntList(const std::string& csv) {
  std::vector<int> values;
  std::stringstream stream(csv);
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (!item.empty()) values.push_back(std::stoi(item));
  }
  return values;
}

/// A one-batch instance with m workers, m/2 tasks and a working radius
/// scaled so each worker reaches ~40 tasks regardless of m (keeping the
/// assignment game comparable across sizes instead of densifying).
casc::Instance MakeInstance(int num_workers, uint64_t seed) {
  const int num_tasks = num_workers / 2;
  const double r0 =
      std::sqrt(40.0 / (3.14159265358979 * static_cast<double>(num_tasks)));
  casc::WorkerGenConfig worker_config;
  worker_config.radius_min = 0.8 * r0;
  worker_config.radius_max = 1.2 * r0;
  casc::TaskGenConfig task_config;

  casc::Rng rng(seed);
  std::vector<casc::Worker> workers;
  workers.reserve(static_cast<size_t>(num_workers));
  for (int i = 0; i < num_workers; ++i) {
    workers.push_back(casc::GenerateWorker(i, worker_config, 0.0, &rng));
  }
  std::vector<casc::Task> tasks;
  tasks.reserve(static_cast<size_t>(num_tasks));
  for (int j = 0; j < num_tasks; ++j) {
    tasks.push_back(casc::GenerateTask(j, task_config, 0.0, &rng));
  }
  casc::Instance instance(
      std::move(workers), std::move(tasks),
      casc::CooperationMatrix::Procedural(num_workers, seed ^ 0x9E3779B9u),
      /*now=*/0.0, /*min_group_size=*/3);
  instance.ComputeValidPairs();
  return instance;
}

}  // namespace

int main(int argc, char** argv) {
  casc::FlagParser flags;
  flags.DefineString("sizes", "10000,50000", "instance sizes (workers)");
  flags.DefineString("shards", "1,2,4,8", "shards-per-side sweep (S)");
  flags.DefineInt64("threads", 8, "threads for the sharded engine");
  flags.DefineInt64("seed", 42, "generator seed");
  flags.DefineString("json", "BENCH_PR2.json", "JSON output path");
  flags.ParseOrExit(argc, argv);
  const int threads = static_cast<int>(flags.GetInt64("threads"));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt64("seed"));

  casc::GtOptions gt_options;
  gt_options.use_tsi = true;
  gt_options.use_lub = true;
  const casc::AssignerFactory factory = [gt_options] {
    return std::make_unique<casc::GtAssigner>(gt_options);
  };

  std::ostringstream json;
  json.precision(std::numeric_limits<double>::max_digits10);
  json << "{\"bench\":\"sharded_dispatch\",\"threads\":" << threads
       << ",\"seed\":" << seed << ",\"instances\":[";

  bool first_instance = true;
  for (const int m : ParseIntList(flags.GetString("sizes"))) {
    std::printf("generating m=%d instance...\n", m);
    const casc::Instance instance = MakeInstance(m, seed);
    std::printf("  %d workers, %d tasks, %zu valid pairs\n",
                instance.num_workers(), instance.num_tasks(),
                instance.NumValidPairs());

    casc::GtAssigner monolithic(gt_options);
    casc::Stopwatch watch;
    const casc::Assignment mono_assignment = monolithic.Run(instance);
    const double mono_seconds = watch.ElapsedSeconds();
    const double mono_score = casc::TotalScore(instance, mono_assignment);
    std::printf("  monolithic %s: Q = %.2f in %.2fs\n",
                monolithic.Name().c_str(), mono_score, mono_seconds);

    if (!first_instance) json << ",";
    first_instance = false;
    json << "{\"workers\":" << instance.num_workers()
         << ",\"tasks\":" << instance.num_tasks()
         << ",\"valid_pairs\":" << instance.NumValidPairs()
         << ",\"monolithic\":{\"score\":" << mono_score
         << ",\"seconds\":" << mono_seconds << "},\"sharded\":[";

    std::printf("  %2s  %9s  %9s  %8s  %8s  %8s\n", "S", "score",
                "retention", "seconds", "speedup", "boundary");
    bool first_shard = true;
    for (const int s : ParseIntList(flags.GetString("shards"))) {
      casc::ShardedOptions options;
      options.shards_per_side = s;
      options.num_threads = threads;
      casc::ShardedAssigner sharded(options, factory);
      watch.Restart();
      const casc::Assignment assignment = sharded.Run(instance);
      const double seconds = watch.ElapsedSeconds();
      const double score = casc::TotalScore(instance, assignment);
      const casc::Status valid = assignment.Validate(instance);
      CASC_CHECK(valid.ok()) << "S=" << s << ": " << valid.message();
      const double retention = mono_score > 0.0 ? score / mono_score : 1.0;
      const double speedup = seconds > 0.0 ? mono_seconds / seconds : 0.0;
      const casc::ServiceMetrics& metrics = sharded.metrics();
      std::printf("  %2d  %9.2f  %8.1f%%  %7.2fs  %7.2fx  %8d\n", s, score,
                  retention * 100.0, seconds, speedup,
                  metrics.boundary_workers);

      if (!first_shard) json << ",";
      first_shard = false;
      json << "{\"shards_per_side\":" << s << ",\"score\":" << score
           << ",\"retention\":" << retention << ",\"seconds\":" << seconds
           << ",\"speedup\":" << speedup
           << ",\"interior_workers\":" << metrics.interior_workers
           << ",\"boundary_workers\":" << metrics.boundary_workers
           << ",\"inserted_boundary\":" << metrics.inserted_boundary
           << ",\"seeded_boundary\":" << metrics.seeded_boundary
           << ",\"polish_moves\":" << metrics.polish_moves
           << ",\"partition_seconds\":" << metrics.partition_seconds
           << ",\"phase1_seconds\":" << metrics.phase1_seconds
           << ",\"phase2_seconds\":" << metrics.phase2_seconds << "}";
    }
    json << "]}";
  }
  json << "]}";

  const std::string path = flags.GetString("json");
  if (!path.empty()) {
    std::ofstream out(path);
    out << json.str() << "\n";
    std::printf("wrote %s\n", path.c_str());
  }
  return 0;
}
