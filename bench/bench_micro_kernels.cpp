// PR5 micro-benchmark: the tile affinity kernels against the legacy
// CooperationMatrix path, plus the bound-based candidate pruning against
// the unpruned best-response scan.
//
// Section 1 times RowSum/PairSum over group sizes {2,4,8,16} for the
// CoopTile kernels and the pre-kernel CooperationMatrix::RowSum/PairSum
// baseline. Section 2 runs GT+ALL with pruning on and off on one dense
// instance and reports wall time and the prune-rate counters.
//
//   ./bench_micro_kernels [--matrix 768] [--ops 200000] [--workers 1200]
//                         [--tasks 400] [--seed 42]
//                         [--json BENCH_PR5.json]

#include <cmath>
#include <cstdint>
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
#include "kernel/affinity_kernels.h"
#include "kernel/coop_tile.h"
#include "model/batch_workspace.h"
#include "model/cooperation_matrix.h"
#include "model/objective.h"

namespace {

using casc::CooperationMatrix;
using casc::CoopTile;
CooperationMatrix DenseMatrix(int m, uint64_t seed) {
  casc::Rng rng(seed);
  CooperationMatrix coop(m, 0.0);
  for (int i = 0; i < m; ++i) {
    for (int k = 0; k < m; ++k) {
      if (i == k) continue;
      // Squared uniform: skewed toward low affinity like a real
      // cooperation history, which keeps the pruning bounds meaningful.
      const double u = rng.Uniform();
      coop.SetQuality(i, k, u * u);
    }
  }
  return coop;
}

/// Random distinct-id groups of `size` members over [0, m).
std::vector<std::vector<int>> MakeGroups(int m, int size, int count,
                                         casc::Rng* rng) {
  std::vector<std::vector<int>> groups;
  groups.reserve(static_cast<size_t>(count));
  std::vector<int> pool(static_cast<size_t>(m));
  for (int i = 0; i < m; ++i) pool[static_cast<size_t>(i)] = i;
  for (int g = 0; g < count; ++g) {
    // Partial Fisher-Yates: the first `size` entries become the group.
    for (int j = 0; j < size; ++j) {
      const int swap = j + static_cast<int>(rng->UniformInt(
                               static_cast<uint64_t>(m - j)));
      std::swap(pool[static_cast<size_t>(j)],
                pool[static_cast<size_t>(swap)]);
    }
    groups.emplace_back(pool.begin(), pool.begin() + size);
  }
  return groups;
}

struct KernelTiming {
  double ns_per_op = 0.0;
  double checksum = 0.0;  ///< keeps the timed calls from being elided
};

template <typename Fn>
KernelTiming Time(int ops, Fn&& fn) {
  // Warm-up pass (pulls the tile into cache).
  double sink = 0.0;
  for (int i = 0; i < ops / 10 + 1; ++i) sink += fn(i % 64);
  casc::Stopwatch watch;
  double checksum = 0.0;
  for (int i = 0; i < ops; ++i) checksum += fn(i);
  const double seconds = watch.ElapsedSeconds();
  return KernelTiming{seconds * 1e9 / ops, checksum + 0.0 * sink};
}

}  // namespace

int main(int argc, char** argv) {
  casc::FlagParser flags;
  flags.DefineInt64("matrix", 768, "cooperation matrix size (workers)");
  flags.DefineInt64("ops", 200000, "kernel invocations per measurement");
  flags.DefineInt64("workers", 1200, "GT pruning bench: workers");
  flags.DefineInt64("tasks", 400, "GT pruning bench: tasks");
  flags.DefineInt64("seed", 42, "generator seed");
  flags.DefineString("json", "BENCH_PR5.json", "JSON output path");
  flags.ParseOrExit(argc, argv);
  const int m = static_cast<int>(flags.GetInt64("matrix"));
  const int ops = static_cast<int>(flags.GetInt64("ops"));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt64("seed"));

  std::ostringstream json;
  json.precision(std::numeric_limits<double>::max_digits10);
  json << "{\"bench\":\"micro_kernels\",\"matrix\":" << m
       << ",\"ops\":" << ops << ",\"seed\":" << seed << ",\"kernels\":[";

  std::printf("building %dx%d dense matrix + tile...\n", m, m);
  const CooperationMatrix coop = DenseMatrix(m, seed);
  CoopTile tile;
  CASC_CHECK(tile.BuildFrom(coop, m)) << "tile gated unexpectedly";
  casc::Rng rng(seed ^ 0xF00D);

  std::printf("%-9s %5s  %12s  %12s  %10s\n", "kernel", "group", "ns/op",
              "legacy ns/op", "vs_legacy");
  bool first = true;
  for (const int group_size : {2, 4, 8, 16}) {
    const std::vector<std::vector<int>> groups =
        MakeGroups(m, group_size, 256, &rng);
    const auto group_of = [&](int i) -> const std::vector<int>& {
      return groups[static_cast<size_t>(i) % groups.size()];
    };

    for (const char* kernel : {"row_sum", "pair_sum"}) {
      const bool row = kernel[0] == 'r';
      // Legacy baseline: the CooperationMatrix virtual-free but
      // branch-heavy Quality path the solvers used before the tile.
      const KernelTiming legacy = Time(ops, [&](int i) {
        const std::vector<int>& group = group_of(i);
        return row ? coop.RowSum(group[0], {group.data() + 1,
                                            group.size() - 1})
                   : coop.PairSum(group);
      });

      const KernelTiming timing = Time(ops, [&](int i) {
        const std::vector<int>& group = group_of(i);
        return row ? casc::RowSumKernel(tile.PairRow(group[0]),
                                        group.data() + 1,
                                        static_cast<int>(group.size()) - 1)
                   : casc::PairSumKernel(tile.pair_plane(), tile.stride(),
                                         group.data(),
                                         static_cast<int>(group.size()));
      });
      const double vs_legacy =
          timing.ns_per_op > 0.0 ? legacy.ns_per_op / timing.ns_per_op : 0.0;
      std::printf("%-9s %5d  %10.1fns  %10.1fns  %9.2fx\n", kernel,
                  group_size, timing.ns_per_op, legacy.ns_per_op, vs_legacy);
      if (!first) json << ",";
      first = false;
      json << "{\"kernel\":\"" << kernel << "\",\"group\":" << group_size
           << ",\"ns_per_op\":" << timing.ns_per_op
           << ",\"legacy_ns_per_op\":" << legacy.ns_per_op
           << ",\"speedup_vs_legacy\":" << vs_legacy
           << ",\"checksum\":" << timing.checksum << "}";
    }
  }
  json << "],";

  // -------------------------------------------------------------------
  // Pruned vs unpruned best response on one dense GT instance.
  // -------------------------------------------------------------------
  const int num_workers = static_cast<int>(flags.GetInt64("workers"));
  const int num_tasks = static_cast<int>(flags.GetInt64("tasks"));
  std::printf("GT pruning bench: %d workers, %d tasks...\n", num_workers,
              num_tasks);
  casc::Rng gen_rng(seed + 1);
  casc::SyntheticInstanceConfig config;
  config.num_workers = num_workers;
  config.num_tasks = num_tasks;
  config.worker.radius_min = 0.15;
  config.worker.radius_max = 0.35;
  const casc::Instance instance =
      casc::GenerateSyntheticInstance(config, 0.0, &gen_rng);

  json << "\"pruning\":{\"workers\":" << num_workers
       << ",\"tasks\":" << num_tasks
       << ",\"valid_pairs\":" << instance.NumValidPairs() << ",";
  double pruned_score = 0.0, unpruned_score = 0.0;
  double pruned_seconds = 0.0, unpruned_seconds = 0.0;
  for (const bool prune : {false, true}) {
    casc::GtOptions options;
    options.use_tsi = true;
    options.use_lub = true;
    options.use_pruning = prune;
    casc::GtAssigner gt(options);
    casc::BatchWorkspace workspace;
    gt.set_workspace(&workspace);
    casc::Stopwatch watch;
    const casc::Assignment assignment = gt.Run(instance);
    const double seconds = watch.ElapsedSeconds();
    const double score = casc::TotalScore(instance, assignment);
    const casc::AssignerStats& stats = gt.stats();
    const int64_t total =
        stats.prune_candidates_evaluated + stats.prune_candidates_skipped;
    const double rate =
        total > 0 ? static_cast<double>(stats.prune_candidates_skipped) /
                        static_cast<double>(total)
                  : 0.0;
    std::printf("  %-9s Q = %.2f in %.3fs  (evaluated %lld, skipped %lld,"
                " prune rate %.1f%%)\n",
                prune ? "pruned" : "unpruned", score, seconds,
                static_cast<long long>(stats.prune_candidates_evaluated),
                static_cast<long long>(stats.prune_candidates_skipped),
                rate * 100.0);
    json << "\"" << (prune ? "pruned" : "unpruned")
         << "\":{\"score\":" << score << ",\"seconds\":" << seconds
         << ",\"evaluated\":" << stats.prune_candidates_evaluated
         << ",\"skipped\":" << stats.prune_candidates_skipped
         << ",\"prune_rate\":" << rate
         << ",\"rounds\":" << stats.rounds << "},";
    (prune ? pruned_score : unpruned_score) = score;
    (prune ? pruned_seconds : unpruned_seconds) = seconds;
  }
  CASC_CHECK(pruned_score == unpruned_score)
      << "pruning changed the final score: " << pruned_score << " vs "
      << unpruned_score;
  const double speedup =
      pruned_seconds > 0.0 ? unpruned_seconds / pruned_seconds : 0.0;
  std::printf("  pruning speedup: %.2fx (identical scores)\n", speedup);
  json << "\"speedup\":" << speedup << "}}";

  const std::string path = flags.GetString("json");
  if (!path.empty()) {
    std::ofstream out(path);
    out << json.str() << "\n";
    std::printf("wrote %s\n", path.c_str());
  }
  return 0;
}
