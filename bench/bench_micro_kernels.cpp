// Micro-benchmark: the tile affinity kernels against the legacy
// CooperationMatrix path. Times RowSum/PairSum over group sizes
// {2,4,8,16} for the CoopTile kernels and the pre-kernel
// CooperationMatrix::RowSum/PairSum baseline.
//
//   ./bench_micro_kernels [--matrix 768] [--ops 200000] [--seed 42]
//                         [--json BENCH_PR5.json]

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "kernel/affinity_kernels.h"
#include "kernel/coop_tile.h"
#include "model/cooperation_matrix.h"

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
      // cooperation history.
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
  json << "]}";

  const std::string path = flags.GetString("json");
  if (!path.empty()) {
    std::ofstream out(path);
    out << json.str() << "\n";
    std::printf("wrote %s\n", path.c_str());
  }
  return 0;
}
