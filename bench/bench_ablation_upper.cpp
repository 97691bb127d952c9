// Ablation: tightness of the UPPER estimate (Equation 9). Compares the
// paper-literal scope (per-worker ceilings over ALL workers) with the
// co-candidate scope (ceilings over workers that share a valid task) as
// a function of the working-area radius — the knob that controls how
// fragmented the batch is. The achieved GT score anchors the comparison.

#include <cstdio>
#include <vector>

#include "algo/gt_assigner.h"
#include "algo/upper_bound.h"
#include "bench_util/table_printer.h"
#include "common/flags.h"
#include "common/strings.h"
#include "gen/synthetic.h"
#include "model/objective.h"

int main(int argc, char** argv) {
  casc::FlagParser flags;
  flags.DefineInt64("workers", 800, "workers (m)");
  flags.DefineInt64("tasks", 400, "tasks (n)");
  flags.DefineInt64("seed", 42, "master seed");
  flags.ParseOrExit(argc, argv);

  casc::TablePrinter table({"[r-,r+]%", "GT score", "UPPER literal",
                            "UPPER co-cand", "GT/literal", "GT/co-cand"});
  const std::vector<std::pair<double, double>> ranges = {
      {1, 5}, {5, 10}, {10, 15}, {15, 20}};
  for (const auto& [lo, hi] : ranges) {
    casc::Rng rng(static_cast<uint64_t>(flags.GetInt64("seed")) +
                  static_cast<uint64_t>(lo * 100));
    casc::SyntheticInstanceConfig config;
    config.num_workers = static_cast<int>(flags.GetInt64("workers"));
    config.num_tasks = static_cast<int>(flags.GetInt64("tasks"));
    config.worker.radius_min = lo / 100.0;
    config.worker.radius_max = hi / 100.0;
    const casc::Instance instance =
        casc::GenerateSyntheticInstance(config, 0.0, &rng);

    casc::GtAssigner gt;
    const double score = casc::TotalScore(instance, gt.Run(instance));
    const double literal = casc::ComputeUpperBound(
        instance, casc::UpperBoundScope::kAllWorkers);
    const double scoped = casc::ComputeUpperBound(
        instance, casc::UpperBoundScope::kCoCandidates);
    table.AddRow({"[" + casc::FormatDouble(lo, 0) + "," +
                      casc::FormatDouble(hi, 0) + "]",
                  casc::FormatDouble(score, 1),
                  casc::FormatDouble(literal, 1),
                  casc::FormatDouble(scoped, 1),
                  casc::FormatDouble(score / literal, 3),
                  casc::FormatDouble(score / scoped, 3)});
  }
  std::printf(
      "=== Ablation: UPPER tightness, literal vs co-candidate scope "
      "===\n\n%s\n",
      table.Render().c_str());
  return 0;
}
