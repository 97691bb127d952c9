// Ablation: optimality gap of the heuristics against the exact
// branch-and-bound solver on small instances (CA-SC is NP-hard, so this
// is the only scale where the true optimum is computable). Also shows
// how loose the UPPER estimate (Equation 9) is relative to the optimum.

#include <cstdio>
#include <vector>

#include "algo/exact_assigner.h"
#include "algo/gt_assigner.h"
#include "algo/maxflow_assigner.h"
#include "algo/random_assigner.h"
#include "algo/tpg_assigner.h"
#include "algo/upper_bound.h"
#include "bench_util/table_printer.h"
#include "common/flags.h"
#include "common/strings.h"
#include "gen/synthetic.h"
#include "model/objective.h"

int main(int argc, char** argv) {
  casc::FlagParser flags;
  flags.DefineInt64("instances", 30, "random small instances to solve");
  flags.DefineInt64("workers", 10, "workers per instance (kept small!)");
  flags.DefineInt64("tasks", 3, "tasks per instance");
  flags.DefineInt64("seed", 42, "master seed");
  flags.ParseOrExit(argc, argv);

  const int instances = static_cast<int>(flags.GetInt64("instances"));
  casc::SyntheticInstanceConfig config;
  config.num_workers = static_cast<int>(flags.GetInt64("workers"));
  config.num_tasks = static_cast<int>(flags.GetInt64("tasks"));
  config.min_group_size = 2;
  config.task.capacity = 3;
  // Generous reach and speed so the instances are combinatorially dense
  // (with the paper's default 1-5% speeds and tau = 3, a 10-worker draw
  // rarely has any valid team at all).
  config.worker.radius_min = 0.3;
  config.worker.radius_max = 0.6;
  config.worker.speed_min = 0.10;
  config.worker.speed_max = 0.30;

  casc::Rng rng(static_cast<uint64_t>(flags.GetInt64("seed")));
  casc::ExactAssigner exact;
  casc::TpgAssigner tpg;
  casc::GtAssigner gt;
  casc::MaxFlowAssigner mflow;
  casc::RandomAssigner rand(99);

  double sum_ratio_tpg = 0, sum_ratio_gt = 0, sum_ratio_mflow = 0,
         sum_ratio_rand = 0, sum_ratio_upper = 0;
  int counted = 0;
  int gt_optimal = 0, tpg_optimal = 0;
  for (int i = 0; i < instances; ++i) {
    const casc::Instance instance =
        casc::GenerateSyntheticInstance(config, 0.0, &rng);
    const double optimum =
        casc::TotalScore(instance, exact.Run(instance));
    if (optimum <= 1e-9) continue;  // degenerate draw, nothing assignable
    ++counted;
    const double s_tpg = casc::TotalScore(instance, tpg.Run(instance));
    const double s_gt = casc::TotalScore(instance, gt.Run(instance));
    sum_ratio_tpg += s_tpg / optimum;
    sum_ratio_gt += s_gt / optimum;
    sum_ratio_mflow +=
        casc::TotalScore(instance, mflow.Run(instance)) / optimum;
    sum_ratio_rand +=
        casc::TotalScore(instance, rand.Run(instance)) / optimum;
    sum_ratio_upper += casc::ComputeUpperBound(instance) / optimum;
    if (s_gt >= optimum - 1e-9) ++gt_optimal;
    if (s_tpg >= optimum - 1e-9) ++tpg_optimal;
  }

  std::printf(
      "=== Ablation: optimality gap on %d small instances "
      "(m=%d, n=%d, B=2) ===\n\n",
      counted, config.num_workers, config.num_tasks);
  casc::TablePrinter table({"approach", "avg score / OPT", "optimal rate"});
  auto pct = [&](double v) { return casc::FormatDouble(100.0 * v, 1) + "%"; };
  table.AddRow({"EXACT", "100.0%", "100.0%"});
  table.AddRow({"GT", pct(sum_ratio_gt / counted),
                pct(static_cast<double>(gt_optimal) / counted)});
  table.AddRow({"TPG", pct(sum_ratio_tpg / counted),
                pct(static_cast<double>(tpg_optimal) / counted)});
  table.AddRow({"MFLOW", pct(sum_ratio_mflow / counted), "-"});
  table.AddRow({"RAND", pct(sum_ratio_rand / counted), "-"});
  table.AddRow({"UPPER", pct(sum_ratio_upper / counted), "-"});
  std::printf("%s\n", table.Render().c_str());
  return 0;
}
