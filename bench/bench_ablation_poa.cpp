// Ablation: empirical Price of Anarchy / Price of Stability study
// (Theorem V.2). The CA-SC game has many Nash equilibria; we sample them
// by running the best-response dynamic from many random initial joint
// strategies (the generic framework of Section V-A) and report the
// spread of equilibrium qualities relative to UPPER, alongside the
// theorem's analytic PoA lower bound N_init * B * q̌ / Q̂(phi).

#include <algorithm>
#include <cstdio>
#include <vector>

#include "algo/gt_assigner.h"
#include "algo/tpg_assigner.h"
#include "algo/upper_bound.h"
#include "bench_util/table_printer.h"
#include "common/flags.h"
#include "common/strings.h"
#include "gen/synthetic.h"
#include "model/objective.h"
#include "sim/metrics.h"

int main(int argc, char** argv) {
  casc::FlagParser flags;
  flags.DefineInt64("workers", 300, "workers (m)");
  flags.DefineInt64("tasks", 120, "tasks (n)");
  flags.DefineInt64("equilibria", 25, "random starts to sample");
  flags.DefineInt64("seed", 42, "master seed");
  flags.ParseOrExit(argc, argv);

  casc::Rng rng(static_cast<uint64_t>(flags.GetInt64("seed")));
  casc::SyntheticInstanceConfig config;
  config.num_workers = static_cast<int>(flags.GetInt64("workers"));
  config.num_tasks = static_cast<int>(flags.GetInt64("tasks"));
  // Dense enough that random starts explore genuinely different basins.
  config.worker.radius_min = 0.10;
  config.worker.radius_max = 0.25;
  const casc::Instance instance =
      casc::GenerateSyntheticInstance(config, 0.0, &rng);
  const double upper = casc::ComputeUpperBound(instance);

  std::vector<double> equilibrium_scores;
  const int samples = static_cast<int>(flags.GetInt64("equilibria"));
  for (int i = 0; i < samples; ++i) {
    casc::GtOptions options;
    options.init = casc::GtInit::kRandom;
    options.init_seed = static_cast<uint64_t>(i + 1);
    casc::GtAssigner gt(options);
    const casc::Assignment assignment = gt.Run(instance);
    equilibrium_scores.push_back(casc::TotalScore(instance, assignment));
  }
  std::sort(equilibrium_scores.begin(), equilibrium_scores.end());

  // The TPG-seeded equilibrium (the paper's GT) and the analytic bound.
  casc::GtAssigner gt_tpg;
  const double tpg_seeded =
      casc::TotalScore(instance, gt_tpg.Run(instance));
  casc::TpgAssigner tpg;
  const casc::Assignment init = tpg.Run(instance);
  int n_init = 0;
  for (casc::TaskIndex t = 0; t < instance.num_tasks(); ++t) {
    if (init.GroupSize(t) >= instance.min_group_size()) ++n_init;
  }
  const double poa_bound =
      casc::PriceOfAnarchyLowerBound(instance, n_init);

  std::printf(
      "=== Ablation: empirical equilibrium spread (Theorem V.2) ===\n"
      "m=%d n=%d, %d random-start equilibria\n\n",
      config.num_workers, config.num_tasks, samples);
  casc::TablePrinter table({"quantity", "score", "fraction of UPPER"});
  auto add = [&](const char* name, double value) {
    table.AddRow({name, casc::FormatDouble(value, 1),
                  casc::FormatDouble(value / upper, 3)});
  };
  add("worst sampled equilibrium (PoA side)", equilibrium_scores.front());
  add("median sampled equilibrium",
      equilibrium_scores[equilibrium_scores.size() / 2]);
  add("best sampled equilibrium (PoS side)", equilibrium_scores.back());
  add("TPG-seeded equilibrium (paper's GT)", tpg_seeded);
  add("UPPER (Equation 9)", upper);
  std::printf("%s\n", table.Render().c_str());
  std::printf("analytic PoA lower bound (Thm V.2): %.4f\n", poa_bound);
  std::printf("empirical equilibrium spread: worst/best = %.3f\n",
              equilibrium_scores.front() / equilibrium_scores.back());
  return 0;
}
