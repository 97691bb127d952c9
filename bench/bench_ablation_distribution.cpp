// Ablation: UNIF vs SKEW location distributions (Section VI-A describes
// both; the paper's synthetic figures use them interchangeably). Runs
// every approach at the default settings under each distribution.

#include <vector>

#include "bench_util/experiment.h"
#include "common/flags.h"

int main(int argc, char** argv) {
  casc::FlagParser flags;
  flags.DefineInt64("workers", 1000, "workers per round (m)");
  flags.DefineInt64("tasks", 500, "tasks per round (n)");
  flags.DefineInt64("rounds", 10, "rounds (R)");
  flags.DefineInt64("seed", 42, "master seed");
  flags.DefineString("csv", "", "optional CSV output path prefix");
  flags.ParseOrExit(argc, argv);

  casc::ExperimentSettings base;
  base.num_workers = static_cast<int>(flags.GetInt64("workers"));
  base.num_tasks = static_cast<int>(flags.GetInt64("tasks"));
  base.rounds = static_cast<int>(flags.GetInt64("rounds"));
  base.seed = static_cast<uint64_t>(flags.GetInt64("seed"));

  std::vector<casc::SweepPoint> points;
  {
    casc::SweepPoint unif;
    unif.label = "UNIF";
    unif.settings = base;
    points.push_back(unif);
    casc::SweepPoint skew;
    skew.label = "SKEW";
    skew.settings = base;
    skew.settings.distribution = casc::LocationDistribution::kSkewed;
    points.push_back(skew);
  }
  casc::RunFigure("Ablation: location distribution (UNIF vs SKEW)",
                  "distribution", points, casc::DataKind::kSynthetic,
                  casc::AllApproaches(), flags.GetString("csv"));
  return 0;
}
