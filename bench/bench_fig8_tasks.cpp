// Figure 8: effect of the number n of tasks per round on synthetic data.
// Sweeps n over {100, 300, 500, 800, 1K}.

#include <string>
#include <vector>

#include "bench_util/experiment.h"
#include "common/flags.h"

int main(int argc, char** argv) {
  casc::FlagParser flags;
  flags.DefineInt64("workers", 1000, "workers per round (m)");
  flags.DefineInt64("rounds", 10, "rounds (R)");
  flags.DefineInt64("seed", 42, "master seed");
  flags.DefineString("csv", "", "optional CSV output path prefix");
  flags.ParseOrExit(argc, argv);

  casc::ExperimentSettings base;
  base.num_workers = static_cast<int>(flags.GetInt64("workers"));
  base.rounds = static_cast<int>(flags.GetInt64("rounds"));
  base.seed = static_cast<uint64_t>(flags.GetInt64("seed"));

  std::vector<casc::SweepPoint> points;
  for (const int n : {100, 300, 500, 800, 1000}) {
    casc::SweepPoint point;
    point.label = n >= 1000 ? "1K" : std::to_string(n);
    point.settings = base;
    point.settings.num_tasks = n;
    points.push_back(point);
  }
  casc::RunFigure("Figure 8: Effect of the Number of Tasks n (UNIF)", "n",
                  points, casc::DataKind::kSynthetic,
                  casc::AllApproaches(), flags.GetString("csv"));
  return 0;
}
