// Figure 7: effect of the number m of workers per round on synthetic
// data. Sweeps m over {500, 800, 1K, 2K, 5K}.

#include <string>
#include <vector>

#include "bench_util/experiment.h"
#include "common/flags.h"

int main(int argc, char** argv) {
  casc::FlagParser flags;
  flags.DefineInt64("tasks", 500, "tasks per round (n)");
  flags.DefineInt64("rounds", 10, "rounds (R)");
  flags.DefineInt64("seed", 42, "master seed");
  flags.DefineString("csv", "", "optional CSV output path prefix");
  flags.DefineInt64("max_workers", 5000, "cap on the sweep (memory bound)");
  flags.ParseOrExit(argc, argv);

  casc::ExperimentSettings base;
  base.num_tasks = static_cast<int>(flags.GetInt64("tasks"));
  base.rounds = static_cast<int>(flags.GetInt64("rounds"));
  base.seed = static_cast<uint64_t>(flags.GetInt64("seed"));

  std::vector<casc::SweepPoint> points;
  for (const int m : {500, 800, 1000, 2000, 5000}) {
    if (m > flags.GetInt64("max_workers")) continue;
    casc::SweepPoint point;
    point.label = m >= 1000 ? std::to_string(m / 1000) + "K"
                            : std::to_string(m);
    point.settings = base;
    point.settings.num_workers = m;
    points.push_back(point);
  }
  casc::RunFigure("Figure 7: Effect of the Number of Workers m (UNIF)", "m",
                  points, casc::DataKind::kSynthetic,
                  casc::AllApproaches(), flags.GetString("csv"));
  return 0;
}
