// Figure 6: effect of the TSI threshold epsilon on synthetic data.
// Sweeps epsilon over {0, 0.01, 0.03, 0.05, 0.08} for GT+TSI and reports
// the total cooperation score (6a) and the running time (6b); plain GT is
// included as the epsilon-free reference line.

#include <string>
#include <vector>

#include "bench_util/experiment.h"
#include "common/flags.h"
#include "common/strings.h"

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
  for (const double epsilon : {0.0, 0.01, 0.03, 0.05, 0.08}) {
    casc::SweepPoint point;
    point.label = casc::FormatDouble(epsilon, 2);
    point.settings = base;
    point.settings.epsilon = epsilon;
    points.push_back(point);
  }
  casc::RunFigure("Figure 6: Effect of the Threshold Parameter epsilon (UNIF)",
                  "epsilon", points, casc::DataKind::kSynthetic,
                  {casc::ApproachId::kGt, casc::ApproachId::kGtTsi},
                  flags.GetString("csv"));
  return 0;
}
