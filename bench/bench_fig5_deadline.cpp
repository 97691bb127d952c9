// Figure 5: effect of the remaining time tau_j of tasks on the
// real(-like) dataset. Sweeps tau_j over {1, 2, 3, 4, 5} batch units.

#include <string>
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
  for (const int tau : {1, 2, 3, 4, 5}) {
    casc::SweepPoint point;
    point.label = std::to_string(tau);
    point.settings = base;
    point.settings.remaining_time = tau;
    points.push_back(point);
  }
  casc::RunFigure(
      "Figure 5: Effect of the Remaining Time tau_j of Tasks (Meetup-like)",
      "tau_j", points, casc::DataKind::kMeetupLike, casc::AllApproaches(), flags.GetString("csv"));
  return 0;
}
