// Figure 2: effect of the capacity a_j of tasks on the real(-like)
// dataset. Sweeps a_j over {3, 4, 5, 6} and reports, per approach, the
// total cooperation score (2a) and the per-batch running time (2b).

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
  for (const int capacity : {3, 4, 5, 6}) {
    casc::SweepPoint point;
    point.label = std::to_string(capacity);
    point.settings = base;
    point.settings.capacity = capacity;
    points.push_back(point);
  }
  casc::RunFigure("Figure 2: Effect of the Capacity a_j of Tasks (Meetup-like)",
                  "a_j", points, casc::DataKind::kMeetupLike,
                  casc::AllApproaches(), flags.GetString("csv"));
  return 0;
}
