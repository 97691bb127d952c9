// Figure 3: effect of the range [v-, v+] of workers' moving speeds on
// the real(-like) dataset. Sweeps the speed range over
// {[1,3], [1,5], [1,8], [1,10]} percent of the unit space per time unit.

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

  const std::vector<std::pair<double, double>> ranges = {
      {1, 3}, {1, 5}, {1, 8}, {1, 10}};
  std::vector<casc::SweepPoint> points;
  for (const auto& [lo, hi] : ranges) {
    casc::SweepPoint point;
    point.label = "[" + std::to_string(static_cast<int>(lo)) + "," +
                  std::to_string(static_cast<int>(hi)) + "]";
    point.settings = base;
    point.settings.speed_min_pct = lo;
    point.settings.speed_max_pct = hi;
    points.push_back(point);
  }
  casc::RunFigure(
      "Figure 3: Effect of the Range of Workers' Moving Speeds (Meetup-like)",
      "[v-,v+]%", points, casc::DataKind::kMeetupLike,
      casc::AllApproaches(), flags.GetString("csv"));
  return 0;
}
