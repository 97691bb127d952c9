// Figure 4: effect of the range [r-, r+] of working areas on the
// real(-like) dataset. Sweeps the radius range over
// {[1,5], [5,10], [10,15], [15,20]} percent of the unit space.

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
      {1, 5}, {5, 10}, {10, 15}, {15, 20}};
  std::vector<casc::SweepPoint> points;
  for (const auto& [lo, hi] : ranges) {
    casc::SweepPoint point;
    point.label = "[" + std::to_string(static_cast<int>(lo)) + "," +
                  std::to_string(static_cast<int>(hi)) + "]";
    point.settings = base;
    point.settings.radius_min_pct = lo;
    point.settings.radius_max_pct = hi;
    points.push_back(point);
  }
  casc::RunFigure(
      "Figure 4: Effect of the Range of Working Areas (Meetup-like)",
      "[r-,r+]%", points, casc::DataKind::kMeetupLike,
      casc::AllApproaches(), flags.GetString("csv"));
  return 0;
}
