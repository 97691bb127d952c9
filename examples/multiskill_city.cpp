// Multi-skill city dispatch: the same batch of emergency inspections run
// under both shipped objectives, end to end through the DispatchService.
//
// Each task requires a set of trade certifications (gas, electrical,
// structural, ...) its team must collectively hold. The default casc
// objective maximizes cooperation quality and ignores certifications —
// teams are tight but most fail their requirement. Selecting
// DispatchConfig::objective = "multiskill" (or CASC_OBJECTIVE=multiskill
// process-wide) gates every group score on coverage and steers the
// best-response joins toward missing-skill holders, trading a few score
// points for fully-certified teams.
//
//   ./multiskill_city [--workers 2000] [--tasks 600] [--categories 8]
//                     [--shards 2] [--seed 19]

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "algo/gt_assigner.h"
#include "common/flags.h"
#include "common/rng.h"
#include "gen/synthetic.h"
#include "model/objective.h"
#include "model/objective_model.h"
#include "service/dispatch_service.h"

namespace {

/// Fraction of staffed tasks whose certification requirement is covered.
double CoverageRate(const casc::Instance& instance,
                    const casc::Assignment& assignment) {
  int staffed = 0;
  int covered = 0;
  for (casc::TaskIndex t = 0; t < instance.num_tasks(); ++t) {
    const auto group = assignment.GroupOf(t);
    if (static_cast<int>(group.size()) < instance.min_group_size()) continue;
    ++staffed;
    if (casc::GetMultiSkillObjective().GroupFeasible(
            instance, t, group, casc::kNoWorker, casc::kNoWorker)) {
      ++covered;
    }
  }
  return staffed > 0 ? static_cast<double>(covered) / staffed : 1.0;
}

}  // namespace

int main(int argc, char** argv) {
  casc::FlagParser flags;
  flags.DefineInt64("workers", 2000, "certified field workers");
  flags.DefineInt64("tasks", 600, "inspections in the batch");
  flags.DefineInt64("categories", 8, "certification categories");
  flags.DefineInt64("shards", 2, "shards per side (S)");
  flags.DefineInt64("seed", 19, "generator seed");
  flags.ParseOrExit(argc, argv);
  const int m = static_cast<int>(flags.GetInt64("workers"));
  const int n = static_cast<int>(flags.GetInt64("tasks"));
  const int categories = static_cast<int>(flags.GetInt64("categories"));

  // One morning batch: every worker and inspection is present at t = 0.
  // Workers hold two random certifications; inspections demand two.
  casc::Rng rng(static_cast<uint64_t>(flags.GetInt64("seed")));
  casc::WorkerGenConfig worker_config;
  worker_config.radius_min = 0.10;
  worker_config.radius_max = 0.20;
  worker_config.num_skills = categories;
  worker_config.skills_per_worker = 2;
  casc::TaskGenConfig task_config;
  task_config.num_skills = categories;
  task_config.skills_per_task = 2;
  std::vector<casc::Worker> workers;
  for (int i = 0; i < m; ++i) {
    workers.push_back(casc::GenerateWorker(i, worker_config, 0.0, &rng));
  }
  std::vector<casc::Task> tasks;
  for (int j = 0; j < n; ++j) {
    tasks.push_back(casc::GenerateTask(j, task_config, 0.0, &rng));
  }
  const casc::CooperationMatrix coop =
      casc::CooperationMatrix::Procedural(m, rng.Next());

  std::printf("%d workers, %d inspections, %d certification categories\n\n",
              m, n, categories);
  std::printf("%-11s %10s %10s %9s %9s\n", "objective", "score",
              "coverage", "staffed", "rejects");

  for (const std::string objective : {"casc", "multiskill"}) {
    casc::DispatchConfig config;
    config.sharded.shards_per_side =
        static_cast<int>(flags.GetInt64("shards"));
    config.min_group_size = 3;
    config.objective = objective;
    casc::DispatchService service(config, &coop, [] {
      casc::GtOptions options;
      options.use_tsi = true;
      options.use_lub = true;
      return std::make_unique<casc::GtAssigner>(options);
    });
    const casc::DispatchResult result =
        service.RunBatch(workers, tasks, /*now=*/0.0);
    int staffed = 0;
    for (casc::TaskIndex t = 0; t < result.instance.num_tasks(); ++t) {
      if (static_cast<int>(result.assignment.GroupOf(t).size()) >=
          result.instance.min_group_size()) {
        ++staffed;
      }
    }
    std::printf("%-11s %10.2f %9.1f%% %9d %9lld\n", objective.c_str(),
                casc::TotalScore(result.instance, result.assignment),
                CoverageRate(result.instance, result.assignment) * 100.0,
                staffed,
                static_cast<long long>(result.metrics.feasibility_rejects));
  }

  std::printf(
      "\nThe multiskill column trades a sliver of cooperation score for\n"
      "fully-certified teams; the same switch is available process-wide\n"
      "as CASC_OBJECTIVE=multiskill (see README kill-switch table).\n");
  return 0;
}
