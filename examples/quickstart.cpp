// Quickstart: build a CA-SC batch, solve it with every approach, and
// print the resulting total cooperation quality scores.
//
//   ./quickstart [--workers N] [--tasks N] [--seed S]

#include <cstdio>

#include "algo/gt_assigner.h"
#include "algo/maxflow_assigner.h"
#include "algo/random_assigner.h"
#include "algo/tpg_assigner.h"
#include "algo/upper_bound.h"
#include "common/flags.h"
#include "common/stopwatch.h"
#include "gen/synthetic.h"
#include "model/objective.h"

int main(int argc, char** argv) {
  casc::FlagParser flags;
  flags.DefineInt64("workers", 200, "workers in the batch (m)", 0,
                    casc::FlagParser::kIntMax);
  flags.DefineInt64("tasks", 80, "tasks in the batch (n)", 0,
                    casc::FlagParser::kIntMax);
  flags.DefineInt64("seed", 42, "generator seed");
  flags.ParseOrExit(argc, argv);

  // 1) Generate one batch: m workers, n tasks, uniform locations in the
  //    unit square, pairwise cooperation qualities in [0, 1].
  casc::Rng rng(static_cast<uint64_t>(flags.GetInt64("seed")));
  casc::SyntheticInstanceConfig config;
  config.num_workers = static_cast<int>(flags.GetInt64("workers"));
  config.num_tasks = static_cast<int>(flags.GetInt64("tasks"));
  const casc::Instance instance =
      casc::GenerateSyntheticInstance(config, /*now=*/0.0, &rng);
  std::printf("instance: m=%d workers, n=%d tasks, %zu valid pairs, B=%d\n\n",
              instance.num_workers(), instance.num_tasks(),
              instance.NumValidPairs(), instance.min_group_size());

  // 2) Solve it with each approach from the paper.
  casc::TpgAssigner tpg;
  casc::GtAssigner gt;
  casc::GtOptions all_options;
  all_options.use_tsi = true;
  all_options.use_lub = true;
  casc::GtAssigner gt_all(all_options);
  casc::MaxFlowAssigner mflow;
  casc::RandomAssigner rand(7);

  for (casc::Assigner* assigner :
       {static_cast<casc::Assigner*>(&tpg), static_cast<casc::Assigner*>(&gt),
        static_cast<casc::Assigner*>(&gt_all),
        static_cast<casc::Assigner*>(&mflow),
        static_cast<casc::Assigner*>(&rand)}) {
    casc::Stopwatch watch;
    const casc::Assignment assignment = assigner->Run(instance);
    const double millis = watch.ElapsedMillis();
    std::printf("%-7s score=%8.2f  assigned=%3d workers  (%.1f ms)\n",
                assigner->Name().c_str(),
                casc::TotalScore(instance, assignment),
                assignment.NumAssigned(), millis);
  }

  // 3) Compare against the UPPER estimate (Equation 9).
  std::printf("%-7s score=%8.2f  (Equation 9 estimate)\n", "UPPER",
              casc::ComputeUpperBound(instance));
  return 0;
}
