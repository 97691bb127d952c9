// Ablation: batch-based vs online (one-by-one) assignment. The paper
// (Section VII) contrasts its batch mode with the online SAT mode of
// [25][28]; this bench quantifies the cost of assigning each worker
// immediately and irrevocably on arrival, as a function of batch size.

#include <cstdio>
#include <vector>

#include "algo/gt_assigner.h"
#include "algo/online_assigner.h"
#include "algo/tpg_assigner.h"
#include "bench_util/table_printer.h"
#include "common/flags.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "gen/synthetic.h"
#include "model/objective.h"

int main(int argc, char** argv) {
  casc::FlagParser flags;
  flags.DefineInt64("tasks", 300, "tasks per instance (n)");
  flags.DefineInt64("rounds", 5, "instances per scale");
  flags.DefineInt64("seed", 42, "master seed");
  flags.ParseOrExit(argc, argv);

  casc::TablePrinter table(
      {"m", "ONLINE", "TPG", "GT", "online/GT", "ONLINE ms", "GT ms"});
  for (const int m : {300, 600, 1000, 2000}) {
    double online_total = 0, tpg_total = 0, gt_total = 0;
    double online_ms = 0, gt_ms = 0;
    const int rounds = static_cast<int>(flags.GetInt64("rounds"));
    for (int r = 0; r < rounds; ++r) {
      casc::Rng rng(static_cast<uint64_t>(flags.GetInt64("seed")) +
                    static_cast<uint64_t>(m * 131 + r));
      casc::SyntheticInstanceConfig config;
      config.num_workers = m;
      config.num_tasks = static_cast<int>(flags.GetInt64("tasks"));
      // Stagger arrivals so "online order" is meaningful.
      casc::Instance instance =
          casc::GenerateSyntheticInstance(config, 0.0, &rng);

      casc::OnlineAssigner online;
      casc::TpgAssigner tpg;
      casc::GtAssigner gt;
      casc::Stopwatch watch;
      online_total += casc::TotalScore(instance, online.Run(instance));
      online_ms += watch.ElapsedMillis();
      tpg_total += casc::TotalScore(instance, tpg.Run(instance));
      watch.Restart();
      gt_total += casc::TotalScore(instance, gt.Run(instance));
      gt_ms += watch.ElapsedMillis();
    }
    table.AddRow({std::to_string(m), casc::FormatDouble(online_total, 1),
                  casc::FormatDouble(tpg_total, 1),
                  casc::FormatDouble(gt_total, 1),
                  casc::FormatDouble(online_total / gt_total, 3),
                  casc::FormatDouble(online_ms / rounds, 2),
                  casc::FormatDouble(gt_ms / rounds, 2)});
  }
  std::printf(
      "=== Ablation: online (one-by-one) vs batch assignment ===\n\n%s\n",
      table.Render().c_str());
  return 0;
}
