// Ablation: TPG initialization (Algorithm 3, line 1) vs starting the
// best-response dynamic from the empty assignment. Shows why the paper
// seeds GT with TPG: for B >= 2 the empty assignment is itself a
// worthless pure Nash equilibrium (no single worker can cross the
// B-threshold alone), so the unseeded dynamic never moves and scores 0.

#include <cstdio>
#include <vector>

#include "algo/gt_assigner.h"
#include "bench_util/table_printer.h"
#include "common/flags.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "gen/synthetic.h"
#include "model/objective.h"

int main(int argc, char** argv) {
  casc::FlagParser flags;
  flags.DefineInt64("seed", 42, "master seed");
  flags.DefineInt64("instances", 5, "instances per scale");
  flags.ParseOrExit(argc, argv);

  casc::TablePrinter table({"m", "n", "init", "rounds", "moves", "score",
                            "time ms"});
  for (const auto& [m, n] : std::vector<std::pair<int, int>>{
           {300, 100}, {1000, 300}, {2000, 500}}) {
    double rounds[3] = {0, 0, 0}, moves[3] = {0, 0, 0},
           score[3] = {0, 0, 0}, millis[3] = {0, 0, 0};
    const int instances = static_cast<int>(flags.GetInt64("instances"));
    for (int i = 0; i < instances; ++i) {
      casc::Rng rng(static_cast<uint64_t>(flags.GetInt64("seed")) +
                    static_cast<uint64_t>(m * 31 + i));
      casc::SyntheticInstanceConfig config;
      config.num_workers = m;
      config.num_tasks = n;
      const casc::Instance instance =
          casc::GenerateSyntheticInstance(config, 0.0, &rng);

      for (int variant = 0; variant < 3; ++variant) {
        casc::GtOptions options;
        options.init = variant == 0   ? casc::GtInit::kTpg
                       : variant == 1 ? casc::GtInit::kRandom
                                      : casc::GtInit::kEmpty;
        options.init_seed = static_cast<uint64_t>(i + 1);
        casc::GtAssigner gt(options);
        casc::Stopwatch watch;
        const casc::Assignment assignment = gt.Run(instance);
        millis[variant] += watch.ElapsedMillis();
        rounds[variant] += gt.stats().rounds;
        moves[variant] += static_cast<double>(gt.stats().moves);
        score[variant] += casc::TotalScore(instance, assignment);
      }
    }
    const char* names[3] = {"TPG", "random", "empty"};
    for (int variant = 0; variant < 3; ++variant) {
      table.AddRow({std::to_string(m), std::to_string(n), names[variant],
                    casc::FormatDouble(rounds[variant] / instances, 1),
                    casc::FormatDouble(moves[variant] / instances, 0),
                    casc::FormatDouble(score[variant] / instances, 1),
                    casc::FormatDouble(millis[variant] / instances, 1)});
    }
  }
  std::printf("=== Ablation: GT initialization strategy ===\n\n%s\n",
              table.Render().c_str());
  return 0;
}
