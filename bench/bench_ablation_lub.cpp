// Ablation: how much best-response recomputation the LUB optimization
// (Theorems V.3/V.4) saves, as a function of the worker count. Reports
// evaluations performed / skipped and the resulting score parity with
// plain GT.

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
  flags.DefineInt64("tasks", 300, "tasks per instance (n)");
  flags.DefineInt64("seed", 42, "master seed");
  flags.ParseOrExit(argc, argv);

  casc::TablePrinter table({"m", "GT evals", "LUB evals", "LUB skips",
                            "evals saved", "score ratio", "GT ms",
                            "LUB ms"});
  for (const int m : {300, 600, 1000, 2000}) {
    casc::Rng rng(static_cast<uint64_t>(flags.GetInt64("seed")) + m);
    casc::SyntheticInstanceConfig config;
    config.num_workers = m;
    config.num_tasks = static_cast<int>(flags.GetInt64("tasks"));
    const casc::Instance instance =
        casc::GenerateSyntheticInstance(config, 0.0, &rng);

    casc::GtAssigner plain;
    casc::GtOptions options;
    options.use_lub = true;
    casc::GtAssigner lazy(options);

    casc::Stopwatch watch;
    const double plain_score =
        casc::TotalScore(instance, plain.Run(instance));
    const double plain_ms = watch.ElapsedMillis();
    watch.Restart();
    const double lazy_score = casc::TotalScore(instance, lazy.Run(instance));
    const double lazy_ms = watch.ElapsedMillis();

    const auto& ps = plain.stats();
    const auto& ls = lazy.stats();
    const double saved =
        ps.best_response_evals == 0
            ? 0.0
            : 1.0 - static_cast<double>(ls.best_response_evals) /
                        static_cast<double>(ps.best_response_evals);
    table.AddRow({std::to_string(m), std::to_string(ps.best_response_evals),
                  std::to_string(ls.best_response_evals),
                  std::to_string(ls.best_response_skips),
                  casc::FormatDouble(100.0 * saved, 1) + "%",
                  casc::FormatDouble(lazy_score / plain_score, 4),
                  casc::FormatDouble(plain_ms, 1),
                  casc::FormatDouble(lazy_ms, 1)});
  }
  std::printf("=== Ablation: LUB lazy best-response updates ===\n\n%s\n",
              table.Render().c_str());
  return 0;
}
