// Ablation: swap local search on top of TPG and GT. A Nash equilibrium
// only excludes unilateral deviations; profitable two-worker exchanges
// (coordinated deviations) can remain, and this bench measures how much
// score they recover and at what cost.

#include <cstdio>
#include <memory>
#include <vector>

#include "algo/gt_assigner.h"
#include "algo/local_search.h"
#include "algo/tpg_assigner.h"
#include "bench_util/table_printer.h"
#include "common/flags.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "gen/synthetic.h"
#include "model/objective.h"

namespace {

struct Row {
  std::string name;
  double score = 0;
  double ms = 0;
  int64_t swaps = 0;
};

}  // namespace

int main(int argc, char** argv) {
  casc::FlagParser flags;
  flags.DefineInt64("workers", 500, "workers (m)");
  flags.DefineInt64("tasks", 200, "tasks (n)");
  flags.DefineInt64("rounds", 5, "instances to average");
  flags.DefineInt64("seed", 42, "master seed");
  flags.ParseOrExit(argc, argv);

  const int rounds = static_cast<int>(flags.GetInt64("rounds"));
  std::vector<Row> rows(4);
  rows[0].name = "TPG";
  rows[1].name = "TPG+SWAP";
  rows[2].name = "GT";
  rows[3].name = "GT+SWAP";

  for (int r = 0; r < rounds; ++r) {
    casc::Rng rng(static_cast<uint64_t>(flags.GetInt64("seed")) +
                  static_cast<uint64_t>(r));
    casc::SyntheticInstanceConfig config;
    config.num_workers = static_cast<int>(flags.GetInt64("workers"));
    config.num_tasks = static_cast<int>(flags.GetInt64("tasks"));
    const casc::Instance instance =
        casc::GenerateSyntheticInstance(config, 0.0, &rng);

    casc::TpgAssigner tpg;
    casc::LocalSearchAssigner tpg_swap(std::make_unique<casc::TpgAssigner>());
    casc::GtAssigner gt;
    casc::LocalSearchAssigner gt_swap(std::make_unique<casc::GtAssigner>());
    casc::Assigner* assigners[4] = {&tpg, &tpg_swap, &gt, &gt_swap};
    for (int a = 0; a < 4; ++a) {
      casc::Stopwatch watch;
      const casc::Assignment assignment = assigners[a]->Run(instance);
      rows[static_cast<size_t>(a)].ms += watch.ElapsedMillis();
      rows[static_cast<size_t>(a)].score +=
          casc::TotalScore(instance, assignment);
    }
    rows[1].swaps += tpg_swap.swaps_applied();
    rows[3].swaps += gt_swap.swaps_applied();
  }

  casc::TablePrinter table({"approach", "score", "avg ms", "swaps"});
  for (const Row& row : rows) {
    table.AddRow({row.name, casc::FormatDouble(row.score, 1),
                  casc::FormatDouble(row.ms / rounds, 1),
                  std::to_string(row.swaps)});
  }
  std::printf(
      "=== Ablation: swap local search over greedy/equilibrium output "
      "===\n\n%s\n",
      table.Render().c_str());
  return 0;
}
