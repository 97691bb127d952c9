// Ablation: the best-response convergence trajectory (Lemma V.1). The
// potential Q(T) rises monotonically round by round and flattens fast —
// the empirical basis for the TSI optimization ("the increase ... will
// become smaller and smaller until convergence", Section V-D). Also
// contrasts the TPG warm start against the random initialization of the
// generic framework.

#include <cstdio>
#include <vector>

#include "algo/gt_assigner.h"
#include "bench_util/table_printer.h"
#include "common/flags.h"
#include "common/strings.h"
#include "gen/synthetic.h"
#include "model/objective.h"

int main(int argc, char** argv) {
  casc::FlagParser flags;
  flags.DefineInt64("workers", 1000, "workers (m)");
  flags.DefineInt64("tasks", 400, "tasks (n)");
  flags.DefineInt64("seed", 42, "master seed");
  flags.ParseOrExit(argc, argv);

  casc::Rng rng(static_cast<uint64_t>(flags.GetInt64("seed")));
  casc::SyntheticInstanceConfig config;
  config.num_workers = static_cast<int>(flags.GetInt64("workers"));
  config.num_tasks = static_cast<int>(flags.GetInt64("tasks"));
  const casc::Instance instance =
      casc::GenerateSyntheticInstance(config, 0.0, &rng);

  casc::GtAssigner from_tpg;
  casc::GtOptions random_options;
  random_options.init = casc::GtInit::kRandom;
  random_options.init_seed = 5;
  casc::GtAssigner from_random(random_options);

  from_tpg.Run(instance);
  from_random.Run(instance);

  const auto& tpg_trace = from_tpg.stats().round_scores;
  const auto& random_trace = from_random.stats().round_scores;
  const size_t rounds = std::max(tpg_trace.size(), random_trace.size());

  casc::TablePrinter table(
      {"round", "Q (TPG init)", "round gain", "Q (random init)",
       "round gain"});
  double prev_tpg = from_tpg.stats().init_score;
  double prev_random = from_random.stats().init_score;
  {
    table.AddRow({"init", casc::FormatDouble(prev_tpg, 1), "-",
                  casc::FormatDouble(prev_random, 1), "-"});
  }
  for (size_t r = 0; r < rounds; ++r) {
    std::vector<std::string> row = {std::to_string(r + 1)};
    if (r < tpg_trace.size()) {
      row.push_back(casc::FormatDouble(tpg_trace[r], 1));
      row.push_back(casc::FormatDouble(tpg_trace[r] - prev_tpg, 2));
      prev_tpg = tpg_trace[r];
    } else {
      row.push_back("-");
      row.push_back("-");
    }
    if (r < random_trace.size()) {
      row.push_back(casc::FormatDouble(random_trace[r], 1));
      row.push_back(casc::FormatDouble(random_trace[r] - prev_random, 2));
      prev_random = random_trace[r];
    } else {
      row.push_back("-");
      row.push_back("-");
    }
    table.AddRow(std::move(row));
  }

  std::printf(
      "=== Ablation: best-response convergence (potential trajectory, "
      "Lemma V.1) ===\nm=%d n=%d\n\n%s\n",
      config.num_workers, config.num_tasks, table.Render().c_str());
  std::printf("TPG-seeded equilibrium:    %.1f after %d rounds\n",
              from_tpg.stats().final_score, from_tpg.stats().rounds);
  std::printf("random-seeded equilibrium: %.1f after %d rounds\n",
              from_random.stats().final_score, from_random.stats().rounds);
  return 0;
}
