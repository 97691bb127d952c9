// Ablation: Equation 1's alpha parameter — the blend between the prior
// omega and the historical rating average. Runs the closed learning loop
// (assign with believed qualities -> rate against hidden truth -> update
// estimates) for several alpha values and reports how fast the true
// assignment quality and the estimation error improve. High alpha
// anchors to the prior and never learns; low alpha tracks ratings
// (including their noise).

#include <cstdio>
#include <vector>

#include "algo/gt_assigner.h"
#include "bench_util/table_printer.h"
#include "common/flags.h"
#include "common/strings.h"
#include "gen/distributions.h"
#include "model/objective.h"
#include "sim/rating_model.h"

int main(int argc, char** argv) {
  casc::FlagParser flags;
  // Defaults keep the fleet small relative to the rating volume so each
  // pair is rated several times across the run — the regime where the
  // Equation-1 estimator visibly converges (with an 80+ worker fleet and
  // ~60 ratings per wave, most of the 3000+ pairs are never observed).
  flags.DefineInt64("workers", 50, "fleet size");
  flags.DefineInt64("tasks", 12, "tasks per wave");
  flags.DefineInt64("waves", 16, "learning waves");
  flags.DefineDouble("noise", 0.05, "rating noise stddev", 0.0, 1.0);
  flags.DefineInt64("seed", 42, "master seed");
  flags.ParseOrExit(argc, argv);

  const int m = static_cast<int>(flags.GetInt64("workers"));
  const int n = static_cast<int>(flags.GetInt64("tasks"));
  const int waves = static_cast<int>(flags.GetInt64("waves"));

  casc::TablePrinter table({"alpha", "true Q (first wave)",
                            "true Q (last wave)", "est. error (final)"});
  for (const double alpha : {0.0, 0.2, 0.5, 0.8, 1.0}) {
    casc::Rng rng(static_cast<uint64_t>(flags.GetInt64("seed")));

    casc::CooperationMatrix truth(m);
    for (int i = 0; i < m; ++i) {
      for (int k = i + 1; k < m; ++k) {
        truth.SetSymmetric(i, k, rng.Uniform());
      }
    }
    casc::QualityLearningLoop loop(truth, alpha, /*omega=*/0.5,
                                   flags.GetDouble("noise"),
                                   /*seed=*/9);

    std::vector<casc::Worker> workers;
    casc::SpatialGenConfig city;
    city.distribution = casc::LocationDistribution::kSkewed;
    for (int i = 0; i < m; ++i) {
      workers.push_back(casc::Worker{i, casc::SampleLocation(city, &rng),
                                     0.05, 0.45, 0.0});
    }

    double first_actual = 0.0, last_actual = 0.0;
    for (int wave = 0; wave < waves; ++wave) {
      std::vector<casc::Task> tasks;
      for (int j = 0; j < n; ++j) {
        tasks.push_back(casc::Task{wave * n + j,
                                   casc::SampleLocation(city, &rng),
                                   static_cast<double>(wave),
                                   wave + 5.0, 4});
      }
      for (auto& worker : workers) worker.arrival_time = wave;
      casc::Instance instance(workers, tasks, loop.BelievedQualities(),
                              wave, /*min_group_size=*/3);
      instance.ComputeValidPairs();
      casc::GtAssigner gt;
      const casc::Assignment assignment = gt.Run(instance);

      std::vector<std::vector<int>> teams;
      for (casc::TaskIndex t = 0; t < instance.num_tasks(); ++t) {
        const auto& team = assignment.GroupOf(t);
        if (static_cast<int>(team.size()) >= 3) {
          teams.emplace_back(team.begin(), team.end());
        }
      }
      const casc::WaveResult result = loop.RecordWave(teams);
      if (wave == 0) first_actual = result.actual_score;
      if (wave == waves - 1) last_actual = result.actual_score;
    }
    table.AddRow({casc::FormatDouble(alpha, 1),
                  casc::FormatDouble(first_actual, 1),
                  casc::FormatDouble(last_actual, 1),
                  casc::FormatDouble(loop.EstimationError(), 4)});
  }
  std::printf(
      "=== Ablation: Equation 1's alpha (prior vs history blend) "
      "===\n%d workers, %d tasks/wave, %d waves\n\n%s\n",
      m, n, waves, table.Render().c_str());
  return 0;
}
