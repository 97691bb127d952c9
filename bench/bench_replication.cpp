// Replication study: the headline comparison (Table II defaults) across
// several independent master seeds, with mean +- standard error per
// approach. Quantifies that the GT > TPG > {MFLOW, RAND} ordering of the
// paper's figures is signal, not one lucky sample.

#include <cstdint>
#include <vector>

#include "bench_util/replication.h"
#include "common/flags.h"

int main(int argc, char** argv) {
  casc::FlagParser flags;
  flags.DefineInt64("workers", 1000, "workers per round (m)");
  flags.DefineInt64("tasks", 500, "tasks per round (n)");
  flags.DefineInt64("rounds", 5, "rounds per replication (R)");
  flags.DefineInt64("replications", 5, "independent seeds");
  flags.DefineBool("meetup", false, "use the Meetup-like dataset");
  flags.DefineInt64("threads", 1,
                    "thread-pool size for the replication fan-out");
  flags.ParseOrExit(argc, argv);

  casc::ExperimentSettings settings;
  settings.num_workers = static_cast<int>(flags.GetInt64("workers"));
  settings.num_tasks = static_cast<int>(flags.GetInt64("tasks"));
  settings.rounds = static_cast<int>(flags.GetInt64("rounds"));

  std::vector<uint64_t> seeds;
  for (int64_t r = 0; r < flags.GetInt64("replications"); ++r) {
    seeds.push_back(1000 + static_cast<uint64_t>(r) * 7919);
  }

  const casc::DataKind kind = flags.GetBool("meetup")
                                  ? casc::DataKind::kMeetupLike
                                  : casc::DataKind::kSynthetic;
  const auto results = casc::RunReplications(
      settings, kind, casc::AllApproaches(), seeds,
      static_cast<int>(flags.GetInt64("threads")));
  casc::PrintReplications(
      "Replication study: Table II defaults across " +
          std::to_string(seeds.size()) + " seeds (" +
          (flags.GetBool("meetup") ? "Meetup-like" : "UNIF") + ")",
      results);
  return 0;
}
