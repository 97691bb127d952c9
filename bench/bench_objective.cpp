// Objective-layer benchmark: what does the pluggable ObjectiveModel seam
// cost, and what does the multi-skill variant pay for coverage?
//
// Three measurements per instance size:
//   1. GT under the default casc objective (the interface hot path);
//   2. GT under the multiskill objective on the *same skill-free*
//      instance — the seam-overhead probe. The binary ABORTS unless the
//      assignment and score are bit-identical to (1): a skill-free
//      multiskill run must execute the exact same FP operations, so any
//      wall-time delta is pure dispatch overhead and any output delta is
//      a seam bug.
//   3. casc vs multiskill on a *skilled* twin of the instance (8 skill
//      categories): score retention, requirement-coverage rate of the
//      staffed tasks, and the join-gate reject count — the cost/benefit
//      trade the EXPERIMENTS.md PR8 sweep records.
//
//   ./bench_objective [--sizes 2000,10000] [--skills 8] [--seed 42]
//                     [--json BENCH_PR8.json]

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "algo/gt_assigner.h"
#include "common/check.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "gen/synthetic.h"
#include "model/objective.h"
#include "model/objective_model.h"

namespace {

std::vector<int> ParseIntList(const std::string& csv) {
  std::vector<int> values;
  std::stringstream stream(csv);
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (!item.empty()) values.push_back(std::stoi(item));
  }
  return values;
}

/// A one-batch instance with m workers, m/2 tasks, a working radius that
/// keeps ~40 reachable tasks per worker across sizes, and optional skill
/// stamping (`num_skills` categories; 0 = the skill-free twin).
casc::Instance MakeInstance(int num_workers, uint64_t seed, int num_skills) {
  const int num_tasks = num_workers / 2;
  const double r0 =
      std::sqrt(40.0 / (3.14159265358979 * static_cast<double>(num_tasks)));
  casc::WorkerGenConfig worker_config;
  worker_config.radius_min = 0.8 * r0;
  worker_config.radius_max = 1.2 * r0;
  worker_config.num_skills = num_skills;
  casc::TaskGenConfig task_config;
  task_config.num_skills = num_skills;
  task_config.skills_per_task = 2;

  casc::Rng rng(seed);
  std::vector<casc::Worker> workers;
  workers.reserve(static_cast<size_t>(num_workers));
  for (int i = 0; i < num_workers; ++i) {
    workers.push_back(casc::GenerateWorker(i, worker_config, 0.0, &rng));
  }
  std::vector<casc::Task> tasks;
  tasks.reserve(static_cast<size_t>(num_tasks));
  for (int j = 0; j < num_tasks; ++j) {
    tasks.push_back(casc::GenerateTask(j, task_config, 0.0, &rng));
  }
  casc::Instance instance(
      std::move(workers), std::move(tasks),
      casc::CooperationMatrix::Procedural(num_workers, seed ^ 0x9E3779B9u),
      /*now=*/0.0, /*min_group_size=*/3);
  instance.ComputeValidPairs();
  return instance;
}

struct RunResult {
  casc::Assignment assignment;
  double seconds = 0.0;
  double score = 0.0;
  int64_t feasibility_rejects = 0;
};

RunResult RunGt(casc::Instance* instance,
                const casc::ObjectiveModel& objective) {
  instance->set_objective(&objective);
  casc::GtOptions options;
  options.use_tsi = true;
  options.use_lub = true;
  casc::GtAssigner gt(options);
  casc::Stopwatch watch;
  RunResult result{gt.Run(*instance)};
  result.seconds = watch.ElapsedSeconds();
  result.score = casc::TotalScore(*instance, result.assignment);
  result.feasibility_rejects = gt.stats().feasibility_rejects;
  const casc::Status valid = result.assignment.Validate(*instance);
  CASC_CHECK(valid.ok()) << objective.Id() << ": " << valid.message();
  return result;
}

/// Fraction of staffed tasks (|group| >= B) whose skill requirement is
/// collectively covered. 1.0 on an unskilled instance.
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
  flags.DefineString("sizes", "2000,10000", "instance sizes (workers)");
  flags.DefineInt64("skills", 8, "skill categories for the skilled twin");
  flags.DefineInt64("seed", 42, "generator seed");
  flags.DefineString("json", "BENCH_PR8.json", "JSON output path");
  flags.ParseOrExit(argc, argv);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt64("seed"));
  const int skills = static_cast<int>(flags.GetInt64("skills"));

  std::ostringstream json;
  json.precision(std::numeric_limits<double>::max_digits10);
  json << "{\"bench\":\"objective\",\"seed\":" << seed
       << ",\"skills\":" << skills << ",\"instances\":[";

  bool first = true;
  for (const int m : ParseIntList(flags.GetString("sizes"))) {
    std::printf("m=%d: skill-free seam-overhead probe...\n", m);
    casc::Instance plain = MakeInstance(m, seed, /*num_skills=*/0);
    const RunResult casc_run = RunGt(&plain, casc::GetCascObjective());
    const RunResult seam_run = RunGt(&plain, casc::GetMultiSkillObjective());
    // The identity guard: a skill-free multiskill run IS the casc run.
    CASC_CHECK_EQ(casc_run.score, seam_run.score)
        << "objective seam changed the score on a skill-free instance";
    for (casc::WorkerIndex w = 0; w < plain.num_workers(); ++w) {
      CASC_CHECK_EQ(casc_run.assignment.TaskOf(w),
                    seam_run.assignment.TaskOf(w))
          << "objective seam moved worker " << w;
    }
    const double overhead =
        casc_run.seconds > 0.0 ? seam_run.seconds / casc_run.seconds : 1.0;
    std::printf("  casc %.3fs vs multiskill(no skills) %.3fs  (x%.3f), "
                "Q = %.2f bit-identical\n",
                casc_run.seconds, seam_run.seconds, overhead,
                casc_run.score);

    std::printf("m=%d: skilled twin (%d categories)...\n", m, skills);
    casc::Instance skilled = MakeInstance(m, seed, skills);
    const RunResult base = RunGt(&skilled, casc::GetCascObjective());
    const RunResult multi = RunGt(&skilled, casc::GetMultiSkillObjective());
    const double base_coverage = CoverageRate(skilled, base.assignment);
    // Re-pin the objective: CoverageRate consults the multiskill gate
    // directly, so the instance's current objective does not matter.
    const double multi_coverage = CoverageRate(skilled, multi.assignment);
    const double retention =
        base.score > 0.0 ? multi.score / base.score : 1.0;
    std::printf("  casc      Q = %10.2f  coverage %5.1f%%  %.3fs\n",
                base.score, base_coverage * 100.0, base.seconds);
    std::printf("  multiskill Q = %9.2f  coverage %5.1f%%  %.3fs  "
                "(retention %.1f%%, %lld join rejects)\n",
                multi.score, multi_coverage * 100.0, multi.seconds,
                retention * 100.0,
                static_cast<long long>(multi.feasibility_rejects));

    if (!first) json << ",";
    first = false;
    json << "{\"workers\":" << plain.num_workers()
         << ",\"tasks\":" << plain.num_tasks()
         << ",\"seam_probe\":{\"casc_seconds\":" << casc_run.seconds
         << ",\"multiskill_seconds\":" << seam_run.seconds
         << ",\"overhead\":" << overhead << ",\"score\":" << casc_run.score
         << ",\"bit_identical\":true}"
         << ",\"skilled\":{\"casc\":{\"score\":" << base.score
         << ",\"seconds\":" << base.seconds
         << ",\"coverage\":" << base_coverage << "}"
         << ",\"multiskill\":{\"score\":" << multi.score
         << ",\"seconds\":" << multi.seconds
         << ",\"coverage\":" << multi_coverage
         << ",\"feasibility_rejects\":" << multi.feasibility_rejects << "}"
         << ",\"retention\":" << retention << "}}";
  }
  json << "]}";

  const std::string path = flags.GetString("json");
  if (!path.empty()) {
    std::ofstream out(path);
    out << json.str() << "\n";
    std::printf("wrote %s\n", path.c_str());
  }
  return 0;
}
