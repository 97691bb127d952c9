// casc_cli — command-line front end for the CA-SC library.
//
//   casc_cli generate --kind unif|skew|meetup --workers M --tasks N
//            --seed S --out instance.txt
//   casc_cli info     --instance instance.txt
//   casc_cli solve    --instance instance.txt --approach GT+ALL
//            [--out assignment.txt]
//   casc_cli evaluate --instance instance.txt --assignment assignment.txt
//   casc_cli upper    --instance instance.txt
//
// Instances and assignments use the text formats of model/io.h, so any
// external tool can produce or consume them.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>

#include "algo/exact_assigner.h"
#include "algo/upper_bound.h"
#include "bench_util/experiment.h"
#include "bench_util/settings.h"
#include "common/flags.h"
#include "common/stopwatch.h"
#include "gen/workload.h"
#include "model/io.h"
#include "model/objective.h"

namespace {

int Fail(const casc::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: casc_cli <generate|info|solve|evaluate|upper> [flags]\n"
      "  generate  --kind unif|skew|meetup --workers M --tasks N --seed S\n"
      "            --capacity A --min-group B --out FILE\n"
      "  info      --instance FILE\n"
      "  solve     --instance FILE --approach NAME [--out FILE]\n"
      "  evaluate  --instance FILE --assignment FILE\n"
      "  upper     --instance FILE\n");
}

int RunGenerate(const casc::FlagParser& flags) {
  casc::ExperimentSettings settings;
  settings.num_workers = static_cast<int>(flags.GetInt64("workers"));
  settings.num_tasks = static_cast<int>(flags.GetInt64("tasks"));
  settings.seed = static_cast<uint64_t>(flags.GetInt64("seed"));
  settings.capacity = static_cast<int>(flags.GetInt64("capacity"));
  settings.min_group_size = static_cast<int>(flags.GetInt64("min-group"));
  if (settings.min_group_size > settings.capacity) {
    return Fail(casc::Status::InvalidArgument(
        "--min-group (" + std::to_string(settings.min_group_size) +
        ") must not exceed --capacity (" +
        std::to_string(settings.capacity) + ")"));
  }

  const std::string kind = flags.GetString("kind");
  std::unique_ptr<casc::InstanceSource> source;
  if (kind == "unif") {
    source = casc::MakeSource(casc::DataKind::kSynthetic, settings);
  } else if (kind == "skew") {
    settings.distribution = casc::LocationDistribution::kSkewed;
    source = casc::MakeSource(casc::DataKind::kSynthetic, settings);
  } else if (kind == "meetup") {
    source = casc::MakeSource(casc::DataKind::kMeetupLike, settings);
  } else {
    return Fail(casc::Status::InvalidArgument(
        "--kind must be unif, skew or meetup, got '" + kind + "'"));
  }

  const casc::Instance instance = source->MakeBatch(0, 0.0);
  const std::string out = flags.GetString("out");
  if (const casc::Status status =
          casc::SaveInstanceToFile(instance, out);
      !status.ok()) {
    return Fail(status);
  }
  std::printf("wrote %s: m=%d n=%d valid_pairs=%zu (%s)\n", out.c_str(),
              instance.num_workers(), instance.num_tasks(),
              instance.NumValidPairs(), source->Name().c_str());
  return 0;
}

int RunInfo(const casc::FlagParser& flags) {
  casc::Result<casc::Instance> instance =
      casc::LoadInstanceFromFile(flags.GetString("instance"));
  if (!instance.ok()) return Fail(instance.status());

  size_t workers_with_tasks = 0;
  size_t max_tasks_per_worker = 0;
  for (casc::WorkerIndex w = 0; w < instance->num_workers(); ++w) {
    const size_t count = instance->ValidTasks(w).size();
    if (count > 0) ++workers_with_tasks;
    max_tasks_per_worker = std::max(max_tasks_per_worker, count);
  }
  size_t servable_tasks = 0;
  for (casc::TaskIndex t = 0; t < instance->num_tasks(); ++t) {
    if (static_cast<int>(instance->Candidates(t).size()) >=
        instance->min_group_size()) {
      ++servable_tasks;
    }
  }
  std::printf("workers:            %d\n", instance->num_workers());
  std::printf("tasks:              %d\n", instance->num_tasks());
  std::printf("timestamp (phi):    %.3f\n", instance->now());
  std::printf("min group size (B): %d\n", instance->min_group_size());
  std::printf("valid pairs:        %zu\n", instance->NumValidPairs());
  std::printf("workers with >=1 valid task: %zu\n", workers_with_tasks);
  std::printf("max valid tasks per worker:  %zu\n", max_tasks_per_worker);
  std::printf("tasks with >= B candidates:  %zu\n", servable_tasks);
  std::printf("UPPER (Equation 9):          %.3f\n",
              casc::ComputeUpperBound(*instance));
  return 0;
}

int RunSolve(const casc::FlagParser& flags) {
  casc::ExperimentSettings settings;
  settings.seed = static_cast<uint64_t>(flags.GetInt64("seed"));
  settings.epsilon = flags.GetDouble("epsilon");

  casc::Result<casc::Instance> instance =
      casc::LoadInstanceFromFile(flags.GetString("instance"));
  if (!instance.ok()) return Fail(instance.status());
  casc::Result<std::unique_ptr<casc::Assigner>> assigner =
      casc::MakeApproachFromName(flags.GetString("approach"), settings);
  if (!assigner.ok()) return Fail(assigner.status());
  if ((*assigner)->Name().find("EXACT") != std::string::npos &&
      instance->num_workers() > casc::kExactMaxWorkers) {
    return Fail(casc::Status::InvalidArgument(
        "EXACT is exponential and capped at " +
        std::to_string(casc::kExactMaxWorkers) +
        " workers; this instance has " +
        std::to_string(instance->num_workers())));
  }

  casc::Stopwatch watch;
  const casc::Assignment assignment = (*assigner)->Run(*instance);
  const double millis = watch.ElapsedMillis();
  if (const casc::Status status = assignment.Validate(*instance);
      !status.ok()) {
    return Fail(status);
  }
  std::printf("%s: score=%.4f assigned=%d/%d workers, %.2f ms\n",
              (*assigner)->Name().c_str(),
              casc::TotalScore(*instance, assignment),
              assignment.NumAssigned(), instance->num_workers(), millis);

  const std::string out = flags.GetString("out");
  if (!out.empty()) {
    std::ofstream file(out);
    if (!file.is_open()) {
      return Fail(casc::Status::NotFound("cannot write " + out));
    }
    if (const casc::Status status =
            casc::SaveAssignment(assignment, &file);
        !status.ok()) {
      return Fail(status);
    }
    std::printf("wrote %s\n", out.c_str());
  }
  return 0;
}

int RunEvaluate(const casc::FlagParser& flags) {
  casc::Result<casc::Instance> instance =
      casc::LoadInstanceFromFile(flags.GetString("instance"));
  if (!instance.ok()) return Fail(instance.status());
  std::ifstream file(flags.GetString("assignment"));
  if (!file.is_open()) {
    return Fail(casc::Status::NotFound("cannot read " +
                                       flags.GetString("assignment")));
  }
  casc::Result<casc::Assignment> assignment =
      casc::LoadAssignment(*instance, &file);
  if (!assignment.ok()) return Fail(assignment.status());

  const casc::Status feasible = assignment->Validate(*instance);
  std::printf("feasible: %s\n",
              feasible.ok() ? "yes" : feasible.ToString().c_str());
  std::printf("total score (Equation 3): %.4f\n",
              casc::TotalScore(*instance, *assignment));
  int served = 0;
  for (casc::TaskIndex t = 0; t < instance->num_tasks(); ++t) {
    const auto& group = assignment->GroupOf(t);
    if (static_cast<int>(group.size()) >= instance->min_group_size()) {
      ++served;
      std::printf("  task %d: %zu workers, Q=%.4f\n", t, group.size(),
                  casc::GroupScore(*instance, t, group));
    }
  }
  std::printf("tasks served: %d / %d\n", served, instance->num_tasks());
  return feasible.ok() ? 0 : 2;
}

int RunUpper(const casc::FlagParser& flags) {
  casc::Result<casc::Instance> instance =
      casc::LoadInstanceFromFile(flags.GetString("instance"));
  if (!instance.ok()) return Fail(instance.status());
  std::printf("%.6f\n", casc::ComputeUpperBound(*instance));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    PrintUsage();
    return 1;
  }
  const std::string command = argv[1];

  casc::FlagParser flags;
  flags.DefineString("kind", "unif", "generate: unif|skew|meetup");
  const int64_t kIntMax = casc::FlagParser::kIntMax;
  flags.DefineInt64("workers", 1000, "generate: workers (m)", 0, kIntMax);
  flags.DefineInt64("tasks", 500, "generate: tasks (n)", 0, kIntMax);
  flags.DefineInt64("capacity", 4, "generate: task capacity a_j", 2,
                    kIntMax);
  flags.DefineInt64("min-group", 3, "generate: minimum group size B", 2,
                    kIntMax);
  flags.DefineInt64("seed", 42, "seed for generation / RAND");
  flags.DefineDouble("epsilon", 0.05, "TSI threshold for GT+TSI/GT+ALL", 0.0);
  flags.DefineString("out", "", "output file");
  flags.DefineString("instance", "", "instance file");
  flags.DefineString("assignment", "", "assignment file");
  flags.DefineString("approach", "GT", "solver name");
  // Shift argv past the subcommand for flag parsing.
  if (const casc::Status status = flags.Parse(argc - 1, argv + 1);
      !status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    PrintUsage();
    return 1;
  }

  if (command == "generate") {
    if (flags.GetString("out").empty()) {
      return Fail(casc::Status::InvalidArgument("generate needs --out"));
    }
    return RunGenerate(flags);
  }
  if (command == "info") return RunInfo(flags);
  if (command == "solve") return RunSolve(flags);
  if (command == "evaluate") return RunEvaluate(flags);
  if (command == "upper") return RunUpper(flags);
  PrintUsage();
  return 1;
}
