#include "bench_util/experiment.h"

#include <cctype>
#include <cstdio>
#include <fstream>

#include "algo/exact_assigner.h"
#include "algo/gt_assigner.h"
#include "algo/local_search.h"
#include "algo/maxflow_assigner.h"
#include "algo/online_assigner.h"
#include "algo/random_assigner.h"
#include "algo/tpg_assigner.h"
#include "algo/upper_bound.h"
#include "bench_util/table_printer.h"
#include "common/check.h"
#include "common/stopwatch.h"
#include "common/strings.h"

namespace casc {

std::string ApproachName(ApproachId id) {
  switch (id) {
    case ApproachId::kTpg:
      return "TPG";
    case ApproachId::kGt:
      return "GT";
    case ApproachId::kGtLub:
      return "GT+LUB";
    case ApproachId::kGtTsi:
      return "GT+TSI";
    case ApproachId::kGtAll:
      return "GT+ALL";
    case ApproachId::kMflow:
      return "MFLOW";
    case ApproachId::kRand:
      return "RAND";
  }
  return "?";
}

std::unique_ptr<Assigner> MakeApproach(ApproachId id,
                                       const ExperimentSettings& settings) {
  switch (id) {
    case ApproachId::kTpg:
      return std::make_unique<TpgAssigner>();
    case ApproachId::kGt: {
      GtOptions options;
      return std::make_unique<GtAssigner>(options);
    }
    case ApproachId::kGtLub: {
      GtOptions options;
      options.use_lub = true;
      return std::make_unique<GtAssigner>(options);
    }
    case ApproachId::kGtTsi: {
      GtOptions options;
      options.use_tsi = true;
      options.epsilon = settings.epsilon;
      return std::make_unique<GtAssigner>(options);
    }
    case ApproachId::kGtAll: {
      GtOptions options;
      options.use_tsi = true;
      options.use_lub = true;
      options.epsilon = settings.epsilon;
      return std::make_unique<GtAssigner>(options);
    }
    case ApproachId::kMflow:
      return std::make_unique<MaxFlowAssigner>();
    case ApproachId::kRand:
      return std::make_unique<RandomAssigner>(settings.seed ^ 0x9E3779B9u);
  }
  return nullptr;
}

std::vector<ApproachId> AllApproaches() {
  return {ApproachId::kTpg,   ApproachId::kGt,    ApproachId::kGtLub,
          ApproachId::kGtTsi, ApproachId::kGtAll, ApproachId::kMflow,
          ApproachId::kRand};
}

Result<std::unique_ptr<Assigner>> MakeApproachFromName(
    const std::string& name, const ExperimentSettings& settings) {
  std::string upper;
  upper.reserve(name.size());
  for (const char c : name) {
    upper.push_back(static_cast<char>(std::toupper(
        static_cast<unsigned char>(c))));
  }
  constexpr const char* kSwapSuffix = "+SWAP";
  if (upper.size() > 5 &&
      upper.compare(upper.size() - 5, 5, kSwapSuffix) == 0) {
    Result<std::unique_ptr<Assigner>> base = MakeApproachFromName(
        upper.substr(0, upper.size() - 5), settings);
    if (!base.ok()) return base.status();
    return std::unique_ptr<Assigner>(
        std::make_unique<LocalSearchAssigner>(std::move(*base)));
  }
  for (const ApproachId id : AllApproaches()) {
    if (upper == ApproachName(id)) return MakeApproach(id, settings);
  }
  if (upper == "ONLINE") {
    return std::unique_ptr<Assigner>(std::make_unique<OnlineAssigner>());
  }
  if (upper == "EXACT") {
    return std::unique_ptr<Assigner>(std::make_unique<ExactAssigner>());
  }
  return Status::InvalidArgument(
      "unknown approach '" + name +
      "' (expected TPG, GT, GT+TSI, GT+LUB, GT+ALL, MFLOW, RAND, ONLINE, "
      "EXACT, or any of these with +SWAP)");
}

std::unique_ptr<InstanceSource> MakeSource(
    DataKind kind, const ExperimentSettings& settings) {
  if (kind == DataKind::kSynthetic) {
    return std::make_unique<SyntheticSource>(settings.MakeSyntheticConfig(),
                                             settings.seed);
  }
  // The Meetup-like dataset itself is pinned to one seed so every figure
  // point samples from the same synthesized social network; the per-round
  // sampling varies with settings.seed.
  constexpr uint64_t kDatasetSeed = 20190412;  // ICDE'19 camera-ready-ish
  return std::make_unique<MeetupLikeSource>(
      settings.MakeMeetupConfig(), settings.num_workers, settings.num_tasks,
      settings.MakeWorkerConfig(), settings.MakeTaskConfig(),
      settings.min_group_size, kDatasetSeed, settings.seed);
}

std::vector<ApproachResult> RunComparison(
    const ExperimentSettings& settings, DataKind kind,
    const std::vector<ApproachId>& approaches) {
  std::unique_ptr<InstanceSource> source = MakeSource(kind, settings);

  std::vector<ApproachResult> results(approaches.size());
  std::vector<std::unique_ptr<Assigner>> assigners;
  for (size_t a = 0; a < approaches.size(); ++a) {
    assigners.push_back(MakeApproach(approaches[a], settings));
    results[a].name = assigners.back()->Name();
  }

  for (int round = 0; round < settings.rounds; ++round) {
    const double now = static_cast<double>(round);
    const Instance instance = source->MakeBatch(round, now);
    const double upper = ComputeUpperBound(instance);

    for (size_t a = 0; a < approaches.size(); ++a) {
      BatchMetrics metrics;
      metrics.round = round;
      metrics.now = now;
      metrics.upper_bound = upper;

      Stopwatch watch;
      const Assignment assignment = assigners[a]->Run(instance);
      metrics.seconds = watch.ElapsedSeconds();

      CASC_CHECK(assignment.Validate(instance).ok())
          << results[a].name << " produced an invalid assignment";
      RecordBatchOutcome(instance, assignment, &metrics);
      metrics.gt_rounds = assigners[a]->stats().rounds;
      results[a].summary.batches.push_back(metrics);
    }
  }

  for (auto& result : results) {
    result.total_score = result.summary.TotalScore();
    result.avg_seconds = result.summary.AvgBatchSeconds();
    result.total_upper = result.summary.TotalUpperBound();
  }
  return results;
}

namespace {

/// Writes one rendered table as CSV; failures are reported, not fatal.
void WriteCsv(const TablePrinter& table, const std::string& path) {
  std::ofstream file(path);
  if (!file.is_open()) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  file << table.RenderCsv();
}

}  // namespace

std::vector<std::vector<ApproachResult>> RunFigure(
    const std::string& figure_title, const std::string& x_axis_name,
    const std::vector<SweepPoint>& points, DataKind kind,
    const std::vector<ApproachId>& approaches,
    const std::string& csv_path) {
  std::printf("=== %s ===\n", figure_title.c_str());
  if (!points.empty()) {
    const std::string data_name =
        kind == DataKind::kMeetupLike
            ? "MEETUP-HK"
            : (points.front().settings.distribution ==
                       LocationDistribution::kSkewed
                   ? "SKEW"
                   : "UNIF");
    std::printf("data: %s | settings: %s (sweeping %s)\n\n",
                data_name.c_str(),
                points.front().settings.ToString().c_str(),
                x_axis_name.c_str());
  }

  std::vector<std::vector<ApproachResult>> all_results;
  all_results.reserve(points.size());
  for (const SweepPoint& point : points) {
    all_results.push_back(RunComparison(point.settings, kind, approaches));
  }

  std::vector<std::string> headers = {x_axis_name};
  for (const SweepPoint& point : points) headers.push_back(point.label);

  TablePrinter score_table(headers);
  for (size_t a = 0; a < approaches.size(); ++a) {
    std::vector<std::string> row = {all_results.front()[a].name};
    for (const auto& point_results : all_results) {
      row.push_back(FormatDouble(point_results[a].total_score, 1));
    }
    score_table.AddRow(std::move(row));
  }
  {
    std::vector<std::string> row = {"UPPER"};
    for (const auto& point_results : all_results) {
      row.push_back(FormatDouble(point_results.front().total_upper, 1));
    }
    score_table.AddRow(std::move(row));
  }
  std::printf("(a) Total Cooperation Score\n%s\n",
              score_table.Render().c_str());

  TablePrinter time_table(headers);
  for (size_t a = 0; a < approaches.size(); ++a) {
    std::vector<std::string> row = {all_results.front()[a].name};
    for (const auto& point_results : all_results) {
      row.push_back(FormatDouble(point_results[a].avg_seconds * 1e3, 2));
    }
    time_table.AddRow(std::move(row));
  }
  std::printf("(b) Batch Running Time (ms)\n%s\n",
              time_table.Render().c_str());

  if (!csv_path.empty()) {
    WriteCsv(score_table, csv_path + ".score.csv");
    WriteCsv(time_table, csv_path + ".time_ms.csv");
    std::printf("csv: %s.{score,time_ms}.csv\n\n", csv_path.c_str());
  }
  return all_results;
}

}  // namespace casc
