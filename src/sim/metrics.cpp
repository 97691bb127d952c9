#include "sim/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "model/assignment.h"
#include "model/instance.h"
#include "model/objective.h"

namespace casc {
namespace {

/// Shortest double rendering that round-trips (max_digits10).
std::ostringstream MakeJsonStream() {
  std::ostringstream out;
  out.precision(std::numeric_limits<double>::max_digits10);
  return out;
}

}  // namespace

void RecordBatchOutcome(const Instance& instance, const Assignment& assignment,
                        BatchMetrics* metrics) {
  metrics->num_workers = instance.num_workers();
  metrics->num_tasks = instance.num_tasks();
  metrics->valid_pairs = static_cast<int64_t>(instance.NumValidPairs());
  metrics->score = TotalScore(instance, assignment);
  metrics->assigned_workers = assignment.NumAssigned();
  metrics->completed_tasks = 0;
  for (TaskIndex t = 0; t < instance.num_tasks(); ++t) {
    if (assignment.GroupSize(t) >= instance.min_group_size()) {
      ++metrics->completed_tasks;
    }
  }
}

std::string ToJson(const BatchMetrics& metrics) {
  std::ostringstream out = MakeJsonStream();
  out << "{\"round\":" << metrics.round << ",\"now\":" << metrics.now
      << ",\"num_workers\":" << metrics.num_workers
      << ",\"num_tasks\":" << metrics.num_tasks
      << ",\"valid_pairs\":" << metrics.valid_pairs
      << ",\"score\":" << metrics.score
      << ",\"upper_bound\":" << metrics.upper_bound
      << ",\"seconds\":" << metrics.seconds
      << ",\"assigned_workers\":" << metrics.assigned_workers
      << ",\"completed_tasks\":" << metrics.completed_tasks
      << ",\"gt_rounds\":" << metrics.gt_rounds << "}";
  return out.str();
}

std::string ToJson(const RunSummary& summary) {
  std::ostringstream out = MakeJsonStream();
  out << "{\"total_score\":" << summary.TotalScore()
      << ",\"total_upper_bound\":" << summary.TotalUpperBound()
      << ",\"avg_batch_seconds\":" << summary.AvgBatchSeconds()
      << ",\"max_batch_seconds\":" << summary.MaxBatchSeconds()
      << ",\"total_assigned_workers\":" << summary.TotalAssignedWorkers()
      << ",\"total_completed_tasks\":" << summary.TotalCompletedTasks()
      << ",\"batches\":[";
  for (size_t i = 0; i < summary.batches.size(); ++i) {
    if (i > 0) out << ",";
    out << ToJson(summary.batches[i]);
  }
  out << "]}";
  return out.str();
}

double RunSummary::TotalScore() const {
  double total = 0.0;
  for (const auto& batch : batches) total += batch.score;
  return total;
}

double RunSummary::TotalUpperBound() const {
  double total = 0.0;
  for (const auto& batch : batches) total += batch.upper_bound;
  return total;
}

double RunSummary::AvgBatchSeconds() const {
  if (batches.empty()) return 0.0;
  double total = 0.0;
  for (const auto& batch : batches) total += batch.seconds;
  return total / static_cast<double>(batches.size());
}

double RunSummary::MaxBatchSeconds() const {
  double worst = 0.0;
  for (const auto& batch : batches) worst = std::max(worst, batch.seconds);
  return worst;
}

int64_t RunSummary::TotalAssignedWorkers() const {
  int64_t total = 0;
  for (const auto& batch : batches) total += batch.assigned_workers;
  return total;
}

int64_t RunSummary::TotalCompletedTasks() const {
  int64_t total = 0;
  for (const auto& batch : batches) total += batch.completed_tasks;
  return total;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double total = 0.0;
  for (const double v : values) total += v;
  return total / static_cast<double>(values.size());
}

double StdDev(const std::vector<double>& values) {
  if (values.size() < 2) return 0.0;
  const double mean = Mean(values);
  double sum_sq = 0.0;
  for (const double v : values) sum_sq += (v - mean) * (v - mean);
  return std::sqrt(sum_sq / static_cast<double>(values.size() - 1));
}

}  // namespace casc
