#ifndef CASC_SIM_METRICS_H_
#define CASC_SIM_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace casc {

class Assignment;
class Instance;

/// Per-batch outcome of a streaming or round-protocol run. The dispatch
/// service's solver and data-plane telemetry (moves, the warm-start
/// frontier, ingest and index-build timings) lives in ServiceMetrics.
struct BatchMetrics {
  int round = 0;               ///< batch index
  double now = 0.0;            ///< batch timestamp phi
  int num_workers = 0;         ///< |W(phi)|
  int num_tasks = 0;           ///< |T(phi)|
  int64_t valid_pairs = 0;     ///< valid worker-and-task pairs
  double score = 0.0;          ///< Q(T(phi)) achieved (Equation 3)
  double upper_bound = 0.0;    ///< UPPER (Equation 9), if requested
  double seconds = 0.0;        ///< assignment wall time (excl. generation)
  int assigned_workers = 0;    ///< workers placed on tasks
  int completed_tasks = 0;     ///< tasks reaching >= B workers
  int gt_rounds = 0;           ///< best-response rounds (GT family)
};

/// Fills the outcome fields of one solved batch from its instance and
/// assignment: num_workers, num_tasks, valid_pairs, score (Equation 3),
/// assigned_workers and completed_tasks (groups of at least B). Every
/// other field is left untouched.
void RecordBatchOutcome(const Instance& instance, const Assignment& assignment,
                        BatchMetrics* metrics);

/// Aggregate of a multi-batch run.
struct RunSummary {
  std::vector<BatchMetrics> batches;

  /// Sum of per-batch scores — the "Total Cooperation Score" y-axis of
  /// Figures 2(a)-8(a).
  double TotalScore() const;

  /// Sum of per-batch UPPER estimates.
  double TotalUpperBound() const;

  /// Mean per-batch assignment time — the y-axis of Figures 2(b)-8(b).
  double AvgBatchSeconds() const;

  /// Slowest batch.
  double MaxBatchSeconds() const;

  int64_t TotalAssignedWorkers() const;
  int64_t TotalCompletedTasks() const;
};

/// Renders one batch as a compact JSON object (round-trippable doubles).
std::string ToJson(const BatchMetrics& metrics);

/// Renders a run as a JSON object: the aggregate fields plus a "batches"
/// array of per-batch objects — the machine-readable counterpart of the
/// table prints.
std::string ToJson(const RunSummary& summary);

/// Mean of `values` (0 for empty input).
double Mean(const std::vector<double>& values);

/// Sample standard deviation of `values` (0 for fewer than two).
double StdDev(const std::vector<double>& values);

}  // namespace casc

#endif  // CASC_SIM_METRICS_H_
