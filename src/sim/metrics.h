#ifndef CASC_SIM_METRICS_H_
#define CASC_SIM_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace casc {

class Assignment;
class Instance;

/// Per-batch measurements of a streaming or round-protocol run.
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

  /// Solver convergence telemetry (GT family; zero for single-pass
  /// algorithms): strategy moves applied, the warm-start dirty frontier
  /// and whether the batch seeded from the previous equilibrium.
  int64_t solve_moves = 0;       ///< strategy changes applied
  int64_t dirty_workers = 0;     ///< initial dirty frontier (warm only)
  double dirty_fraction = 0.0;   ///< dirty_workers / num_workers
  bool warm_started = false;     ///< seeded from the prior equilibrium

  /// Streaming-mode data-plane timings: pool/arrival ingest (including
  /// incremental index maintenance) and valid-pair build for this batch.
  /// In the pipelined dispatch service the ingest portion overlaps the
  /// previous batch's solve, so it is reported but off the critical path.
  double ingest_seconds = 0.0;
  double index_build_seconds = 0.0;

  /// Where the streaming plane spent the ingest/build time (zero outside
  /// streaming runs): delta splice into known rows, fresh rows for new
  /// workers, the persistent spatial-index batch insert, and the CSR
  /// emission inside the valid-pair build. The first three are parts of
  /// ingest_seconds; csr_emit_seconds is part of index_build_seconds.
  double ingest_splice_seconds = 0.0;
  double ingest_fresh_rows_seconds = 0.0;
  double ingest_spatial_seconds = 0.0;
  double csr_emit_seconds = 0.0;
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
