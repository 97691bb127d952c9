// Layer probes of the canonical dispatch benchmark: instrumentation that
// lives entirely in the benchmark and only calls the library's public
// API. Nothing here changes an output bit of the service.
//
//  * SolveProbe + Probed(): a decorator Assigner around the per-shard
//    solver. It times each shard solve and the CoopTile preparation
//    (BatchWorkspace::PrepareCoopTile is called before delegating, so the
//    inner solver's own call is a cache hit).
//  * BatchChecker: the output checks of one batch (Assignment::Validate,
//    UPPER in co-candidate scope) and, when deep checks are on, a second
//    solve of the batch driven layer by layer (ShardMap, ShardExecutor,
//    BoundaryReconciler passes) that must be bit-identical to
//    ShardedAssigner::Run, Nash certification of every converged GT shard
//    solve, and a reference TpgAssigner::Run on the same instance.
//  * CheckedSolver: a ShardedBatchSolver that runs the built-in sharded
//    engine and hands every batch to a BatchChecker, so streaming runs
//    (DispatchService::Run) are checked batch by batch.
#ifndef PERFBENCH_LAYER_PROBES_H_
#define PERFBENCH_LAYER_PROBES_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "algo/assigner.h"
#include "model/assignment.h"
#include "model/batch_workspace.h"
#include "model/instance.h"
#include "model/solve_delta.h"
#include "service/dispatch_service.h"
#include "service/shard_executor.h"

namespace perfbench {

/// Accumulated solver-side spans of one pass. Shard solvers run on the
/// executor's pool, so every Record* call locks.
class SolveProbe {
 public:
  struct Totals {
    double solve_seconds = 0.0;  ///< summed per-shard solve spans
    double tile_seconds = 0.0;   ///< summed PrepareCoopTile spans
    int64_t tile_builds = 0;     ///< calls that built a new tile
  };

  void RecordSolve(double seconds);
  /// `key` identifies the tile the call asked for (matrix identity and
  /// objective); 0 when tiling was gated off. A call builds when the key
  /// differs from the last one seen on the same workspace.
  void RecordTile(const casc::BatchWorkspace* workspace, uint64_t key,
                  double seconds);

  Totals totals() const;

 private:
  mutable std::mutex mu_;
  Totals totals_;
  std::map<const casc::BatchWorkspace*, uint64_t> last_tile_key_;
};

/// Wraps `inner` so every solver it makes reports to `probe` (which must
/// outlive the factory's solvers).
casc::AssignerFactory Probed(casc::AssignerFactory inner, SolveProbe* probe);

/// Failure accounting of a run: every checked batch counts as attempted,
/// and a batch with any failed check counts once as failed.
struct Ledger {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;  ///< the first few messages

  void Record(bool ok, const std::string& what);
};

/// What the checks of one pass measured: per-batch scores, UPPER and, for
/// deep checks, the spans of the layer-by-layer re-solve.
struct CheckTotals {
  std::vector<double> scores;   ///< per checked batch (Equation 3)
  double upper = 0.0;           ///< summed UPPER (Equation 9)
  double upper_seconds = 0.0;
  // Deep checks.
  double tpg_seconds = 0.0;     ///< reference TpgAssigner::Run
  int64_t nash_checked = 0;     ///< converged GT shard solves certified
  double pass_insert_seconds = 0.0;
  double pass_seed_seconds = 0.0;
  double pass_polish_seconds = 0.0;
};

/// Checks solved batches; see the file comment.
class BatchChecker {
 public:
  /// `options`/`plain_factory` must match the service's sharded engine;
  /// `gt_solver` marks a GT-family shard solver (Nash-certifiable). Check
  /// outcomes go to `ledger`, which must outlive the checker.
  BatchChecker(casc::ShardedOptions options,
               casc::AssignerFactory plain_factory, bool gt_solver,
               bool deep, Ledger* ledger);
  BatchChecker(const BatchChecker&) = delete;
  BatchChecker& operator=(const BatchChecker&) = delete;

  /// Checks `assignment`, the service's answer for `instance` solved with
  /// warm-start `delta` (null when cold).
  void Check(const casc::Instance& instance,
             const casc::Assignment& assignment,
             const casc::SolveDelta* delta);

  const CheckTotals& totals() const { return totals_; }

 private:
  /// ShardedAssigner::Run re-driven through the public layer calls, with
  /// the reconciler passes timed; Nash-certifies converged GT shard
  /// solves.
  casc::Assignment Decompose(const casc::Instance& instance,
                             const casc::SolveDelta* delta,
                             std::vector<std::string>* problems);

  casc::ShardedOptions options_;
  casc::AssignerFactory factory_;
  bool gt_solver_;
  bool deep_;
  Ledger* ledger_;
  casc::ShardExecutor executor_;
  std::vector<std::unique_ptr<casc::BatchWorkspace>> workspaces_;
  CheckTotals totals_;
};

/// The built-in sharded engine with a BatchChecker behind every batch.
class CheckedSolver : public casc::ShardedBatchSolver {
 public:
  CheckedSolver(casc::ShardedOptions options, casc::AssignerFactory factory,
                BatchChecker* checker);

  casc::Assignment Solve(const casc::Instance& instance) override;
  const casc::ServiceMetrics& metrics() const override {
    return engine_.metrics();
  }
  void AttachWorkspace(casc::BatchWorkspace* workspace) override {
    engine_.set_workspace(workspace);
  }
  void SetSolveDelta(const casc::SolveDelta* delta) override {
    delta_ = delta;
    engine_.set_solve_delta(delta);
  }

 private:
  casc::ShardedAssigner engine_;
  BatchChecker* checker_;
  const casc::SolveDelta* delta_ = nullptr;
};

}  // namespace perfbench

#endif  // PERFBENCH_LAYER_PROBES_H_
