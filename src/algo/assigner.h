#ifndef CASC_ALGO_ASSIGNER_H_
#define CASC_ALGO_ASSIGNER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "model/assignment.h"
#include "model/batch_workspace.h"
#include "model/instance.h"
#include "model/score_keeper.h"
#include "model/solve_delta.h"

namespace casc {

/// Per-run diagnostics shared by all assigners; the GT fields stay zero
/// for single-pass algorithms.
struct AssignerStats {
  /// Best-response rounds executed (GT family).
  int rounds = 0;
  /// Strategy changes applied (GT family).
  int64_t moves = 0;
  /// Best-response evaluations performed (GT family).
  int64_t best_response_evals = 0;
  /// Best-response evaluations skipped by the LUB optimization.
  int64_t best_response_skips = 0;
  /// Candidate tasks (or swap trials) whose exact marginal was computed
  /// by the best-response, online and local-search inner loops.
  int64_t candidates_evaluated = 0;
  /// Candidate joins rejected by the objective's group-feasibility
  /// predicate before any utility work (ObjectiveModel::JoinFeasible).
  /// Always 0 for the default CA-SC objective.
  int64_t feasibility_rejects = 0;
  /// Objective value of the initialization (TPG score for GT).
  double init_score = 0.0;
  /// Objective value of the returned assignment.
  double final_score = 0.0;
  /// True when the GT loop reached a verified Nash equilibrium (as
  /// opposed to stopping early via TSI or the round cap).
  bool converged = true;
  /// True when the run was seeded from a prior-batch equilibrium skeleton
  /// (cross-batch warm start) rather than a cold init.
  bool warm_started = false;
  /// Workers adopted from the skeleton on a warm start (0 when cold).
  int64_t seeded_workers = 0;
  /// Size of the initial dirty frontier on a warm start (0 when cold).
  int64_t dirty_workers = 0;
  /// Objective value after each best-response round (GT family): the
  /// potential-function trajectory of Lemma V.1. Empty for single-pass
  /// algorithms.
  std::vector<double> round_scores;
};

/// Interface for one-batch CA-SC solvers (Algorithm 1, line 6).
///
/// `Run` expects `instance.ComputeValidPairs()` to have been called and
/// returns an assignment satisfying the constraints of Definition 4.
class Assigner {
 public:
  virtual ~Assigner() = default;

  /// Short display name used by the experiment tables ("TPG", "GT+ALL"...).
  virtual std::string Name() const = 0;

  /// Solves one batch. Requires instance.valid_pairs_ready().
  virtual Assignment Run(const Instance& instance) = 0;

  /// Diagnostics of the most recent Run().
  const AssignerStats& stats() const { return stats_; }

  /// Optional scratch pool. When set, Run() draws its assignments and
  /// score keepers from the workspace instead of allocating fresh ones,
  /// so streaming drivers reuse the slab/CSR capacity across batches.
  /// The workspace must outlive the assigner's use of it; pass nullptr
  /// to detach. Not owned.
  void set_workspace(BatchWorkspace* workspace) { workspace_ = workspace; }
  BatchWorkspace* workspace() const { return workspace_; }

  /// Optional cross-batch warm-start delta. Solvers that understand it
  /// (the GT family) seed from the carried skeleton and narrow their
  /// first rounds to the dirty frontier; every other assigner ignores it.
  /// The delta must stay alive for the duration of Run(); pass nullptr to
  /// detach (streaming drivers re-attach a fresh delta every batch). Not
  /// owned.
  void set_solve_delta(const SolveDelta* delta) { solve_delta_ = delta; }
  const SolveDelta* solve_delta() const { return solve_delta_; }

 protected:
  /// Empty assignment for `instance`, pooled when a workspace is set.
  Assignment MakeAssignment(const Instance& instance) {
    if (workspace_ != nullptr) return workspace_->AcquireAssignment(instance);
    return Assignment(instance);
  }

  /// Keeper synced to `assignment`, pooled when a workspace is set.
  ScoreKeeper MakeScoreKeeper(const Instance& instance,
                              const Assignment& assignment) {
    if (workspace_ != nullptr) {
      ScoreKeeper keeper = workspace_->AcquireScoreKeeper(instance);
      keeper.Sync(assignment);
      return keeper;
    }
    return ScoreKeeper(instance, assignment);
  }

  AssignerStats stats_;
  BatchWorkspace* workspace_ = nullptr;
  const SolveDelta* solve_delta_ = nullptr;
};

}  // namespace casc

#endif  // CASC_ALGO_ASSIGNER_H_
