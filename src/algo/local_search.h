#ifndef CASC_ALGO_LOCAL_SEARCH_H_
#define CASC_ALGO_LOCAL_SEARCH_H_

#include <memory>
#include <string>
#include <vector>

#include "algo/assigner.h"
#include "model/score_keeper.h"

namespace casc {

/// SWAP post-optimizer: runs a base assigner, then repeatedly applies
/// profitable *pairwise exchanges* — two workers on different tasks
/// trading places when both directions are valid and the total
/// cooperation score strictly increases, for at most 50 passes over all
/// task pairs.
///
/// A Nash equilibrium only rules out unilateral deviations; a swap is a
/// coordinated deviation by two players, so GT+SWAP can strictly improve
/// on GT's equilibria (and TPG+SWAP on TPG). This is an extension beyond
/// the paper, quantified by bench_ablation_swap.
class LocalSearchAssigner : public Assigner {
 public:
  /// Wraps `base`; its output is the starting point of the search.
  explicit LocalSearchAssigner(std::unique_ptr<Assigner> base);

  std::string Name() const override;
  Assignment Run(const Instance& instance) override;

  /// Number of swaps applied in the most recent Run().
  int64_t swaps_applied() const { return swaps_applied_; }

 private:
  /// One full pass; returns the number of swaps applied. Candidate
  /// exchanges are delta-evaluated via trial mutations on `mirror` (a
  /// replica of the legacy keeper's group store) plus keeper ApplyDelta —
  /// O(group) per candidate instead of rebuilding both groups and
  /// rescoring from scratch.
  int64_t ImprovementPass(const Instance& instance, Assignment* assignment,
                          ScoreKeeper* keeper,
                          std::vector<std::vector<WorkerIndex>>* mirror);

  std::unique_ptr<Assigner> base_;
  int64_t swaps_applied_ = 0;
};

}  // namespace casc

#endif  // CASC_ALGO_LOCAL_SEARCH_H_
