#ifndef CASC_ALGO_GT_ASSIGNER_H_
#define CASC_ALGO_GT_ASSIGNER_H_

#include <string>

#include "algo/assigner.h"
#include "algo/best_response.h"
#include "model/score_keeper.h"

namespace casc {

/// How Algorithm 3 seeds the best-response dynamic when no usable
/// SolveDelta is attached. With one attached (Assigner::set_solve_delta),
/// every init warm-starts from the previous batch's equilibrium skeleton.
enum class GtInit {
  /// TPG assignment (Algorithm 3 line 1) — the paper's choice.
  kTpg,
  /// Every worker picks a uniformly random valid task — the generic
  /// best-response framework of Section V-A ("first randomly selects a
  /// strategy for each player"). Different seeds reach different Nash
  /// equilibria, which the PoA ablation exploits.
  kRandom,
  /// Empty assignment. For B >= 2 this is already a worthless pure Nash
  /// equilibrium (no unilateral move crosses the B-threshold), so the
  /// dynamic never moves; kept for the initialization ablation.
  kEmpty,
};

/// Options for the game-theoretic approach and its two optimizations
/// (Section V-D).
struct GtOptions {
  /// Threshold Stop of the Iteration: stop once a round's total-score
  /// increase falls below `epsilon * current_total_score`.
  bool use_tsi = false;

  /// TSI threshold (the paper's default; Figure 6 sweeps it).
  double epsilon = 0.05;

  /// Lazy-Updating of the Best-responses: recompute a worker's best
  /// response only when Theorems V.3 / V.4 say it may have changed. A
  /// final full verification pass still certifies the Nash equilibrium,
  /// so LUB never returns a non-equilibrium when run to convergence.
  bool use_lub = false;

  /// Initialization strategy (see GtInit).
  GtInit init = GtInit::kTpg;

  /// Seed for GtInit::kRandom.
  uint64_t init_seed = 1;
};

/// The game-theoretic approach (GT), Algorithm 3 of the paper.
///
/// Models each worker as a player whose strategies are its valid tasks
/// (plus idling) and whose utility is the marginal cooperation quality
/// ΔQ (Equation 5). Starting from a TPG assignment, workers repeatedly
/// switch to their best response until no one can improve — a pure Nash
/// equilibrium, guaranteed to exist because the game is an exact
/// potential game with potential Q(T) (Theorem V.1). Joining a full task
/// crowds out the best-subset loser (Theorems V.3 / V.4).
///
/// Naming follows the paper: GT, GT+TSI, GT+LUB, GT+ALL depending on
/// which optimizations are enabled.
class GtAssigner : public Assigner {
 public:
  explicit GtAssigner(GtOptions options = {});

  std::string Name() const override;
  Assignment Run(const Instance& instance) override;

  const GtOptions& options() const { return options_; }

 private:
  GtOptions options_;
};

}  // namespace casc

#endif  // CASC_ALGO_GT_ASSIGNER_H_
