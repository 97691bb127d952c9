#ifndef CASC_ALGO_GT_ASSIGNER_H_
#define CASC_ALGO_GT_ASSIGNER_H_

#include <string>

#include "algo/assigner.h"
#include "algo/best_response.h"
#include "model/score_keeper.h"

namespace casc {

class ThreadPool;

/// How Algorithm 3 seeds the best-response dynamic.
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
  /// Seed from the previous batch's equilibrium skeleton carried in the
  /// attached SolveDelta (see Assigner::set_solve_delta), re-form groups
  /// on the dirty tasks with a restricted TPG pass, and run the first
  /// rounds over the dirty frontier only. Sound because the CA-SC game
  /// is a potential game (Theorem V.1): best-response dynamics converge
  /// from any initial profile, and the full verification pass still
  /// certifies the equilibrium. Falls back to kTpg when no usable delta
  /// is attached (first batch, zero carry-over, kill switch), so
  /// zero-carry-over batches are bit-identical to a cold run. Note any
  /// init warm-starts when a delta is attached; this value just states
  /// the intent explicitly for streaming drivers.
  kWarmStart,
};

/// Order in which workers are offered their best response within a round.
/// The paper leaves this unspecified; potential-game convergence holds
/// for any order, but the reached equilibrium can differ.
enum class GtOrder {
  kIndex,     ///< ascending worker index (deterministic default)
  kShuffled,  ///< fresh uniform permutation every round (seeded)
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

  /// Best-response processing order within each round.
  GtOrder order = GtOrder::kIndex;

  /// Seed for GtOrder::kShuffled.
  uint64_t order_seed = 1;

  /// Safety cap on best-response rounds.
  int max_rounds = 100000;

  /// Worker threads for speculative best-response evaluation (1 = fully
  /// serial). Each round pre-computes the best responses of all
  /// to-be-processed workers in parallel against the round-start state,
  /// then applies moves sequentially in `order`; a speculated result is
  /// consumed only if none of that worker's valid tasks changed since the
  /// round started, and is recomputed inline otherwise. The produced
  /// assignment, stats, and score trajectory are bit-identical to
  /// num_threads == 1 for the same options.
  int num_threads = 1;
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
  /// One best-response pass over `order` (a "round"), delta-evaluated
  /// through `keeper` (which must mirror *assignment and stays in sync).
  /// A null `dirty` is a full round; otherwise only workers flagged dirty
  /// are re-evaluated and the flags are updated per Theorems V.3 / V.4
  /// after each move. A non-null `pool` evaluates the round's pending
  /// best responses speculatively in parallel first (see
  /// GtOptions::num_threads). Returns the number of moves applied.
  int64_t Round(const Instance& instance,
                const std::vector<WorkerIndex>& order,
                Assignment* assignment, ScoreKeeper* keeper,
                ThreadPool* pool, std::vector<bool>* dirty);

  /// Applies the move (keeping `keeper` in sync) and flags the workers
  /// whose best response may have changed (Theorems V.3 / V.4).
  MoveResult MoveAndMarkDirty(const Instance& instance,
                              Assignment* assignment, ScoreKeeper* keeper,
                              WorkerIndex w, TaskIndex target,
                              std::vector<bool>* dirty);

  GtOptions options_;
};

}  // namespace casc

#endif  // CASC_ALGO_GT_ASSIGNER_H_
