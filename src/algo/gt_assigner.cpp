#include "algo/gt_assigner.h"

#include <utility>
#include <vector>

#include "algo/best_response.h"
#include "algo/tpg_assigner.h"
#include "common/check.h"
#include "common/logging.h"
#include "common/rng.h"
#include "model/objective.h"

namespace casc {
namespace {

// Safety cap on best-response rounds.
constexpr int kMaxRounds = 100000;

}  // namespace

GtAssigner::GtAssigner(GtOptions options) : options_(options) {}

std::string GtAssigner::Name() const {
  if (options_.use_tsi && options_.use_lub) return "GT+ALL";
  if (options_.use_tsi) return "GT+TSI";
  if (options_.use_lub) return "GT+LUB";
  return "GT";
}

Assignment GtAssigner::Run(const Instance& instance) {
  CASC_CHECK(instance.valid_pairs_ready())
      << "GT requires Instance::ComputeValidPairs()";
  stats_ = AssignerStats{};

  // Cross-batch warm start: when the streaming driver attached a usable
  // SolveDelta, adopt the previous equilibrium's skeleton instead of a
  // cold init — sound from any profile (Theorem V.1). A null or empty
  // delta (first batch, zero carry-over, warm start off) takes the
  // cold path below bit-identically.
  const SolveDelta* delta =
      UsableSolveDelta(solve_delta(), instance.num_workers());
  const bool warm = delta != nullptr;

  // Algorithm 3, line 1: initialize the joint strategy.
  Assignment assignment;
  if (warm) {
    assignment = MakeAssignment(instance);
    assignment.AdoptSkeleton(delta->seed_task);
    // Best-response dynamics cannot staff a task from idle workers (the
    // GtInit::kEmpty trap: a solo join scores 0 below B), so the tasks
    // that are new or lost group members get the cold init's greedy
    // group formation, restricted to them. Only dirty workers can be
    // consumed here: every candidate of a dirty task is dirty, so the
    // pass never touches a clean worker's certified strategy.
    if (delta->num_dirty_tasks > 0) {
      TpgAssigner patch;
      patch.SeedTasks(instance, &delta->dirty_task, &assignment);
      stats_.seed_pairs_priced = patch.stats().seed_pairs_priced;
    }
    stats_.warm_started = true;
    stats_.dirty_workers = delta->num_dirty;
  } else {
    switch (options_.init) {
    case GtInit::kTpg: {
      TpgAssigner tpg;
      tpg.set_workspace(workspace());
      assignment = tpg.Run(instance);
      stats_.seed_pairs_priced = tpg.stats().seed_pairs_priced;
      break;
    }
    case GtInit::kRandom: {
      assignment = MakeAssignment(instance);
      // The generic best-response seed of Section V-A: each worker picks
      // a uniformly random valid task; overfull tasks immediately shed
      // their best-subset losers so the state stays feasible.
      Rng rng(options_.init_seed);
      for (WorkerIndex w = 0; w < instance.num_workers(); ++w) {
        const auto& valid = instance.ValidTasks(w);
        if (valid.empty()) continue;
        const TaskIndex t = valid[static_cast<size_t>(
            rng.UniformInt(static_cast<uint64_t>(valid.size())))];
        ApplyMove(instance, &assignment, w, t);
      }
      break;
    }
    case GtInit::kEmpty:
      assignment = MakeAssignment(instance);
      break;
    }
  }

  // The keeper delta-evaluates every utility from here on; it is kept in
  // sync with `assignment` through keeper-aware ApplyMove.
  ScoreKeeper keeper = MakeScoreKeeper(instance, assignment);
  stats_.init_score = keeper.TotalScore();

  // A warm start reuses the LUB machinery even when LUB is off: the
  // delta's dirty frontier plays the role of the all-dirty first round,
  // and the zero-move verification pass below still certifies the
  // equilibrium, so an under-marked frontier can cost rounds but never
  // correctness.
  const bool use_dirty = options_.use_lub || warm;
  std::vector<bool> dirty;
  if (use_dirty) {
    if (warm) {
      dirty.assign(static_cast<size_t>(instance.num_workers()), false);
      for (WorkerIndex w = 0; w < instance.num_workers(); ++w) {
        if (delta->dirty[static_cast<size_t>(w)] != 0) {
          dirty[static_cast<size_t>(w)] = true;
        }
      }
    } else {
      dirty.assign(static_cast<size_t>(instance.num_workers()), true);
    }
  }

  // Algorithm 3 leaves the move order open; workers move in index order.
  std::vector<WorkerIndex> order(
      static_cast<size_t>(instance.num_workers()));
  for (WorkerIndex w = 0; w < instance.num_workers(); ++w) {
    order[static_cast<size_t>(w)] = w;
  }

  double score = stats_.init_score;
  bool reached_equilibrium = false;
  while (stats_.rounds < kMaxRounds) {
    ++stats_.rounds;
    int64_t moves;
    if (use_dirty) {
      moves = BestResponseRound(instance, order, &assignment, &keeper,
                                &dirty, &stats_);
      if (moves == 0) {
        // The dirty set drained without a move. The theorem-based
        // filters are sound, but we still certify the equilibrium with
        // one full pass; any move it finds re-enters the loop.
        const int64_t verification_moves = BestResponseRound(
            instance, order, &assignment, &keeper, nullptr, &stats_);
        if (verification_moves == 0) {
          reached_equilibrium = true;
          break;
        }
        moves = verification_moves;
        CASC_LOG(kDebug) << "LUB verification pass applied "
                         << verification_moves << " extra moves";
      }
    } else {
      moves = BestResponseRound(instance, order, &assignment, &keeper,
                                nullptr, &stats_);
      if (moves == 0) {
        reached_equilibrium = true;
        break;
      }
    }

    const double new_score = keeper.TotalScore();
    stats_.round_scores.push_back(new_score);
    if (options_.use_tsi) {
      // Threshold stop: the round improved the total by less than
      // epsilon * current score (Section V-D).
      if (new_score - score < options_.epsilon * new_score) {
        score = new_score;
        break;
      }
    }
    score = new_score;
  }

  stats_.converged = reached_equilibrium;
  stats_.final_score = keeper.TotalScore();
  if (workspace() != nullptr) workspace()->Recycle(std::move(keeper));
  return assignment;
}

}  // namespace casc
