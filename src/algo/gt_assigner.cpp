#include "algo/gt_assigner.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "algo/best_response.h"
#include "algo/tpg_assigner.h"
#include "common/check.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "model/objective.h"

namespace casc {
namespace {

/// Per-round speculative evaluation state. Best responses computed in
/// parallel against the round-start state are consumed sequentially; a
/// result is discarded once any of its worker's valid tasks was touched
/// by an applied move, so every consumed value equals what a serial
/// inline evaluation would have produced.
struct Speculation {
  bool active = false;
  std::vector<BestResponse> results;   // per worker
  std::vector<ScanCounters> counters;  // per worker (scan work tally)
  std::vector<char> computed;          // per worker
  std::vector<char> task_touched;      // per task, reset each round
};

/// Pre-computes best responses for the workers of `order` that the
/// sequential pass will (initially) evaluate: all of them in a full
/// round, the dirty ones in a LUB round.
void Speculate(const Instance& instance, const Assignment& assignment,
               const ScoreKeeper& keeper,
               const std::vector<WorkerIndex>& order,
               const std::vector<bool>* dirty, ThreadPool* pool,
               Speculation* spec) {
  spec->active = true;
  spec->results.assign(static_cast<size_t>(instance.num_workers()),
                       BestResponse{});
  spec->counters.assign(static_cast<size_t>(instance.num_workers()),
                        ScanCounters{});
  spec->computed.assign(static_cast<size_t>(instance.num_workers()), 0);
  spec->task_touched.assign(static_cast<size_t>(instance.num_tasks()), 0);

  std::vector<WorkerIndex> pending;
  pending.reserve(order.size());
  for (const WorkerIndex w : order) {
    if (dirty == nullptr || (*dirty)[static_cast<size_t>(w)]) {
      pending.push_back(w);
    }
  }
  pool->ParallelFor(
      static_cast<int64_t>(pending.size()), [&](int64_t i) {
        const WorkerIndex w = pending[static_cast<size_t>(i)];
        spec->results[static_cast<size_t>(w)] =
            ComputeBestResponse(instance, keeper, assignment, w,
                                &spec->counters[static_cast<size_t>(w)]);
        spec->computed[static_cast<size_t>(w)] = 1;
      });
}

/// True when `w`'s speculated best response is still exact: it was
/// computed and no task `w` could play has changed since. The current
/// task needs no separate check — an assigned task is always one of the
/// worker's valid tasks.
bool SpeculationUsable(const Instance& instance, const Speculation& spec,
                       WorkerIndex w) {
  if (!spec.computed[static_cast<size_t>(w)]) return false;
  for (const TaskIndex t : instance.ValidTasks(w)) {
    if (spec.task_touched[static_cast<size_t>(t)]) return false;
  }
  return true;
}

void MarkTouched(Speculation* spec, TaskIndex t) {
  if (spec->active && t != kNoTask) {
    spec->task_touched[static_cast<size_t>(t)] = 1;
  }
}

}  // namespace

GtAssigner::GtAssigner(GtOptions options) : options_(options) {}

std::string GtAssigner::Name() const {
  if (options_.use_tsi && options_.use_lub) return "GT+ALL";
  if (options_.use_tsi) return "GT+TSI";
  if (options_.use_lub) return "GT+LUB";
  return "GT";
}

MoveResult GtAssigner::MoveAndMarkDirty(const Instance& instance,
                                        Assignment* assignment,
                                        ScoreKeeper* keeper, WorkerIndex w,
                                        TaskIndex target,
                                        std::vector<bool>* dirty) {
  const MoveResult move = ApplyMove(instance, assignment, keeper, w, target);
  if (dirty == nullptr) return move;
  const TaskIndex from = move.from;
  const WorkerIndex evicted = move.crowded_out;
  const CooperationMatrix& coop = instance.coop();

  // Effects at the target task (Theorems V.3 / V.4).
  if (target != kNoTask) {
    for (const WorkerIndex i : instance.Candidates(target)) {
      if (i == w) continue;
      if (evicted == kNoWorker) {
        // Pure addition. Theorem V.3: workers already best-responding to
        // `target` keep that best response (their utility only grew);
        // everyone else may now be attracted (Theorem V.4, condition 1).
        if (assignment->TaskOf(i) != target) {
          (*dirty)[static_cast<size_t>(i)] = true;
        }
      } else {
        // w replaced `evicted`. Members (and would-be joiners whose best
        // response was `target`) can be repelled only if they liked the
        // evicted worker better (V.3); outsiders can be attracted only if
        // they like the newcomer better (V.4, condition 2).
        const double q_new = coop.Quality(i, w);
        const double q_old = coop.Quality(i, evicted);
        if (assignment->TaskOf(i) == target) {
          if (q_old > q_new) (*dirty)[static_cast<size_t>(i)] = true;
        } else {
          if (q_new > q_old) (*dirty)[static_cast<size_t>(i)] = true;
        }
      }
    }
    if (evicted != kNoWorker) {
      (*dirty)[static_cast<size_t>(evicted)] = true;
    }
  }

  // Effects at the departed task: its members lost a partner and anyone
  // whose best response pointed here must reconsider; if the task was
  // full, an opening now exists for every candidate.
  if (from != kNoTask) {
    const bool was_full =
        assignment->GroupSize(from) + 1 ==
        instance.tasks()[static_cast<size_t>(from)].capacity;
    for (const WorkerIndex i : instance.Candidates(from)) {
      if (i == w) continue;
      if (assignment->TaskOf(i) == from || was_full) {
        (*dirty)[static_cast<size_t>(i)] = true;
      }
    }
  }
  return move;
}

int64_t GtAssigner::Round(const Instance& instance,
                          const std::vector<WorkerIndex>& order,
                          Assignment* assignment, ScoreKeeper* keeper,
                          ThreadPool* pool, std::vector<bool>* dirty) {
  Speculation spec;
  if (pool != nullptr) {
    Speculate(instance, *assignment, *keeper, order, dirty, pool, &spec);
  }

  int64_t moves = 0;
  for (const WorkerIndex w : order) {
    if (dirty != nullptr) {
      if (!(*dirty)[static_cast<size_t>(w)]) {
        ++stats_.best_response_skips;
        continue;
      }
      (*dirty)[static_cast<size_t>(w)] = false;
    }
    const TaskIndex current = assignment->TaskOf(w);
    // Scan-work counters stay thread-count-invariant: a consumed
    // speculation carries the tally of the identical scan the serial
    // pass would have run, and discarded speculations count nothing.
    ScanCounters counters;
    BestResponse best;
    if (spec.active && SpeculationUsable(instance, spec, w)) {
      best = spec.results[static_cast<size_t>(w)];
      counters = spec.counters[static_cast<size_t>(w)];
    } else {
      best = ComputeBestResponse(instance, *keeper, *assignment, w,
                                 &counters);
    }
    stats_.candidates_evaluated += counters.evaluated;
    stats_.feasibility_rejects += counters.feasibility_rejects;
    ++stats_.best_response_evals;
    // A best response other than `current` already beats it strictly
    // (ComputeBestResponse keeps `current` unless beaten by more than its
    // tolerance), so any change of task is an improving move.
    if (best.task == current) continue;
    const MoveResult move =
        MoveAndMarkDirty(instance, assignment, keeper, w, best.task, dirty);
    MarkTouched(&spec, move.from);
    MarkTouched(&spec, best.task);
    ++moves;
  }
  stats_.moves += moves;
  return moves;
}

Assignment GtAssigner::Run(const Instance& instance) {
  CASC_CHECK(instance.valid_pairs_ready())
      << "GT requires Instance::ComputeValidPairs()";
  stats_ = AssignerStats{};

  // Cross-batch warm start: when the streaming driver attached a usable
  // SolveDelta, adopt the previous equilibrium's skeleton instead of a
  // cold init — sound from any profile (Theorem V.1). A null or empty
  // delta (first batch, zero carry-over, CASC_NO_WARM_START) takes the
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
    }
    stats_.warm_started = true;
    stats_.seeded_workers = delta->num_seeded;
    stats_.dirty_workers = delta->num_dirty;
  } else {
    switch (options_.init) {
    case GtInit::kWarmStart:  // no usable delta: cold-fall back to TPG
    case GtInit::kTpg: {
      TpgAssigner tpg;
      tpg.set_workspace(workspace());
      assignment = tpg.Run(instance);
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

  std::unique_ptr<ThreadPool> pool;
  if (options_.num_threads > 1) {
    pool = std::make_unique<ThreadPool>(options_.num_threads);
  }

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

  std::vector<WorkerIndex> order(
      static_cast<size_t>(instance.num_workers()));
  for (WorkerIndex w = 0; w < instance.num_workers(); ++w) {
    order[static_cast<size_t>(w)] = w;
  }
  Rng order_rng(options_.order_seed);

  double score = stats_.init_score;
  bool reached_equilibrium = false;
  while (stats_.rounds < options_.max_rounds) {
    ++stats_.rounds;
    if (options_.order == GtOrder::kShuffled) order_rng.Shuffle(order);
    int64_t moves;
    if (use_dirty) {
      moves = Round(instance, order, &assignment, &keeper, pool.get(),
                    &dirty);
      if (moves == 0) {
        // The dirty set drained without a move. The theorem-based
        // filters are sound, but we still certify the equilibrium with
        // one full pass; any move it finds re-enters the loop.
        const int64_t verification_moves = Round(
            instance, order, &assignment, &keeper, pool.get(), nullptr);
        if (verification_moves == 0) {
          reached_equilibrium = true;
          break;
        }
        moves = verification_moves;
        CASC_LOG(kDebug) << "LUB verification pass applied "
                         << verification_moves << " extra moves";
      }
    } else {
      moves =
          Round(instance, order, &assignment, &keeper, pool.get(), nullptr);
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
