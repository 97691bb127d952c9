#include "algo/exact_assigner.h"

#include <algorithm>
#include <vector>

#include "algo/upper_bound.h"
#include "common/check.h"
#include "model/objective.h"
#include "model/objective_model.h"

namespace casc {
namespace {

/// Depth-first search state shared across the recursion.
struct SearchState {
  const Instance* instance;
  // Per-task incremental bookkeeping.
  std::vector<std::vector<WorkerIndex>> groups;
  std::vector<double> pair_sums;  // sum over ordered pairs in each group
  // Per-worker ceilings q̂_{i,B} (Lemma V.2) and their suffix sums.
  std::vector<double> ceiling;
  std::vector<double> suffix_bound;
  // Sum of ceilings of already-assigned (non-idle) workers.
  double assigned_ceiling = 0.0;
  // Best complete assignment found.
  double best_score = -1.0;
  std::vector<TaskIndex> best_choice;
  std::vector<TaskIndex> choice;
};

double CurrentScore(const SearchState& state) {
  const Instance& instance = *state.instance;
  const ObjectiveModel& objective = instance.objective();
  double total = 0.0;
  for (TaskIndex t = 0; t < instance.num_tasks(); ++t) {
    const auto& group = state.groups[static_cast<size_t>(t)];
    const int size = static_cast<int>(group.size());
    if (size >= instance.min_group_size()) {
      // The search never overfills a task (the capacity gate below), so
      // the objective sees |group| <= a_j and no best-subset crowding.
      total += objective.ScoreGroup(instance, t, group, kNoWorker, kNoWorker,
                                    state.pair_sums[static_cast<size_t>(t)],
                                    size);
    }
  }
  return total;
}

void Search(SearchState* state, WorkerIndex w) {
  const Instance& instance = *state->instance;
  if (w == instance.num_workers()) {
    const double score = CurrentScore(*state);
    if (score > state->best_score) {
      state->best_score = score;
      state->best_choice = state->choice;
    }
    return;
  }
  // Prune with Lemma V.2: any complete assignment's total equals the sum
  // over assigned workers of their in-group average quality, and each
  // average is capped by that worker's ceiling q̂_{i,B}. Workers already
  // decided idle contribute nothing; workers w.. are optimistically all
  // assigned at their ceilings. (The current *partial score* is not a
  // valid base — later joins can raise earlier workers' averages — so the
  // bound uses ceilings for the assigned prefix too.)
  //
  // Objective-variant admissibility: the ceilings bound the *cooperation
  // term* of Equation 2, so this prune stays exact for any objective
  // whose ScoreGroup is pointwise <= that term (e.g. multiskill, which
  // only gates groups to 0). An objective that adds a positive
  // regularizer on top of the cooperation term must not be run through
  // ExactAssigner without widening these ceilings (see the bound
  // obligation in ObjectiveModel's docs).
  if (state->best_score >= 0.0 &&
      state->assigned_ceiling +
              state->suffix_bound[static_cast<size_t>(w)] <=
          state->best_score) {
    return;
  }

  auto try_choice = [&](TaskIndex t) {
    state->choice[static_cast<size_t>(w)] = t;
    if (t == kNoTask) {
      Search(state, w + 1);
      return;
    }
    auto& group = state->groups[static_cast<size_t>(t)];
    double added = 0.0;
    for (const WorkerIndex member : group) {
      added += instance.coop().Quality(member, w) +
               instance.coop().Quality(w, member);
    }
    group.push_back(w);
    state->pair_sums[static_cast<size_t>(t)] += added;
    state->assigned_ceiling += state->ceiling[static_cast<size_t>(w)];
    Search(state, w + 1);
    state->assigned_ceiling -= state->ceiling[static_cast<size_t>(w)];
    group.pop_back();
    state->pair_sums[static_cast<size_t>(t)] -= added;
  };

  // Deliberately no ObjectiveModel::JoinFeasible gate here: skill
  // coverage grows as members are added, so a join that looks futile
  // against the partial group (worker holds none of the missing skills)
  // can still belong to the optimum once a later worker covers them.
  // Branch elimination by JoinFeasible is only sound for marginal moves
  // against a fixed group — the best-response scans — never for an
  // exhaustive search. Infeasible leaves simply score 0 via ScoreGroup.
  for (const TaskIndex t : instance.ValidTasks(w)) {
    if (static_cast<int>(state->groups[static_cast<size_t>(t)].size()) <
        instance.tasks()[static_cast<size_t>(t)].capacity) {
      try_choice(t);
    }
  }
  try_choice(kNoTask);
}

}  // namespace

ExactAssigner::ExactAssigner(ExactOptions options) : options_(options) {}

Assignment ExactAssigner::Run(const Instance& instance) {
  CASC_CHECK(instance.valid_pairs_ready())
      << "EXACT requires Instance::ComputeValidPairs()";
  CASC_CHECK_LE(instance.num_workers(), options_.max_workers)
      << "ExactAssigner is exponential; instance too large";
  stats_ = AssignerStats{};

  SearchState state;
  state.instance = &instance;
  state.groups.assign(static_cast<size_t>(instance.num_tasks()), {});
  state.pair_sums.assign(static_cast<size_t>(instance.num_tasks()), 0.0);
  state.choice.assign(static_cast<size_t>(instance.num_workers()), kNoTask);
  state.best_choice = state.choice;

  state.ceiling.assign(static_cast<size_t>(instance.num_workers()), 0.0);
  state.suffix_bound.assign(
      static_cast<size_t>(instance.num_workers()) + 1, 0.0);
  for (WorkerIndex w = instance.num_workers() - 1; w >= 0; --w) {
    state.ceiling[static_cast<size_t>(w)] =
        instance.ValidTasks(w).empty()
            ? 0.0
            : WorkerQualityUpperBound(instance, w);
    state.suffix_bound[static_cast<size_t>(w)] =
        state.suffix_bound[static_cast<size_t>(w) + 1] +
        state.ceiling[static_cast<size_t>(w)];
  }

  Search(&state, 0);

  Assignment assignment = MakeAssignment(instance);
  for (WorkerIndex w = 0; w < instance.num_workers(); ++w) {
    const TaskIndex t = state.best_choice[static_cast<size_t>(w)];
    if (t != kNoTask) assignment.Assign(w, t);
  }
  stats_.final_score = TotalScore(instance, assignment);
  return assignment;
}

}  // namespace casc
