#include "algo/tpg_assigner.h"

#include <algorithm>
#include <cstdint>
#include <queue>
#include <span>

#include "common/check.h"
#include "model/objective.h"
#include "model/objective_model.h"

namespace casc {
namespace {

/// Best pairs kept per task. Any value is exact: a list that runs dry
/// before its task's seeding ends is rebuilt from the live candidates.
constexpr size_t kPairListSize = 48;

/// One candidate pair of a task: positions i < j in Candidates(t) and
/// their mutual affinity q(i,j) + q(j,i).
struct SeedPair {
  double value;
  int32_t i;
  int32_t j;
};

/// The row-major scan's order of preference: higher value first, then
/// the pair the scan meets first (lower i, then lower j), which is the
/// pair a first-strict-maximum scan keeps.
bool PairBefore(const SeedPair& a, const SeedPair& b) {
  if (a.value != b.value) return a.value > b.value;
  if (a.i != b.i) return a.i < b.i;
  return a.j < b.j;
}

/// A task's best pairs among the candidates live when the list was
/// built, best first. `cursor` only moves forward: stage 1 never frees a
/// worker, so a pair that touched a consumed worker stays dead.
struct PairList {
  std::vector<SeedPair> pairs;
  size_t cursor = 0;
  bool complete = false;  ///< holds every live pair of its build
};

/// Builds greedy B-worker seed sets (best mutual pair among the task's
/// available candidates, then argmax marginal extension) from per-task
/// pair lists, reading each affinity row once through
/// CooperationMatrix::MutualRow. Holds its scratch buffers across calls.
class SeedBuilder {
 public:
  SeedBuilder(const Instance& instance, const std::vector<bool>& available)
      : instance_(instance),
        coop_(instance.coop()),
        available_(available),
        target_(static_cast<size_t>(instance.min_group_size())) {}

  /// Writes t's greedy seed set (ascending) to `seed`, or clears it when
  /// fewer than B candidates are available. Advances `list` past dead
  /// pairs and rebuilds it when it runs dry.
  void Seed(TaskIndex t, PairList* list, std::vector<WorkerIndex>* seed) {
    seed->clear();
    const std::span<const WorkerIndex> candidates = instance_.Candidates(t);
    live_.clear();
    live_pos_.clear();
    for (size_t p = 0; p < candidates.size(); ++p) {
      if (!available_[static_cast<size_t>(candidates[p])]) continue;
      live_.push_back(candidates[p]);
      live_pos_.push_back(static_cast<int32_t>(p));
    }
    if (live_.size() < target_) return;

    const auto live_pair = [&](const SeedPair& pair) {
      return available_[static_cast<size_t>(candidates[pair.i])] &&
             available_[static_cast<size_t>(candidates[pair.j])];
    };
    while (list->cursor < list->pairs.size() &&
           !live_pair(list->pairs[list->cursor])) {
      ++list->cursor;
    }
    if (list->cursor == list->pairs.size()) {
      // Two or more live candidates always leave a live pair, so only a
      // truncated list can run dry.
      CASC_CHECK(!list->complete);
      BuildPairs(list);
    }
    const SeedPair& best = list->pairs[list->cursor];
    seed->push_back(candidates[best.i]);
    seed->push_back(candidates[best.j]);
    if (seed->size() < target_) Extend(best, seed);
    std::sort(seed->begin(), seed->end());
  }

 private:
  /// Refills `list` with the K best pairs over live_, through a bounded
  /// heap whose top is the worst pair kept.
  void BuildPairs(PairList* list) {
    std::vector<SeedPair>& heap = list->pairs;
    heap.clear();
    list->cursor = 0;
    const size_t n = live_.size();
    list->complete = n * (n - 1) / 2 <= kPairListSize;
    for (size_t a = 0; a + 1 < n; ++a) {
      const std::span<const WorkerIndex> rest =
          std::span<const WorkerIndex>(live_).subspan(a + 1);
      row_.resize(rest.size());
      coop_.MutualRow(live_[a], rest, row_);
      for (size_t b = 0; b < rest.size(); ++b) {
        // Pairs arrive in scan order, so a newcomer that only ties the
        // worst kept pair ranks after it: the threshold test is strict.
        if (heap.size() == kPairListSize && !(row_[b] > heap.front().value)) {
          continue;
        }
        const SeedPair pair{row_[b], live_pos_[a], live_pos_[a + 1 + b]};
        if (heap.size() == kPairListSize) {
          std::pop_heap(heap.begin(), heap.end(), PairBefore);
          heap.back() = pair;
        } else {
          heap.push_back(pair);
        }
        std::push_heap(heap.begin(), heap.end(), PairBefore);
      }
    }
    std::sort_heap(heap.begin(), heap.end(), PairBefore);
  }

  /// Adds, one at a time, the live candidate with the largest summed
  /// mutual affinity to the seed so far (first one on ties), until the
  /// seed has B workers. Each member's row is read once and accumulated
  /// in seed order, so every sum is bit-equal to a fresh per-step sum.
  void Extend(const SeedPair& best, std::vector<WorkerIndex>* seed) {
    const size_t n = live_.size();
    added_.assign(n, 0.0);
    in_seed_.assign(n, 0);
    const auto live_index = [&](int32_t position) {
      return static_cast<size_t>(
          std::lower_bound(live_pos_.begin(), live_pos_.end(), position) -
          live_pos_.begin());
    };
    in_seed_[live_index(best.i)] = 1;
    in_seed_[live_index(best.j)] = 1;
    row_.resize(n);
    const auto accumulate = [&](WorkerIndex member) {
      coop_.MutualRow(member, live_, row_);
      for (size_t k = 0; k < n; ++k) added_[k] += row_[k];
    };
    accumulate((*seed)[0]);
    accumulate((*seed)[1]);
    while (seed->size() < target_) {
      size_t best_k = n;
      double best_add = -1.0;
      for (size_t k = 0; k < n; ++k) {
        if (!in_seed_[k] && added_[k] > best_add) {
          best_add = added_[k];
          best_k = k;
        }
      }
      CASC_CHECK_LT(best_k, n);
      in_seed_[best_k] = 1;
      seed->push_back(live_[best_k]);
      if (seed->size() < target_) accumulate(live_[best_k]);
    }
  }

  const Instance& instance_;
  const CooperationMatrix& coop_;
  const std::vector<bool>& available_;
  const size_t target_;
  std::vector<WorkerIndex> live_;  ///< the task's available candidates
  std::vector<int32_t> live_pos_;  ///< their positions in Candidates(t)
  std::vector<double> row_;
  std::vector<double> added_;
  std::vector<uint8_t> in_seed_;
};

/// A cached stage-1 seed set for one task.
struct SeedEntry {
  std::vector<WorkerIndex> workers;  // empty = fewer than B candidates
  uint64_t version = 0;              // bumped on every refresh
};

/// A lazy heap entry for stage 1: the best seed score first, then the
/// lowest task index.
struct SeedScore {
  double score;
  TaskIndex task;
  uint64_t version;  // stale when != the task's SeedEntry::version

  bool operator<(const SeedScore& other) const {
    if (score != other.score) return score < other.score;
    return task > other.task;
  }
};

/// A lazy heap entry for stage 2.
struct GainEntry {
  double gain;
  WorkerIndex worker;
  TaskIndex task;
  uint64_t task_version;  // stale when != current version of `task`

  bool operator<(const GainEntry& other) const {
    if (gain != other.gain) return gain < other.gain;  // max-heap by gain
    // Deterministic tie-breaking: smaller worker, then task, wins.
    if (worker != other.worker) return worker > other.worker;
    return task > other.task;
  }
};

}  // namespace

TpgAssigner::TpgAssigner(TpgOptions options) : options_(options) {}

std::vector<WorkerIndex> TpgAssigner::GreedySeedSet(
    const Instance& instance, TaskIndex t,
    const std::vector<bool>& available) {
  SeedBuilder builder(instance, available);
  PairList list;
  std::vector<WorkerIndex> seed;
  builder.Seed(t, &list, &seed);
  return seed;
}

Assignment TpgAssigner::Run(const Instance& instance) {
  CASC_CHECK(instance.valid_pairs_ready())
      << "TPG requires Instance::ComputeValidPairs()";
  stats_ = AssignerStats{};
  Assignment assignment = MakeAssignment(instance);
  SeedTasks(instance, nullptr, &assignment);
  stats_.final_score = TotalScore(instance, assignment);
  return assignment;
}

void TpgAssigner::SeedTasks(const Instance& instance,
                            const std::vector<uint8_t>* task_mask,
                            Assignment* assignment_ptr) {
  CASC_CHECK(instance.valid_pairs_ready())
      << "TPG requires Instance::ComputeValidPairs()";
  CASC_CHECK(assignment_ptr != nullptr);
  Assignment& assignment = *assignment_ptr;
  const int num_tasks = instance.num_tasks();
  const auto masked = [&](TaskIndex t) {
    return task_mask == nullptr || (*task_mask)[static_cast<size_t>(t)] != 0;
  };

  std::vector<bool> worker_available(
      static_cast<size_t>(instance.num_workers()));
  for (WorkerIndex w = 0; w < instance.num_workers(); ++w) {
    worker_available[static_cast<size_t>(w)] =
        assignment.TaskOf(w) == kNoTask;
  }

  // ---------------------------------------------------------------------
  // Stage 1 (Algorithm 2, lines 2-13): seed each task with its best
  // B-worker set, best-scoring task first.
  // ---------------------------------------------------------------------
  if (!options_.skip_stage_one) {
    std::vector<SeedEntry> seeds(static_cast<size_t>(num_tasks));
    std::vector<PairList> pair_lists(static_cast<size_t>(num_tasks));
    std::vector<bool> task_seeded(static_cast<size_t>(num_tasks), false);
    // Available candidates per unseeded masked task: the tie-break.
    std::vector<int> potential(static_cast<size_t>(num_tasks), 0);
    std::priority_queue<SeedScore> heap;
    SeedBuilder builder(instance, worker_available);

    auto refresh_seed = [&](TaskIndex t) {
      SeedEntry& entry = seeds[static_cast<size_t>(t)];
      builder.Seed(t, &pair_lists[static_cast<size_t>(t)], &entry.workers);
      ++entry.version;
      if (entry.workers.empty()) return;  // fewer than B candidates left
      // A seed has exactly B workers, so GroupScore is the objective's
      // value of the would-be group (PairSum / (B-1) for the default;
      // variants may gate an infeasible seed to 0, deprioritizing it
      // behind any feasible positive-scoring seed). A negative score
      // never wins a pick: seeding stops once no seed scores >= 0.
      const double score = GroupScore(instance, t, entry.workers);
      if (score >= 0.0) heap.push(SeedScore{score, t, entry.version});
    };
    const auto fresh = [&](const SeedScore& top) {
      return !task_seeded[static_cast<size_t>(top.task)] &&
             top.version == seeds[static_cast<size_t>(top.task)].version;
    };

    for (TaskIndex t = 0; t < num_tasks; ++t) {
      if (!masked(t)) continue;
      for (const WorkerIndex w : instance.Candidates(t)) {
        if (worker_available[static_cast<size_t>(w)]) {
          ++potential[static_cast<size_t>(t)];
        }
      }
      refresh_seed(t);
    }

    std::vector<SeedScore> ties;
    while (true) {
      while (!heap.empty() && !fresh(heap.top())) heap.pop();
      if (heap.empty()) break;  // no task can form a B-set any more

      // Collect the tasks achieving the best score; when several compete,
      // Algorithm 2 (lines 6-9) awards the set to the task with the most
      // potential candidate workers, then to the lowest task index.
      const double best_score = heap.top().score;
      ties.clear();
      while (!heap.empty() && heap.top().score == best_score) {
        if (fresh(heap.top())) ties.push_back(heap.top());
        heap.pop();
      }
      size_t chosen_at = 0;  // ties come out in ascending task order
      for (size_t k = 1; k < ties.size(); ++k) {
        if (potential[static_cast<size_t>(ties[k].task)] >
            potential[static_cast<size_t>(ties[chosen_at].task)]) {
          chosen_at = k;
        }
      }
      for (size_t k = 0; k < ties.size(); ++k) {
        if (k != chosen_at) heap.push(ties[k]);
      }
      const TaskIndex chosen = ties[chosen_at].task;
      const std::vector<WorkerIndex>& consumed =
          seeds[static_cast<size_t>(chosen)].workers;

      for (const WorkerIndex w : consumed) {
        assignment.Assign(w, chosen);
        worker_available[static_cast<size_t>(w)] = false;
      }
      task_seeded[static_cast<size_t>(chosen)] = true;

      // Only tasks that list a consumed worker as a candidate lose
      // potential, and only those whose seed used one must be re-seeded.
      // Every consumed worker is already unavailable, so a re-seeded
      // task holds none of them and is re-seeded at most once per pick.
      for (const WorkerIndex w : consumed) {
        for (const TaskIndex t : instance.ValidTasks(w)) {
          if (task_seeded[static_cast<size_t>(t)] || !masked(t)) continue;
          --potential[static_cast<size_t>(t)];
          const auto& cached = seeds[static_cast<size_t>(t)].workers;
          if (std::binary_search(cached.begin(), cached.end(), w)) {
            refresh_seed(t);
          }
        }
      }
    }
  }
  stats_.init_score = TotalScore(instance, assignment);

  // ---------------------------------------------------------------------
  // Stage 2 (Algorithm 2, lines 15-20): repeatedly add the single
  // worker-and-task pair with the largest ΔQ.
  // ---------------------------------------------------------------------
  std::vector<uint64_t> task_version(static_cast<size_t>(num_tasks), 0);
  const ObjectiveModel& objective = instance.objective();
  const bool filter_joins = !objective.AlwaysJoinFeasible();

  // Every join is priced in one scratch vector, so pricing never allocates.
  std::vector<WorkerIndex> joined;
  auto pair_gain = [&](WorkerIndex w, TaskIndex t) {
    return GainOfJoining(instance, t, assignment.GroupOf(t), w, &joined);
  };
  auto task_open = [&](TaskIndex t) {
    return assignment.GroupSize(t) <
           instance.tasks()[static_cast<size_t>(t)].capacity;
  };

  std::priority_queue<GainEntry> heap;
  for (WorkerIndex w = 0; w < instance.num_workers(); ++w) {
    if (!worker_available[static_cast<size_t>(w)]) continue;
    for (const TaskIndex t : instance.ValidTasks(w)) {
      if (!masked(t) || !task_open(t)) continue;
      heap.push(GainEntry{pair_gain(w, t), w, t,
                          task_version[static_cast<size_t>(t)]});
    }
  }

  while (!heap.empty()) {
    const GainEntry top = heap.top();
    heap.pop();
    if (!worker_available[static_cast<size_t>(top.worker)]) continue;
    if (!task_open(top.task)) continue;
    if (top.task_version != task_version[static_cast<size_t>(top.task)]) {
      // Stale gain: recompute against the current group and re-insert.
      heap.push(GainEntry{pair_gain(top.worker, top.task), top.worker,
                          top.task,
                          task_version[static_cast<size_t>(top.task)]});
      continue;
    }
    if (filter_joins &&
        !objective.JoinFeasible(instance, top.task,
                                assignment.GroupOf(top.task), top.worker)) {
      // The objective forbids this join outright (e.g. the worker holds
      // none of the task's missing skills); skip it without letting its
      // (necessarily non-positive) gain trip the stop rule below.
      ++stats_.feasibility_rejects;
      continue;
    }
    // Adding a poorly-matched worker can lower a group's score (the
    // denominator of Equation 2 grows), so gains may be negative; stop at
    // the first non-improving pair (or first negative one when zero-gain
    // pairs are allowed, which tops groups up toward B — mandatory when
    // stage 1 was skipped, since every group starts below B).
    const bool zero_gain_ok =
        options_.allow_zero_gain || options_.skip_stage_one;
    if (zero_gain_ok ? top.gain < 0.0 : top.gain <= 0.0) break;

    assignment.Assign(top.worker, top.task);
    worker_available[static_cast<size_t>(top.worker)] = false;
    ++task_version[static_cast<size_t>(top.task)];
  }
}

}  // namespace casc
