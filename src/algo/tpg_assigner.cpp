#include "algo/tpg_assigner.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
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

/// Sampled rows that set the strong-pair cut.
constexpr size_t kCutSampleRows = 8;

/// Strong pairs the cut aims to leave in a task of average pair count.
/// Any value is exact; it only sets how often a fill finds K of them.
constexpr double kStrongPairsPerTask = 8.0 * kPairListSize;

/// The largest share of pairs the cut aims to keep.
constexpr double kMaxKeepFraction = 0.25;

/// Strong pairs held before the pass raises its cut: this floor, or, if
/// larger, the smaller of half of all pairs and four times the share the
/// cut aims to keep. A sample that misjudges the cut then costs at most
/// four times the planned memory, and above the floor never more than
/// half the pairs (plus one row).
constexpr size_t kMinStrongPairCap = 4096;
constexpr double kMaxCapFraction = 0.5;

/// Builds greedy B-worker seed sets (best mutual pair among the task's
/// available candidates, then argmax marginal extension) from per-task
/// pair lists. Holds its scratch buffers across calls and counts every
/// pair value it computes through CooperationMatrix::MutualRow.
///
/// A list is filled by one of two exact paths. The per-task scan reads
/// every live candidate pair once. After the strong-pair pass
/// (PriceStrongPairsIfCheaper), a fill first collects the task's live
/// *strong* pairs, those valued strictly above the pass's cut θ. Every
/// pair it does not collect is worth ≤ θ, so it ranks after every pair
/// it does; when it collects at least K, their K best by PairBefore are
/// exactly the scan's list. With fewer, the fill falls back to the scan.
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

  /// Takes the shard-wide strong-pair pass when it prices fewer pairs
  /// than the first fills it can replace. Only a task with n >= B live
  /// candidates and more than K live pairs ever fills from the strong
  /// pairs: stage 1 never frees a worker, so any other task never builds
  /// a list or builds one complete list. Its first fill scans n(n-1)/2
  /// pairs; the pass prices the r(r-1)/2 pairs of the r workers that such
  /// tasks list. Writes each masked task's n to `live_counts`.
  void PriceStrongPairsIfCheaper(const std::vector<uint8_t>* task_mask,
                                 std::vector<int>* live_counts) {
    // Bit w of `listed` flags a worker counted in r; it is allocated at
    // the first task the pass could serve.
    std::vector<uint64_t> listed;
    double scan_pairs = 0.0;
    int scan_tasks = 0;
    size_t r = 0;
    for (TaskIndex t = 0; t < instance_.num_tasks(); ++t) {
      if (task_mask != nullptr && (*task_mask)[static_cast<size_t>(t)] == 0) {
        continue;
      }
      const std::span<const WorkerIndex> candidates = instance_.Candidates(t);
      int& live = (*live_counts)[static_cast<size_t>(t)];
      for (const WorkerIndex w : candidates) {
        if (available_[static_cast<size_t>(w)]) ++live;
      }
      const double pairs = live * (live - 1.0) / 2.0;
      if (static_cast<size_t>(live) < target_ || pairs <= kPairListSize) {
        continue;
      }
      scan_pairs += pairs;
      ++scan_tasks;
      if (listed.empty()) {
        listed.assign((static_cast<size_t>(instance_.num_workers()) + 63) / 64,
                      0);
      }
      for (const WorkerIndex w : candidates) {
        if (!available_[static_cast<size_t>(w)]) continue;
        uint64_t& word = listed[static_cast<size_t>(w) / 64];
        const uint64_t bit = uint64_t{1} << (static_cast<size_t>(w) % 64);
        r += (word & bit) == 0 ? 1 : 0;
        word |= bit;
      }
    }
    if (!(r * (r - 1.0) / 2.0 < scan_pairs)) return;
    std::vector<WorkerIndex> workers;
    workers.reserve(r);
    for (size_t k = 0; k < listed.size(); ++k) {
      for (uint64_t word = listed[k]; word != 0; word &= word - 1) {
        workers.push_back(
            static_cast<WorkerIndex>(64 * k + std::countr_zero(word)));
      }
    }
    // The cut aims at kStrongPairsPerTask strong pairs in a task of
    // average pair count.
    PriceStrongPairs(workers,
                     std::min(kMaxKeepFraction,
                              kStrongPairsPerTask * scan_tasks / scan_pairs));
  }

  /// Pair values computed so far (MutualRow entries).
  int64_t pairs_priced() const { return pairs_priced_; }
  /// Pair-list fills taken from the strong pairs, and by the scan.
  int64_t strong_fills() const { return strong_fills_; }
  int64_t scan_fills() const { return scan_fills_; }

 private:
  /// The shard-wide pass: prices every pair of `workers` (ascending
  /// ids, all available) once and keeps each pair worth strictly more
  /// than a cut θ, stored under its lower id. θ is the median over a few
  /// sample rows of the value that leaves about `keep_fraction` of the
  /// row above it. Stage 1 never frees a worker, so the kept pairs stay
  /// a superset of every later fill's live strong pairs.
  void PriceStrongPairs(std::span<const WorkerIndex> workers,
                        double keep_fraction) {
    // The cost rule admits the pass only for workers that a task with
    // more than K pairs lists, so r > 2.
    const size_t r = workers.size();
    row_.resize(r);
    std::array<double, kCutSampleRows> row_cuts{};
    const size_t rows = std::min(r, kCutSampleRows);
    const size_t above = std::min(
        r - 2, static_cast<size_t>(keep_fraction * static_cast<double>(r)));
    for (size_t k = 0; k < rows; ++k) {
      // The row's r - 1 pair values, its diagonal moved to the end.
      const size_t a = k * r / rows;
      Price(workers[a], workers);
      std::swap(row_[a], row_[r - 1]);
      const auto values = row_.begin();
      const auto nth = values + static_cast<std::ptrdiff_t>(r - 2 - above);
      std::nth_element(values, nth,
                       values + static_cast<std::ptrdiff_t>(r - 1));
      row_cuts[k] = *nth;
    }
    const auto mid = row_cuts.begin() + static_cast<std::ptrdiff_t>(rows / 2);
    std::nth_element(row_cuts.begin(), mid,
                     row_cuts.begin() + static_cast<std::ptrdiff_t>(rows));
    double cut = *mid;

    // Each row's kept pairs are counted at offsets[low + 1], so a prefix
    // sum at the end turns the counts into CSR offsets by lower id.
    std::vector<double>& value = strong_value_;
    std::vector<int32_t>& high = strong_high_;
    std::vector<int32_t>& offsets = strong_offsets_;
    offsets.assign(static_cast<size_t>(instance_.num_workers()) + 1, 0);
    slot_.assign(static_cast<size_t>(instance_.num_workers()), 0);
    const double pairs = static_cast<double>(r) * (r - 1) / 2.0;
    value.reserve(static_cast<size_t>(1.25 * keep_fraction * pairs));
    high.reserve(value.capacity());
    const size_t cap = std::max(
        kMinStrongPairCap,
        static_cast<size_t>(std::min(4.0 * keep_fraction, kMaxCapFraction) *
                            pairs));
    for (size_t a = 0; a + 1 < r; ++a) {
      const std::span<const WorkerIndex> rest = workers.subspan(a + 1);
      Price(workers[a], rest);
      const size_t before = value.size();
      for (size_t b = 0; b < rest.size(); ++b) {
        if (row_[b] > cut) {
          value.push_back(row_[b]);
          high.push_back(rest[b]);
        }
      }
      offsets[static_cast<size_t>(workers[a]) + 1] =
          static_cast<int32_t>(value.size() - before);
      if (value.size() > cap) cut = RaiseCut(workers.first(a + 1));
    }
    for (size_t w = 1; w < offsets.size(); ++w) offsets[w] += offsets[w - 1];
    strong_ready_ = true;
  }

  /// Raises the pass's cut to the median kept value and drops every kept
  /// pair at or below it, row by row over `rows` (the rows priced so far).
  /// Every pair dropped, now or by an earlier cut, is worth ≤ the new
  /// cut. Returns the new cut.
  double RaiseCut(std::span<const WorkerIndex> rows) {
    std::vector<double>& value = strong_value_;
    std::vector<int32_t>& high = strong_high_;
    std::vector<double> sorted(value.begin(), value.end());
    const auto mid =
        sorted.begin() + static_cast<std::ptrdiff_t>(sorted.size() / 2);
    std::nth_element(sorted.begin(), mid, sorted.end());
    const double cut = *mid;
    size_t in = 0;
    size_t out = 0;
    for (const WorkerIndex w : rows) {
      int32_t& count = strong_offsets_[static_cast<size_t>(w) + 1];
      const size_t end = in + static_cast<size_t>(count);
      const size_t row_out = out;
      for (; in < end; ++in) {
        if (value[in] > cut) {
          value[out] = value[in];
          high[out] = high[in];
          ++out;
        }
      }
      count = static_cast<int32_t>(out - row_out);
    }
    value.resize(out);
    high.resize(out);
    return cut;
  }

  /// Fills row_[0, ids.size()) with Mutual(w, ids[k]).
  void Price(WorkerIndex w, std::span<const WorkerIndex> ids) {
    coop_.MutualRow(w, ids, std::span<double>(row_).first(ids.size()));
    pairs_priced_ += static_cast<int64_t>(ids.size());
  }

  /// Refills `list` with the K best pairs over live_: from the strong
  /// pairs when they hold K of them, else by the scan.
  void BuildPairs(PairList* list) {
    list->cursor = 0;
    const size_t n = live_.size();
    list->complete = n * (n - 1) / 2 <= kPairListSize;
    if (!list->complete && strong_ready_ && CollectStrongPairs(list)) {
      ++strong_fills_;
      return;
    }
    ++scan_fills_;
    ScanPairs(list);
  }

  /// The live strong pairs, found through a worker -> live index stamp.
  /// Returns false, leaving `list` untouched, when fewer than K are live.
  bool CollectStrongPairs(PairList* list) {
    for (size_t a = 0; a < live_.size(); ++a) {
      slot_[static_cast<size_t>(live_[a])] = static_cast<int32_t>(a) + 1;
    }
    found_.clear();
    for (size_t a = 0; a < live_.size(); ++a) {
      const size_t w = static_cast<size_t>(live_[a]);
      const size_t end = static_cast<size_t>(strong_offsets_[w + 1]);
      for (size_t e = static_cast<size_t>(strong_offsets_[w]); e < end; ++e) {
        const int32_t b = slot_[static_cast<size_t>(strong_high_[e])];
        if (b == 0) continue;
        const int32_t i = live_pos_[a];
        const int32_t j = live_pos_[static_cast<size_t>(b - 1)];
        found_.push_back(
            SeedPair{strong_value_[e], std::min(i, j), std::max(i, j)});
      }
    }
    for (const WorkerIndex w : live_) slot_[static_cast<size_t>(w)] = 0;
    if (found_.size() < kPairListSize) return false;
    const auto kept = found_.begin() + kPairListSize;
    std::partial_sort(found_.begin(), kept, found_.end(), PairBefore);
    list->pairs.assign(found_.begin(), kept);
    return true;
  }

  /// The per-task scan: every live pair, through a bounded heap whose top
  /// is the worst pair kept.
  void ScanPairs(PairList* list) {
    std::vector<SeedPair>& heap = list->pairs;
    heap.clear();
    const size_t n = live_.size();
    row_.resize(n);
    for (size_t a = 0; a + 1 < n; ++a) {
      const std::span<const WorkerIndex> rest =
          std::span<const WorkerIndex>(live_).subspan(a + 1);
      Price(live_[a], rest);
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
      Price(member, live_);
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
  bool strong_ready_ = false;  ///< the strong-pair pass ran
  int64_t pairs_priced_ = 0;
  int64_t strong_fills_ = 0;
  int64_t scan_fills_ = 0;
  std::vector<WorkerIndex> live_;  ///< the task's available candidates
  std::vector<int32_t> live_pos_;  ///< their positions in Candidates(t)
  std::vector<double> row_;
  std::vector<double> added_;
  std::vector<uint8_t> in_seed_;
  std::vector<SeedPair> found_;  ///< a fill's live strong pairs
  // The strong pairs, CSR by lower worker id: strong_offsets_[w] is w's
  // first pair as the lower id, strong_high_ / strong_value_ each pair's
  // higher id and Mutual() value.
  std::vector<int32_t> strong_offsets_;
  std::vector<int32_t> strong_high_;
  std::vector<double> strong_value_;
  std::vector<int32_t> slot_;  ///< worker -> live index + 1, or 0
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
  strong_fills_ = 0;
  scan_fills_ = 0;
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
  // B-worker set, best-scoring task first. Its state goes out of scope
  // before stage 2.
  // ---------------------------------------------------------------------
  {
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

    builder.PriceStrongPairsIfCheaper(task_mask, &potential);
    for (TaskIndex t = 0; t < num_tasks; ++t) {
      if (masked(t)) refresh_seed(t);
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
    stats_.seed_pairs_priced += builder.pairs_priced();
    strong_fills_ = builder.strong_fills();
    scan_fills_ = builder.scan_fills();
  }
  stats_.init_score = TotalScore(instance, assignment);

  // ---------------------------------------------------------------------
  // Stage 2 (Algorithm 2, lines 15-20): repeatedly add the single
  // worker-and-task pair with the largest ΔQ.
  // ---------------------------------------------------------------------
  std::vector<uint64_t> task_version(static_cast<size_t>(num_tasks), 0);
  const ObjectiveModel& objective = instance.objective();
  const bool filter_joins = !objective.AlwaysJoinFeasible();

  // A task's group changes only when its version does, so its score and
  // member pair values are priced once per version.
  JoinGainCache gains;
  gains.Reset(instance);
  auto pair_gain = [&](WorkerIndex w, TaskIndex t) {
    return gains.Gain(instance, t, assignment.GroupOf(t), w,
                      task_version[static_cast<size_t>(t)]);
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
    // the first non-improving pair.
    if (top.gain <= 0.0) break;

    assignment.Assign(top.worker, top.task);
    worker_available[static_cast<size_t>(top.worker)] = false;
    ++task_version[static_cast<size_t>(top.task)];
  }
}

}  // namespace casc
