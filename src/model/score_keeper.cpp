#include "model/score_keeper.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "kernel/affinity_kernels.h"
#include "kernel/coop_tile.h"
#include "model/objective_model.h"

namespace casc {
namespace {

/// Pair-affinity tick bound when no tile is attached: qualities live in
/// [0, 1], so any s(w, m) = q_w(m) + q_m(w) is at most 2.0 = 2^33 ticks.
constexpr int64_t kNoTileTicks = int64_t{1} << 33;

/// The canonical 4-lane accumulator of src/kernel/affinity_kernels.h in
/// scalar form: element j lands in lane j % 4, skipped elements do not
/// advance j, and the lanes combine as (l0 + l2) + (l1 + l3). Keeping
/// the tile-less paths on this exact order is what makes attaching a
/// tile bit-neutral.
struct LaneAcc {
  double lanes[4] = {0.0, 0.0, 0.0, 0.0};
  int j = 0;
  void Push(double v) {
    lanes[j & 3] += v;
    ++j;
  }
  double Total() const {
    return (lanes[0] + lanes[2]) + (lanes[1] + lanes[3]);
  }
};

}  // namespace

ScoreKeeper::ScoreKeeper(const Instance& instance) { Rebind(instance); }

ScoreKeeper::ScoreKeeper(const Instance& instance,
                         const Assignment& assignment) {
  Rebind(instance);
  Sync(assignment);
}

void ScoreKeeper::Rebind(const Instance& instance) {
  instance_ = &instance;
  assignment_ = nullptr;
  tile_ = nullptr;
  pair_sums_.assign(static_cast<size_t>(instance.num_tasks()), 0.0);
  scores_.assign(static_cast<size_t>(instance.num_tasks()), 0.0);
  bound_ticks_.assign(static_cast<size_t>(instance.num_tasks()), 0);
  total_ = 0.0;
}

void ScoreKeeper::AttachTile(const CoopTile* tile) {
  if (tile == nullptr || !tile->built()) {
    tile_ = nullptr;
    return;
  }
  CASC_CHECK(instance_ != nullptr) << "Rebind() before AttachTile()";
  CASC_CHECK_EQ(tile->num_workers(), instance_->num_workers())
      << "tile built over a different worker set";
  tile_ = tile;
}

int64_t ScoreKeeper::WorkerTicks(WorkerIndex w) const {
  return tile_ != nullptr ? tile_->PrmTicks(w) : kNoTileTicks;
}

double ScoreKeeper::AffinityOverGroup(std::span<const WorkerIndex> group,
                                      WorkerIndex w, WorkerIndex skip,
                                      int* others) const {
  const int size = static_cast<int>(group.size());
  if (tile_ != nullptr) {
    bool needs_skip = false;
    for (const WorkerIndex m : group) {
      if (m == w || m == skip) {
        needs_skip = true;
        break;
      }
    }
    const double* row = tile_->PairRow(w);
    if (!needs_skip) {
      // The group is free of w/skip: a blind gather matches the
      // skip-aware lane order exactly.
      if (others != nullptr) *others = size;
      return RowSumKernel(row, group.data(), size);
    }
    LaneAcc acc;
    for (const WorkerIndex m : group) {
      if (m == w || m == skip) continue;
      acc.Push(row[m]);
    }
    if (others != nullptr) *others = acc.j;
    return acc.Total();
  }
  const CooperationMatrix& coop = instance_->coop();
  LaneAcc acc;
  for (const WorkerIndex m : group) {
    if (m == w || m == skip) continue;
    // Same double as the tile's s(w, m): the two-way add commutes
    // bit-for-bit.
    acc.Push(coop.Quality(m, w) + coop.Quality(w, m));
  }
  if (others != nullptr) *others = acc.j;
  return acc.Total();
}

double ScoreKeeper::GroupPairSum(std::span<const WorkerIndex> group) const {
  const int size = static_cast<int>(group.size());
  if (tile_ != nullptr) {
    return PairSumKernel(tile_->pair_plane(), tile_->stride(), group.data(),
                         size);
  }
  const CooperationMatrix& coop = instance_->coop();
  double total = 0.0;
  // Canonical pair order: outer index sequential, each inner suffix in
  // lane order — exactly PairSumKernel's reduction.
  for (int a = 0; a + 1 < size; ++a) {
    LaneAcc acc;
    for (int b = a + 1; b < size; ++b) {
      acc.Push(coop.Quality(group[a], group[b]) +
               coop.Quality(group[b], group[a]));
    }
    total += acc.Total();
  }
  return total;
}

void ScoreKeeper::Sync(const Assignment& assignment) {
  CASC_CHECK(instance_ != nullptr) << "Rebind() before Sync()";
  CASC_CHECK_EQ(assignment.num_tasks(), instance_->num_tasks());
  assignment_ = &assignment;
  total_ = 0.0;
  for (TaskIndex t = 0; t < instance_->num_tasks(); ++t) {
    const std::span<const WorkerIndex> group = assignment.GroupOf(t);
    pair_sums_[static_cast<size_t>(t)] = GroupPairSum(group);
    int64_t ticks = 0;
    for (const WorkerIndex member : group) ticks += WorkerTicks(member);
    bound_ticks_[static_cast<size_t>(t)] = ticks;
    scores_[static_cast<size_t>(t)] = GroupScoreFromSum(
        t, pair_sums_[static_cast<size_t>(t)],
        static_cast<int>(group.size()), kNoWorker, kNoWorker);
    total_ += scores_[static_cast<size_t>(t)];
  }
}

double ScoreKeeper::GroupScoreFromSum(TaskIndex t, double pair_sum, int size,
                                      WorkerIndex extra,
                                      WorkerIndex without) const {
  if (size < instance_->min_group_size()) return 0.0;
  const int capacity =
      instance_->tasks()[static_cast<size_t>(t)].capacity;
  CASC_CHECK_LE(size, capacity)
      << "ScoreKeeper does not evaluate over-capacity groups";
  const std::span<const WorkerIndex> members =
      assignment_ != nullptr ? assignment_->GroupOf(t)
                             : std::span<const WorkerIndex>{};
  return instance_->objective().ScoreGroup(*instance_, t, members, extra,
                                           without, pair_sum, size);
}

double ScoreKeeper::ScoreFromSumWithMembers(
    TaskIndex t, double pair_sum, int size,
    std::span<const WorkerIndex> members) const {
  if (size < instance_->min_group_size()) return 0.0;
  const int capacity =
      instance_->tasks()[static_cast<size_t>(t)].capacity;
  CASC_CHECK_LE(size, capacity)
      << "ScoreKeeper does not evaluate over-capacity groups";
  return instance_->objective().ScoreGroup(*instance_, t, members, kNoWorker,
                                           kNoWorker, pair_sum, size);
}

void ScoreKeeper::Add(WorkerIndex w, TaskIndex t) {
  CASC_CHECK(assignment_ != nullptr) << "Sync() before mutating";
  int others = 0;
  const double added =
      AffinityOverGroup(assignment_->GroupOf(t), w, kNoWorker, &others);
  pair_sums_[static_cast<size_t>(t)] += added;
  bound_ticks_[static_cast<size_t>(t)] += WorkerTicks(w);
  total_ -= scores_[static_cast<size_t>(t)];
  scores_[static_cast<size_t>(t)] = GroupScoreFromSum(
      t, pair_sums_[static_cast<size_t>(t)], others + 1, w, kNoWorker);
  total_ += scores_[static_cast<size_t>(t)];
}

void ScoreKeeper::Remove(WorkerIndex w, TaskIndex t) {
  CASC_CHECK(assignment_ != nullptr) << "Sync() before mutating";
  int others = 0;
  const double removed =
      AffinityOverGroup(assignment_->GroupOf(t), w, kNoWorker, &others);
  pair_sums_[static_cast<size_t>(t)] -= removed;
  bound_ticks_[static_cast<size_t>(t)] -= WorkerTicks(w);
  total_ -= scores_[static_cast<size_t>(t)];
  scores_[static_cast<size_t>(t)] = GroupScoreFromSum(
      t, pair_sums_[static_cast<size_t>(t)], others, kNoWorker, w);
  total_ += scores_[static_cast<size_t>(t)];
}

double ScoreKeeper::TaskScore(TaskIndex t) const {
  CASC_CHECK_GE(t, 0);
  CASC_CHECK_LT(t, instance_->num_tasks());
  return scores_[static_cast<size_t>(t)];
}

double ScoreKeeper::TaskPairSum(TaskIndex t) const {
  CASC_CHECK_GE(t, 0);
  CASC_CHECK_LT(t, instance_->num_tasks());
  return pair_sums_[static_cast<size_t>(t)];
}

std::span<const WorkerIndex> ScoreKeeper::GroupOf(TaskIndex t) const {
  CASC_CHECK_GE(t, 0);
  CASC_CHECK_LT(t, instance_->num_tasks());
  if (assignment_ == nullptr) return {};
  return assignment_->GroupOf(t);
}

double ScoreKeeper::ScoreIfAdded(WorkerIndex w, TaskIndex t) const {
  return total_ + GainIfJoined(w, t);
}

double ScoreKeeper::ScoreIfRemoved(WorkerIndex w, TaskIndex t) const {
  return total_ - LossIfLeft(w, t);
}

double ScoreKeeper::GainIfJoined(WorkerIndex w, TaskIndex t) const {
  int others = 0;
  const double added = AffinityOverGroup(GroupOf(t), w, kNoWorker, &others);
  const double new_score = GroupScoreFromSum(
      t, pair_sums_[static_cast<size_t>(t)] + added, others + 1, w,
      kNoWorker);
  return new_score - scores_[static_cast<size_t>(t)];
}

void ScoreKeeper::GainsIfJoined(WorkerIndex w,
                                std::span<const TaskIndex> tasks,
                                double* out) const {
  const int n = static_cast<int>(tasks.size());
  if (tile_ == nullptr || n == 0) {
    for (int i = 0; i < n; ++i) out[i] = GainIfJoined(w, tasks[i]);
    return;
  }
  // One gathered RowSumMany call covers every candidate group that
  // does not contain w (the common case — a worker is a member of at
  // most one group); the rest fall back to the skip-aware scalar path.
  thread_local std::vector<const int*> ptrs;
  thread_local std::vector<int> lens;
  thread_local std::vector<int> slots;
  thread_local std::vector<double> sums;
  ptrs.clear();
  lens.clear();
  slots.clear();
  for (int i = 0; i < n; ++i) {
    const std::span<const WorkerIndex> group = GroupOf(tasks[i]);
    bool contains = false;
    for (const WorkerIndex m : group) {
      if (m == w) {
        contains = true;
        break;
      }
    }
    if (contains) {
      out[i] = GainIfJoined(w, tasks[i]);
      continue;
    }
    ptrs.push_back(group.data());
    lens.push_back(static_cast<int>(group.size()));
    slots.push_back(i);
  }
  sums.resize(ptrs.size());
  RowSumMany(tile_->PairRow(w), ptrs.data(), lens.data(),
             static_cast<int>(ptrs.size()), sums.data());
  for (size_t k = 0; k < slots.size(); ++k) {
    const int i = slots[k];
    const TaskIndex t = tasks[static_cast<size_t>(i)];
    out[i] = GroupScoreFromSum(t, pair_sums_[static_cast<size_t>(t)] +
                                      sums[k],
                               lens[k] + 1, w, kNoWorker) -
             scores_[static_cast<size_t>(t)];
  }
}

double ScoreKeeper::JoinBound(WorkerIndex w, TaskIndex t) const {
  const std::span<const WorkerIndex> group = GroupOf(t);
  const int g = static_cast<int>(group.size());
  // Joining an empty group, or one that stays below B, nets exactly 0
  // (both scores are 0 by Equation 2's threshold).
  if (g == 0 || g + 1 < instance_->min_group_size()) return 0.0;
  // Two valid upper bounds on w's affinity to the group — every pair is
  // at most w's row maximum AND at most the member's row maximum — taken
  // at their (exact, integer) minimum.
  const int64_t aff_ticks =
      std::min(static_cast<int64_t>(g) * WorkerTicks(w),
               bound_ticks_[static_cast<size_t>(t)]);
  // Exact: |aff_ticks| < 2^53, so the double conversion and the
  // power-of-two scale are both rounding-free.
  const double aff_ub = std::ldexp(static_cast<double>(aff_ticks), -32);
  // New size g + 1 is at most the capacity (GainIfJoined's own
  // precondition), so the default Equation-2 divisor is (g + 1) - 1 = g;
  // both the numerator add and the divide are monotone in aff_ub,
  // keeping the bound sound in floating point. The objective's
  // BoundFromSum ceilings the *joined* score; subtracting the cached
  // (objective-correct) current score keeps the gain bound admissible
  // for any variant whose scores never exceed the cooperation term.
  const double new_score = instance_->objective().BoundFromSum(
      *instance_, t, pair_sums_[static_cast<size_t>(t)] + aff_ub, g + 1);
  return new_score - scores_[static_cast<size_t>(t)];
}

double ScoreKeeper::LossIfLeft(WorkerIndex w, TaskIndex t) const {
  const std::span<const WorkerIndex> group = GroupOf(t);
  int others = 0;
  const double removed = AffinityOverGroup(group, w, kNoWorker, &others);
  CASC_CHECK(static_cast<size_t>(others) + 1 == group.size())
      << "worker " << w << " not on task " << t;
  const double new_score = GroupScoreFromSum(
      t, pair_sums_[static_cast<size_t>(t)] - removed, others, kNoWorker, w);
  return scores_[static_cast<size_t>(t)] - new_score;
}

double ScoreKeeper::AffinityTo(TaskIndex t, WorkerIndex w,
                               WorkerIndex skip) const {
  return AffinityOverGroup(GroupOf(t), w, skip, nullptr);
}

void ScoreKeeper::ApplyDelta(TaskIndex t, double delta, int new_size,
                             std::span<const WorkerIndex> members) {
  pair_sums_[static_cast<size_t>(t)] += delta;
  total_ -= scores_[static_cast<size_t>(t)];
  scores_[static_cast<size_t>(t)] = ScoreFromSumWithMembers(
      t, pair_sums_[static_cast<size_t>(t)], new_size, members);
  total_ += scores_[static_cast<size_t>(t)];
}

void ScoreKeeper::ShiftBoundTicks(TaskIndex t, int64_t delta) {
  bound_ticks_[static_cast<size_t>(t)] += delta;
  CASC_DCHECK(bound_ticks_[static_cast<size_t>(t)] >= 0);
}

}  // namespace casc
