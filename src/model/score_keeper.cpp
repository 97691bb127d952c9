#include "model/score_keeper.h"

#include "common/check.h"
#include "model/objective_model.h"

namespace casc {
namespace {

/// The canonical 4-lane accumulator of every keeper affinity sum:
/// element j lands in lane j % 4, skipped elements do not advance j, and
/// the lanes combine as (l0 + l2) + (l1 + l3). Four independent
/// accumulators keep the adds off one serial dependency chain. The order
/// is part of the keeper's output contract: a plain sequential sum
/// rounds differently, which can flip a GT accept decision.
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
  pair_sums_.assign(static_cast<size_t>(instance.num_tasks()), 0.0);
  scores_.assign(static_cast<size_t>(instance.num_tasks()), 0.0);
  total_ = 0.0;
}

double ScoreKeeper::AffinityOverGroup(std::span<const WorkerIndex> group,
                                      WorkerIndex w, WorkerIndex skip,
                                      int* others) const {
  const CooperationMatrix& coop = instance_->coop();
  LaneAcc acc;
  for (const WorkerIndex m : group) {
    if (m == w || m == skip) continue;
    acc.Push(coop.Quality(m, w) + coop.Quality(w, m));
  }
  if (others != nullptr) *others = acc.j;
  return acc.Total();
}

double ScoreKeeper::GroupPairSum(std::span<const WorkerIndex> group) const {
  const int size = static_cast<int>(group.size());
  const CooperationMatrix& coop = instance_->coop();
  double total = 0.0;
  // Canonical pair order: outer index sequential, each inner suffix in
  // lane order.
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

}  // namespace casc
