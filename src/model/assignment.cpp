#include "model/assignment.h"

#include <algorithm>

#include "common/check.h"

namespace casc {

Assignment::Assignment(const Instance& instance) { Reset(instance); }

void Assignment::Reset(const Instance& instance) {
  task_of_.assign(static_cast<size_t>(instance.num_workers()), kNoTask);
  // One slack slot per task lets GT transiently overfill a group while
  // the crowding rule picks the best-subset loser.
  groups_.Reset(instance.task_capacities(), instance.num_workers(),
                /*slack=*/1);
  num_assigned_ = 0;
}

void Assignment::Assign(WorkerIndex w, TaskIndex t) {
  CASC_CHECK_GE(w, 0);
  CASC_CHECK_LT(w, num_workers());
  CASC_CHECK_GE(t, 0);
  CASC_CHECK_LT(t, num_tasks());
  if (task_of_[static_cast<size_t>(w)] == t) return;
  Unassign(w);
  task_of_[static_cast<size_t>(w)] = t;
  groups_.PushBack(t, w);
  ++num_assigned_;
}

void Assignment::Unassign(WorkerIndex w) {
  CASC_CHECK_GE(w, 0);
  CASC_CHECK_LT(w, num_workers());
  const TaskIndex t = task_of_[static_cast<size_t>(w)];
  if (t == kNoTask) return;
  groups_.Erase(t, w);
  task_of_[static_cast<size_t>(w)] = kNoTask;
  --num_assigned_;
}

void Assignment::AdoptSkeleton(std::span<const TaskIndex> seed_task) {
  CASC_CHECK_EQ(static_cast<int>(seed_task.size()), num_workers());
  for (WorkerIndex w = 0; w < num_workers(); ++w) {
    const TaskIndex t = seed_task[static_cast<size_t>(w)];
    if (t != kNoTask) Assign(w, t);
  }
}

TaskIndex Assignment::TaskOf(WorkerIndex w) const {
  CASC_CHECK_GE(w, 0);
  CASC_CHECK_LT(w, num_workers());
  return task_of_[static_cast<size_t>(w)];
}

std::span<const WorkerIndex> Assignment::GroupOf(TaskIndex t) const {
  CASC_CHECK_GE(t, 0);
  CASC_CHECK_LT(t, num_tasks());
  return groups_.Group(t);
}

int Assignment::GroupSize(TaskIndex t) const {
  CASC_CHECK_GE(t, 0);
  CASC_CHECK_LT(t, num_tasks());
  return groups_.size(t);
}

void Assignment::AppendPairs(std::vector<AssignedPair>* out) const {
  CASC_CHECK(out != nullptr);
  out->reserve(out->size() + static_cast<size_t>(num_assigned_));
  ForEachPair(
      [out](WorkerIndex w, TaskIndex t) { out->push_back({w, t}); });
}

std::vector<AssignedPair> Assignment::Pairs() const {
  std::vector<AssignedPair> out;
  AppendPairs(&out);
  return out;
}

Status Assignment::Validate(const Instance& instance) const {
  if (instance.num_workers() != num_workers() ||
      instance.num_tasks() != num_tasks()) {
    return Status::InvalidArgument("assignment shaped for another instance");
  }
  // Map consistency: every group member points back at the task, sizes add
  // up, no duplicates.
  int counted = 0;
  for (TaskIndex t = 0; t < num_tasks(); ++t) {
    const std::span<const WorkerIndex> group = groups_.Group(t);
    for (const WorkerIndex w : group) {
      if (w < 0 || w >= num_workers()) {
        return Status::Internal("group member out of range");
      }
      if (task_of_[static_cast<size_t>(w)] != t) {
        return Status::Internal("worker/task maps disagree");
      }
      ++counted;
    }
    std::vector<WorkerIndex> sorted(group.begin(), group.end());
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
      return Status::Internal("duplicate worker in a task group");
    }
    const int capacity =
        instance.tasks()[static_cast<size_t>(t)].capacity;
    if (static_cast<int>(group.size()) > capacity) {
      return Status::FailedPrecondition(
          "task " + std::to_string(t) + " holds " +
          std::to_string(group.size()) + " workers, capacity " +
          std::to_string(capacity));
    }
  }
  if (counted != num_assigned_) {
    return Status::Internal("assigned-count bookkeeping mismatch");
  }
  // Pair validity (Definition 3).
  for (WorkerIndex w = 0; w < num_workers(); ++w) {
    const TaskIndex t = task_of_[static_cast<size_t>(w)];
    if (t == kNoTask) continue;
    if (!instance.IsValidPair(w, t)) {
      return Status::FailedPrecondition(
          "invalid pair: worker " + std::to_string(w) + ", task " +
          std::to_string(t));
    }
  }
  return Status::Ok();
}

}  // namespace casc
