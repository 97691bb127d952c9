#include "model/valid_pair_index.h"

#include <atomic>

#include "common/check.h"

namespace casc {
namespace {

std::atomic<int64_t> g_reallocs{0};

/// Counts a growth event when the upcoming size would exceed capacity.
template <typename T>
void NoteGrowth(const std::vector<T>& v, size_t upcoming) {
  if (upcoming > v.capacity()) {
    g_reallocs.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace

void ValidPairIndex::BeginBuild(int num_workers, int num_tasks) {
  CASC_CHECK_GE(num_workers, 0);
  CASC_CHECK_GE(num_tasks, 0);
  ready_ = false;
  building_ = true;
  expected_workers_ = num_workers;
  built_workers_ = 0;
  NoteGrowth(task_offsets_, static_cast<size_t>(num_workers) + 1);
  task_offsets_.clear();
  task_offsets_.reserve(static_cast<size_t>(num_workers) + 1);
  task_offsets_.push_back(0);
  task_flat_.clear();
  NoteGrowth(worker_offsets_, static_cast<size_t>(num_tasks) + 1);
  worker_offsets_.assign(static_cast<size_t>(num_tasks) + 1, 0);
  worker_flat_.clear();
}

void ValidPairIndex::AppendValidTask(TaskIndex t) {
  CASC_CHECK(building_);
  CASC_CHECK_GE(t, 0);
  CASC_CHECK_LT(t, static_cast<int>(worker_offsets_.size()) - 1);
  CASC_CHECK(task_flat_.size() ==
                 static_cast<size_t>(task_offsets_.back()) ||
             task_flat_.back() < t)
      << "valid tasks must be appended in ascending order per worker";
  NoteGrowth(task_flat_, task_flat_.size() + 1);
  task_flat_.push_back(t);
}

void ValidPairIndex::FinishWorker() {
  CASC_CHECK(building_);
  CASC_CHECK_LT(built_workers_, expected_workers_);
  task_offsets_.push_back(static_cast<int32_t>(task_flat_.size()));
  ++built_workers_;
}

void ValidPairIndex::DeriveTaskMajor() {
  // Counting pass: worker_offsets_[t + 1] accumulates |candidates of t|,
  // then a prefix sum turns counts into CSR offsets.
  for (const TaskIndex t : task_flat_) {
    ++worker_offsets_[static_cast<size_t>(t) + 1];
  }
  for (size_t t = 1; t < worker_offsets_.size(); ++t) {
    worker_offsets_[t] += worker_offsets_[t - 1];
  }
  NoteGrowth(worker_flat_, task_flat_.size());
  worker_flat_.resize(task_flat_.size());
  NoteGrowth(cursor_, worker_offsets_.size());
  cursor_.assign(worker_offsets_.begin(), worker_offsets_.end());
  for (int w = 0; w < expected_workers_; ++w) {
    const int32_t begin = task_offsets_[static_cast<size_t>(w)];
    const int32_t end = task_offsets_[static_cast<size_t>(w) + 1];
    for (int32_t i = begin; i < end; ++i) {
      const TaskIndex t = task_flat_[static_cast<size_t>(i)];
      worker_flat_[static_cast<size_t>(cursor_[static_cast<size_t>(t)]++)] =
          static_cast<WorkerIndex>(w);
    }
  }
}

void ValidPairIndex::FinishBuild() {
  CASC_CHECK(building_);
  CASC_CHECK_EQ(built_workers_, expected_workers_)
      << "every worker's row must be finished before FinishBuild()";
  DeriveTaskMajor();
  building_ = false;
  ready_ = true;
}

int32_t* ValidPairIndex::StartParallelBuild(int num_workers, int num_tasks) {
  CASC_CHECK_GE(num_workers, 0);
  CASC_CHECK_GE(num_tasks, 0);
  ready_ = false;
  building_ = true;
  expected_workers_ = num_workers;
  built_workers_ = num_workers;  // the caller fills every row itself
  NoteGrowth(task_offsets_, static_cast<size_t>(num_workers) + 1);
  task_offsets_.resize(static_cast<size_t>(num_workers) + 1);
  task_flat_.clear();
  NoteGrowth(worker_offsets_, static_cast<size_t>(num_tasks) + 1);
  worker_offsets_.assign(static_cast<size_t>(num_tasks) + 1, 0);
  worker_flat_.clear();
  return task_offsets_.data();
}

TaskIndex* ValidPairIndex::AllocateParallelFlat() {
  CASC_CHECK(building_);
  const size_t total = static_cast<size_t>(task_offsets_.back());
  NoteGrowth(task_flat_, total);
  task_flat_.resize(total);
  return task_flat_.data();
}

void ValidPairIndex::FinishParallelBuild() {
  CASC_CHECK(building_);
  CASC_CHECK_EQ(task_flat_.size(), static_cast<size_t>(task_offsets_.back()))
      << "AllocateParallelFlat() must run after the offsets are final";
  for (size_t w = 1; w < task_offsets_.size(); ++w) {
    CASC_CHECK_GE(task_offsets_[w], task_offsets_[w - 1])
        << "parallel-built offsets must be monotone";
  }
  CASC_CHECK_EQ(task_offsets_.front(), 0);
  DeriveTaskMajor();
  building_ = false;
  ready_ = true;
}

std::span<const TaskIndex> ValidPairIndex::ValidTasks(WorkerIndex w) const {
  CASC_CHECK(ready_);
  CASC_CHECK_GE(w, 0);
  CASC_CHECK_LT(w, num_workers());
  const int32_t begin = task_offsets_[static_cast<size_t>(w)];
  const int32_t end = task_offsets_[static_cast<size_t>(w) + 1];
  return {task_flat_.data() + begin, static_cast<size_t>(end - begin)};
}

size_t ValidPairIndex::ValidTaskOffset(WorkerIndex w) const {
  CASC_CHECK(ready_);
  CASC_CHECK_GE(w, 0);
  CASC_CHECK_LT(w, num_workers());
  return static_cast<size_t>(task_offsets_[static_cast<size_t>(w)]);
}

std::span<const WorkerIndex> ValidPairIndex::Candidates(TaskIndex t) const {
  CASC_CHECK(ready_);
  CASC_CHECK_GE(t, 0);
  CASC_CHECK_LT(t, num_tasks());
  const int32_t begin = worker_offsets_[static_cast<size_t>(t)];
  const int32_t end = worker_offsets_[static_cast<size_t>(t) + 1];
  return {worker_flat_.data() + begin, static_cast<size_t>(end - begin)};
}

bool ValidPairIndex::SameAs(const ValidPairIndex& other) const {
  return ready_ && other.ready_ && task_offsets_ == other.task_offsets_ &&
         task_flat_ == other.task_flat_ &&
         worker_offsets_ == other.worker_offsets_ &&
         worker_flat_ == other.worker_flat_;
}

void ValidPairIndex::Clear() {
  ready_ = false;
  building_ = false;
  expected_workers_ = 0;
  built_workers_ = 0;
  task_offsets_.clear();
  task_flat_.clear();
  worker_offsets_.clear();
  worker_flat_.clear();
}

int64_t ValidPairIndex::TotalReallocs() {
  return g_reallocs.load(std::memory_order_relaxed);
}

}  // namespace casc
