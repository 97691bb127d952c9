#include "common/thread_pool.h"

#include <algorithm>

#include "common/check.h"

namespace casc {

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(std::max(num_threads, 1)) {
  threads_.reserve(static_cast<size_t>(num_threads_ - 1));
  for (int i = 0; i < num_threads_ - 1; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& thread : threads_) thread.join();
}

int ThreadPool::ChunksFor(const ThreadPool* pool, int64_t count,
                          int64_t min_chunk) {
  if (pool == nullptr || pool->num_threads() <= 1) return 1;
  return static_cast<int>(
      std::clamp<int64_t>(count / std::max<int64_t>(min_chunk, 1), 1,
                          int64_t{pool->num_threads()} * kChunksPerThread));
}

void ThreadPool::RunChunks(
    ThreadPool* pool, int64_t count, int chunks,
    const std::function<void(int, int64_t, int64_t)>& fn) {
  if (chunks <= 1) {
    fn(0, 0, count);
    return;
  }
  CASC_CHECK(pool != nullptr);
  pool->ParallelFor(chunks, [&](int64_t chunk) {
    const auto [begin, end] =
        ChunkBounds(count, chunks, static_cast<int>(chunk));
    fn(static_cast<int>(chunk), begin, end);
  });
}

void ThreadPool::RunClaimed() {
  // count_ and fn_ were published under mutex_ before this epoch began;
  // the claim itself needs only atomicity, not ordering.
  for (;;) {
    const int64_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= count_) return;
    (*fn_)(i);
  }
}

void ThreadPool::ParallelFor(int64_t count,
                             const std::function<void(int64_t)>& fn) {
  if (count <= 0) return;
  if (threads_.empty()) {
    for (int64_t i = 0; i < count; ++i) fn(i);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    CASC_CHECK(fn_ == nullptr) << "ThreadPool::ParallelFor cannot nest";
    fn_ = &fn;
    count_ = count;
    next_.store(0, std::memory_order_relaxed);
    pending_ = static_cast<int>(threads_.size());
    ++epoch_;
  }
  start_cv_.notify_all();
  RunClaimed();
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [this] { return pending_ == 0; });
    fn_ = nullptr;
  }
}

void ThreadPool::WorkerLoop() {
  uint64_t seen_epoch = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      start_cv_.wait(lock, [this, seen_epoch] {
        return shutdown_ || epoch_ != seen_epoch;
      });
      if (shutdown_) return;
      seen_epoch = epoch_;
    }
    RunClaimed();
    bool last = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      last = --pending_ == 0;
    }
    if (last) done_cv_.notify_one();
  }
}

}  // namespace casc
