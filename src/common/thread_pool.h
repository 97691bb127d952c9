#ifndef CASC_COMMON_THREAD_POOL_H_
#define CASC_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace casc {

/// Per-chunk scratch of a fanned-out loop, one cache line each: chunks
/// that append to neighbouring vectors would otherwise write their
/// headers into shared lines on every append.
template <typename T>
struct alignas(64) CacheLinePadded {
  T value;
};

/// Fixed-size thread pool for deterministic data parallelism.
///
/// ParallelFor(count, fn) runs fn(i) for every i in [0, count) and blocks
/// until all are done. Threads claim indices one at a time from a shared
/// atomic counter, so a slow index (a dense shard, a long best-response
/// scan) holds up only the thread running it while the others drain the
/// rest. Which thread runs an index is therefore a matter of timing, and
/// the contract that keeps results reproducible is on the caller: fn(i)
/// must write only state owned by index i and read only state no other
/// index writes. Every result is then a function of the index alone,
/// never of the thread or the claim order, which is what the shard
/// executor, the valid-pair builds and the replication fan-out rely on for
/// bit-identical results at any thread count.
///
/// The calling thread claims indices too; the pool spawns
/// num_threads - 1 workers. A pool constructed with num_threads <= 1 runs
/// everything inline and spawns nothing, so a ThreadPool(1) member is a
/// zero-cost way to keep one code path.
///
/// `fn` must not throw and must not call back into the pool (no nesting).
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// Runs fn(i) for every i in [0, count); returns once all are done.
  void ParallelFor(int64_t count, const std::function<void(int64_t)>& fn);

  /// Chunk `chunk` of a split of [0, count) into `chunks` contiguous
  /// ranges: [count*chunk/chunks, count*(chunk+1)/chunks). Callers that
  /// fan out one ParallelFor index per chunk (to keep per-chunk scratch)
  /// use this so a later pass over the same count realigns with the
  /// per-chunk buffers of an earlier pass.
  static std::pair<int64_t, int64_t> ChunkBounds(int64_t count, int chunks,
                                                 int chunk) {
    const int64_t begin = count * chunk / chunks;
    const int64_t end = count * (chunk + 1) / chunks;
    return {begin, end};
  }

  /// Chunks per pool thread of ChunksFor(): the pool hands chunks out one
  /// at a time, so a few per thread let the fast threads absorb a slow
  /// chunk (a dense SKEW centre, a thread that wakes late).
  static constexpr int kChunksPerThread = 4;

  /// How many ChunkBounds chunks to split `count` items into on `pool`:
  /// one when `pool` is null or has one thread, else as many as leave
  /// each chunk at least `min_chunk` items, at most kChunksPerThread per
  /// thread and at least one.
  static int ChunksFor(const ThreadPool* pool, int64_t count,
                       int64_t min_chunk);

  /// Runs fn(chunk, begin, end) for each chunk of the ChunkBounds split of
  /// [0, count) into `chunks`: inline for one chunk, else on `pool` (which
  /// must then be non-null), under ParallelFor's contract.
  static void RunChunks(
      ThreadPool* pool, int64_t count, int chunks,
      const std::function<void(int, int64_t, int64_t)>& fn);

 private:
  void WorkerLoop();
  /// Claims and runs indices of the current ParallelFor until none is left.
  void RunClaimed();

  int num_threads_;
  std::vector<std::thread> threads_;

  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  uint64_t epoch_ = 0;  // bumped once per ParallelFor
  int pending_ = 0;     // workers still running the current epoch
  bool shutdown_ = false;
  int64_t count_ = 0;
  const std::function<void(int64_t)>* fn_ = nullptr;
  std::atomic<int64_t> next_{0};  // next unclaimed index
};

}  // namespace casc

#endif  // CASC_COMMON_THREAD_POOL_H_
