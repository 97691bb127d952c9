#ifndef CASC_SIM_EVENT_STREAM_H_
#define CASC_SIM_EVENT_STREAM_H_

#include <vector>

#include "model/task.h"
#include "model/worker.h"

namespace casc {

/// A time-ordered stream of worker and task arrivals over an interval
/// Phi, feeding the streaming mode of the batch framework (Algorithm 1):
/// workers appear at their phi_i, tasks at their phi_j, and each batch
/// pulls everything that arrived since the previous batch.
class EventStream {
 public:
  /// Stateful forward reader over one stream (see NewCursor). Batches
  /// advance monotonically in streaming mode, so the cursor replaces the
  /// per-batch binary search + vector copy of the ArrivingIn accessors
  /// with a single forward scan that appends into caller-owned buffers —
  /// the buffers' capacity is reused across batches.
  class Cursor {
   public:
    /// Appends workers with arrival_time in [from, to) and tasks with
    /// create_time in [from, to) onto `workers`/`tasks` (either may be
    /// null to skip that side), and advances past them. Windows must be
    /// non-overlapping and ascending across calls: `from` must be >= the
    /// previous call's `to` (CHECKed), so every event is emitted at most
    /// once. Equivalent to the stateless ArrivingIn accessors over the
    /// same window sequence.
    void NextBatch(double from, double to, std::vector<Worker>* workers,
                   std::vector<Task>* tasks);

    /// True once every event has been emitted.
    bool Exhausted() const;

   private:
    friend class EventStream;
    explicit Cursor(const EventStream* stream) : stream_(stream) {}

    const EventStream* stream_;
    size_t worker_pos_ = 0;
    size_t task_pos_ = 0;
    double emitted_to_ = 0.0;  // upper bound of the last window
    bool started_ = false;
  };

  /// Takes ownership of the arrivals; they are sorted internally by
  /// arrival/creation time.
  EventStream(std::vector<Worker> workers, std::vector<Task> tasks);

  /// Workers with arrival_time in [from, to), in arrival order.
  std::vector<Worker> WorkersArrivingIn(double from, double to) const;

  /// Tasks with create_time in [from, to), in creation order.
  std::vector<Task> TasksArrivingIn(double from, double to) const;

  /// A cursor positioned before the first event. The stream must outlive
  /// the cursor.
  Cursor NewCursor() const { return Cursor(this); }

  /// Earliest event time over the MERGED worker-and-task timeline (the
  /// smaller of the first worker arrival and the first task creation), or
  /// 0 when the stream is empty. A trace whose first event is a task
  /// therefore starts the batch clock at that task's creation time, not
  /// at the first worker's arrival — the streaming loop relies on this to
  /// cover task-only leading intervals.
  double FirstEventTime() const;

  /// Latest event time over the merged worker-and-task timeline (the
  /// larger of the last worker arrival and the last task creation), or 0
  /// when the stream is empty. Task-only trailing intervals are covered:
  /// the streaming loop runs until LastEventTime() + one batch interval.
  double LastEventTime() const;

  size_t num_workers() const { return workers_.size(); }
  size_t num_tasks() const { return tasks_.size(); }

  /// True when the worker `.id` fields are exactly a permutation of
  /// 0..num_workers()-1 — the indexing invariant consumers that look up
  /// cooperation qualities in a global matrix by `.id` (the dispatch
  /// service's streaming loop) rely on. O(num_workers).
  bool HasDenseWorkerIds() const;

 private:
  std::vector<Worker> workers_;  // sorted by arrival_time
  std::vector<Task> tasks_;      // sorted by create_time
};

}  // namespace casc

#endif  // CASC_SIM_EVENT_STREAM_H_
