#ifndef CASC_GEN_TRACE_H_
#define CASC_GEN_TRACE_H_

#include <vector>

#include "common/rng.h"
#include "gen/synthetic.h"
#include "model/task.h"
#include "model/worker.h"

namespace casc {

/// A window during which arrival rates are multiplied (rush hours,
/// lunchtime spikes, ...).
struct RushWindow {
  double start = 0.0;
  double end = 0.0;
  double multiplier = 1.0;
};

/// Configuration of a continuous-time arrival trace for the streaming
/// batch framework (Algorithm 1): workers and tasks arrive as
/// inhomogeneous Poisson processes over [0, horizon).
struct TraceConfig {
  double horizon = 12.0;      ///< length of the simulated interval Phi
  double worker_rate = 30.0;  ///< base worker arrivals per time unit
  double task_rate = 12.0;    ///< base task creations per time unit
  std::vector<RushWindow> rush_windows;  ///< applied to both processes
  WorkerGenConfig worker;     ///< per-worker attribute sampling
  TaskGenConfig task;         ///< per-task attribute sampling
};

/// A generated trace. Worker ids are 0..workers.size()-1 (the contract
/// DispatchService::Run expects for cooperation-matrix indexing);
/// task ids are 0..tasks.size()-1. Both are sorted by arrival time.
struct Trace {
  std::vector<Worker> workers;
  std::vector<Task> tasks;
};

/// Effective arrival-rate multiplier at time `t` under `config`
/// (product of all covering rush windows; 1.0 outside them).
double RateMultiplierAt(const TraceConfig& config, double t);

/// Streams a trace event by event instead of materializing the full
/// Worker/Task vectors. Only the arrival-time vectors are held (8 bytes
/// per event); each record's attributes are sampled on the call that
/// yields it. Draw-for-draw identical to GenerateTrace for the same
/// (config, rng state): the constructor replays its exact rng phase
/// order — all worker arrival times (thinning draws included), then
/// per-worker attributes in id order, then all task times, then
/// per-task attributes — so draining the cursor reproduces the trace
/// bit for bit. The benchmark's streaming workloads feed arrivals straight
/// into the event stream through this cursor.
class TraceCursor {
 public:
  /// Validates `config` and draws the worker arrival times. `rng` must
  /// outlive the cursor.
  TraceCursor(const TraceConfig& config, Rng* rng);

  /// Yields the next worker (ids 0..num_workers()-1, ascending arrival
  /// time). Returns false when the worker stream is exhausted.
  bool NextWorker(Worker* out);

  /// Yields the next task. The worker stream must be exhausted first
  /// (CHECK): task arrival times are drawn after the last worker
  /// attribute, matching GenerateTrace's draw order. The worker-time
  /// vector is released at that point.
  bool NextTask(Task* out);

  int64_t num_workers() const { return num_workers_; }

 private:
  TraceConfig config_;
  Rng* rng_;
  std::vector<double> worker_times_;
  std::vector<double> task_times_;
  int64_t num_workers_ = 0;
  size_t next_worker_ = 0;
  size_t next_task_ = 0;
  bool task_times_drawn_ = false;
};

/// Samples a trace. Arrival times come from Poisson thinning against the
/// peak rate, so rush windows genuinely concentrate arrivals.
/// Deterministic for a given (config, rng state). Implemented as a
/// TraceCursor drain, so the two are equivalent by construction.
Trace GenerateTrace(const TraceConfig& config, Rng* rng);

}  // namespace casc

#endif  // CASC_GEN_TRACE_H_
