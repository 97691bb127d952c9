#include "gen/trace.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace casc {
namespace {

/// Samples the arrival times of an inhomogeneous Poisson process with
/// base rate `rate` and the config's rush multipliers, via thinning.
std::vector<double> PoissonArrivals(const TraceConfig& config, double rate,
                                    Rng* rng) {
  double peak = 1.0;
  for (const RushWindow& window : config.rush_windows) {
    peak = std::max(peak, window.multiplier);
  }
  const double peak_rate = rate * peak;
  std::vector<double> arrivals;
  if (peak_rate <= 0.0) return arrivals;
  double t = 0.0;
  for (;;) {
    // Exponential inter-arrival at the peak rate...
    const double u = rng->Uniform();
    t += -std::log(1.0 - u) / peak_rate;
    if (t >= config.horizon) break;
    // ...thinned down to the actual rate at time t.
    const double actual = rate * RateMultiplierAt(config, t);
    if (rng->Uniform() < actual / peak_rate) arrivals.push_back(t);
  }
  return arrivals;
}

}  // namespace

double RateMultiplierAt(const TraceConfig& config, double t) {
  double multiplier = 1.0;
  for (const RushWindow& window : config.rush_windows) {
    if (t >= window.start && t < window.end) {
      multiplier *= window.multiplier;
    }
  }
  return multiplier;
}

TraceCursor::TraceCursor(const TraceConfig& config, Rng* rng)
    : config_(config), rng_(rng) {
  CASC_CHECK(rng_ != nullptr);
  // An infinite rate or horizon would draw arrivals without end.
  CASC_CHECK(std::isfinite(config_.horizon) &&
             std::isfinite(config_.worker_rate) &&
             std::isfinite(config_.task_rate))
      << "trace horizon and rates must be finite";
  CASC_CHECK_GT(config_.horizon, 0.0);
  CASC_CHECK_GE(config_.worker_rate, 0.0);
  CASC_CHECK_GE(config_.task_rate, 0.0);
  for (const RushWindow& window : config_.rush_windows) {
    CASC_CHECK_LE(window.start, window.end);
    CASC_CHECK_GT(window.multiplier, 0.0);
    CASC_CHECK(std::isfinite(window.multiplier))
        << "rush multiplier must be finite";
  }
  worker_times_ = PoissonArrivals(config_, config_.worker_rate, rng_);
  num_workers_ = static_cast<int64_t>(worker_times_.size());
}

bool TraceCursor::NextWorker(Worker* out) {
  CASC_CHECK(out != nullptr);
  if (next_worker_ >= worker_times_.size()) return false;
  *out = GenerateWorker(static_cast<int64_t>(next_worker_), config_.worker,
                        worker_times_[next_worker_], rng_);
  ++next_worker_;
  return true;
}

bool TraceCursor::NextTask(Task* out) {
  CASC_CHECK(out != nullptr);
  if (!task_times_drawn_) {
    CASC_CHECK_EQ(next_worker_, worker_times_.size())
        << "drain the worker stream before the task stream: task arrival "
           "times are drawn after the last worker attribute";
    // The worker times are spent; release them before the task phase so
    // the cursor never holds both vectors.
    worker_times_ = std::vector<double>();
    task_times_ = PoissonArrivals(config_, config_.task_rate, rng_);
    task_times_drawn_ = true;
  }
  if (next_task_ >= task_times_.size()) return false;
  *out = GenerateTask(static_cast<int64_t>(next_task_), config_.task,
                      task_times_[next_task_], rng_);
  ++next_task_;
  return true;
}

Trace GenerateTrace(const TraceConfig& config, Rng* rng) {
  TraceCursor cursor(config, rng);
  Trace trace;
  trace.workers.reserve(static_cast<size_t>(cursor.num_workers()));
  Worker worker;
  while (cursor.NextWorker(&worker)) trace.workers.push_back(worker);
  Task task;
  while (cursor.NextTask(&task)) trace.tasks.push_back(task);
  return trace;
}

}  // namespace casc
