#ifndef CASC_COMMON_HISTOGRAM_H_
#define CASC_COMMON_HISTOGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

namespace casc {

/// Streaming summary statistics (count / mean / variance via Welford,
/// min / max) used by the experiment harness to report per-batch
/// dispersion, not just totals.
class SummaryStats {
 public:
  /// Folds one observation in.
  void Add(double value);

  int64_t Count() const { return count_; }
  double Mean() const;
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double Variance() const;
  double StdDev() const;
  /// Standard error of the mean; 0 for fewer than two samples.
  double StdError() const;
  double Min() const;
  double Max() const;

  /// "mean ± stderr (min..max, n=count)" with the given precision.
  std::string ToString(int digits = 3) const;

 private:
  int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Fixed-capacity quantile estimator: a deterministic reservoir that
/// keeps the first `capacity` observations exactly and then thins to
/// every k-th observation (systematic sampling — no RNG, so identical
/// input streams always produce identical quantiles). Exact while the
/// sample count stays at or below the capacity, which covers the
/// intended uses (per-batch network round-trip times: tens to a few
/// thousand observations). Companion to SummaryStats where a mean and
/// extremes are not enough.
class QuantileSketch {
 public:
  /// `capacity` >= 1 samples are retained.
  explicit QuantileSketch(int capacity = 1024);

  void Add(double value);

  /// Total observations folded in (not the retained count).
  int64_t Count() const { return count_; }

  /// Value at quantile `p` in [0, 1] with linear interpolation between
  /// retained order statistics: p = 0 is the minimum retained sample,
  /// p = 1 the maximum, and with n = 0 the sketch returns 0.0 (there is
  /// nothing to summarize); n = 1 returns the single sample for every p.
  double Quantile(double p) const;

  /// Drops all samples (capacity kept).
  void Reset();

 private:
  int capacity_;
  int64_t count_ = 0;
  int64_t stride_ = 1;  ///< keep every stride-th observation once full
  std::vector<double> samples_;
  mutable std::vector<double> sorted_;  ///< lazily rebuilt scratch
  mutable bool sorted_valid_ = false;
};

}  // namespace casc

#endif  // CASC_COMMON_HISTOGRAM_H_
