#include "common/histogram.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/strings.h"

namespace casc {

void SummaryStats::Add(double value) {
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  const double delta = value - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (value - mean_);
}

double SummaryStats::Mean() const { return count_ == 0 ? 0.0 : mean_; }

double SummaryStats::Variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double SummaryStats::StdDev() const { return std::sqrt(Variance()); }

double SummaryStats::StdError() const {
  if (count_ < 2) return 0.0;
  return StdDev() / std::sqrt(static_cast<double>(count_));
}

double SummaryStats::Min() const { return count_ == 0 ? 0.0 : min_; }

double SummaryStats::Max() const { return count_ == 0 ? 0.0 : max_; }

std::string SummaryStats::ToString(int digits) const {
  return FormatDouble(Mean(), digits) + " +- " +
         FormatDouble(StdError(), digits) + " (" +
         FormatDouble(Min(), digits) + ".." + FormatDouble(Max(), digits) +
         ", n=" + std::to_string(count_) + ")";
}

QuantileSketch::QuantileSketch(int capacity) : capacity_(capacity) {
  CASC_CHECK_GE(capacity, 1);
  samples_.reserve(static_cast<size_t>(capacity));
}

void QuantileSketch::Add(double value) {
  // Systematic thinning: once the reservoir fills, double the stride and
  // keep every other retained sample, then admit every stride-th new
  // observation. Deterministic, and the retained set stays an evenly
  // spaced subsequence of the input stream.
  if (count_ % stride_ == 0) {
    if (static_cast<int>(samples_.size()) == capacity_) {
      size_t keep = 0;
      for (size_t i = 0; i < samples_.size(); i += 2) {
        samples_[keep++] = samples_[i];
      }
      samples_.resize(keep);
      stride_ *= 2;
      if (count_ % stride_ == 0) samples_.push_back(value);
    } else {
      samples_.push_back(value);
    }
    sorted_valid_ = false;
  }
  ++count_;
}

double QuantileSketch::Quantile(double p) const {
  CASC_CHECK_GE(p, 0.0);
  CASC_CHECK_LE(p, 1.0);
  if (samples_.empty()) return 0.0;  // n = 0: nothing to summarize
  if (!sorted_valid_) {
    sorted_ = samples_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_valid_ = true;
  }
  // Position p * (n - 1) with linear interpolation between neighbors;
  // n = 1 collapses to the single sample for every p.
  const double position = p * static_cast<double>(sorted_.size() - 1);
  const size_t below = static_cast<size_t>(position);
  if (below + 1 >= sorted_.size()) return sorted_.back();
  const double within = position - static_cast<double>(below);
  return sorted_[below] + within * (sorted_[below + 1] - sorted_[below]);
}

void QuantileSketch::Reset() {
  count_ = 0;
  stride_ = 1;
  samples_.clear();
  sorted_valid_ = false;
}

}  // namespace casc
