// Streaming statistics used by the experiment harness.
//
// RunningStats uses Welford's algorithm so multi-thousand-round sweeps stay
// numerically stable.
#pragma once

#include <cstdint>

namespace qip {

/// Welford single-pass mean/variance with min/max tracking.
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);

  std::uint64_t count() const { return n_; }
  bool empty() const { return n_ == 0; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Unbiased sample variance (0 for fewer than two samples).
  double variance() const;
  double stddev() const;
  /// Standard error of the mean.
  double sem() const;
  /// Half-width of the normal-approximation 95% confidence interval.
  double ci95() const { return 1.96 * sem(); }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return n_ ? mean_ * static_cast<double>(n_) : 0.0; }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace qip
