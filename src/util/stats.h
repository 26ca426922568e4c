// Streaming statistics helpers: running mean/variance and a smoothed average.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>

namespace threelc::util {

// Welford's online mean/variance with min/max tracking.
class RunningStat {
 public:
  void Add(double x);
  void Merge(const RunningStat& other);
  void Reset();

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const { return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0; }
  double stddev() const { return std::sqrt(variance()); }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return mean_ * static_cast<double>(n_); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// Exponential moving average (for smoothed loss curves).
class Ema {
 public:
  explicit Ema(double alpha) : alpha_(alpha) {}
  void Add(double x) {
    value_ = initialized_ ? alpha_ * x + (1.0 - alpha_) * value_ : x;
    initialized_ = true;
  }
  double value() const { return value_; }
  bool initialized() const { return initialized_; }

 private:
  double alpha_;
  double value_ = 0.0;
  bool initialized_ = false;
};

}  // namespace threelc::util
