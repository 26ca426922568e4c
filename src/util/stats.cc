#include "util/stats.h"

namespace threelc::util {

void RunningStat::Add(double x) {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void RunningStat::Merge(const RunningStat& o) {
  if (o.n_ == 0) return;
  if (n_ == 0) {
    *this = o;
    return;
  }
  const double delta = o.mean_ - mean_;
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(o.n_);
  const double n = na + nb;
  m2_ += o.m2_ + delta * delta * na * nb / n;
  mean_ += delta * nb / n;
  n_ += o.n_;
  min_ = std::min(min_, o.min_);
  max_ = std::max(max_, o.max_);
}

void RunningStat::Reset() { *this = RunningStat(); }

}  // namespace threelc::util
