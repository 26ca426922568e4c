#include "nn/lr_schedule.h"

#include <cmath>
#include <numbers>

#include "util/logging.h"

namespace threelc::nn {

CosineDecay::CosineDecay(float lr_max, float lr_min, std::int64_t total_steps)
    : lr_max_(lr_max), lr_min_(lr_min), total_steps_(total_steps) {
  THREELC_CHECK(total_steps >= 1);
}

float CosineDecay::At(std::int64_t step) const {
  if (step >= total_steps_) return lr_min_;
  if (step < 0) step = 0;
  const double t = static_cast<double>(step) / static_cast<double>(total_steps_);
  const double cos_term = 0.5 * (1.0 + std::cos(std::numbers::pi * t));
  return static_cast<float>(lr_min_ + (lr_max_ - lr_min_) * cos_term);
}

}  // namespace threelc::nn
