// Learning-rate schedules.
//
// The paper sweeps the learning rate from 0.1 to 0.001 with cosine decay
// without restarts (Loshchilov & Hutter), scaled by worker count per the
// large-batch training guideline (§5.2). Crucially, the schedule always
// spans the *configured* total steps, so 25%/50%/75% step-budget runs sweep
// the entire range in fewer steps (paper §5.2 "Measurement Methodology").
#pragma once

#include <cstdint>

namespace threelc::nn {

// lr(t) = lr_min + (lr_max - lr_min) * 0.5 * (1 + cos(pi * t / T)).
class CosineDecay {
 public:
  CosineDecay(float lr_max, float lr_min, std::int64_t total_steps);
  // Learning rate at training step `step` in [0, total_steps).
  float At(std::int64_t step) const;

 private:
  float lr_max_, lr_min_;
  std::int64_t total_steps_;
};

}  // namespace threelc::nn
