#include "nn/layer.h"

#include <cmath>

#include "tensor/tensor_ops.h"

namespace threelc::nn {

void HeInit(Tensor& w, std::int64_t fan_in, util::Rng& rng) {
  const float stddev = std::sqrt(2.0f / static_cast<float>(fan_in));
  tensor::FillNormal(w, rng, 0.0f, stddev);
}

void GlorotInit(Tensor& w, std::int64_t fan_in, std::int64_t fan_out,
                util::Rng& rng) {
  const float a =
      std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
  tensor::FillUniform(w, rng, -a, a);
}

}  // namespace threelc::nn
