#include "compress/quantize3.h"

#include "compress/three_lc_kernels.h"
#include "util/logging.h"

namespace threelc::compress {

float MaxAbs(const float* in, std::size_t n) {
  return internal::Kernels().accumulate_max_abs(in, nullptr, n);
}

float Quantize3(const float* in, std::size_t n, float s, std::int8_t* out) {
  THREELC_CHECK_MSG(s >= kMinSparsityMultiplier && s < kMaxSparsityMultiplier,
                    "sparsity multiplier out of [1, 2): " << s);
  const float M = MaxAbs(in, n) * s;
  if (M == 0.0f) {
    for (std::size_t i = 0; i < n; ++i) out[i] = 0;
    return 0.0f;
  }
  const float half = M * 0.5f;
  for (std::size_t i = 0; i < n; ++i) {
    const float v = in[i];
    // round(v / M) for |v| <= M: +1 iff v >= M/2, -1 iff v <= -M/2, else 0.
    out[i] = static_cast<std::int8_t>((v >= half) - (v <= -half));
  }
  return M;
}

void Dequantize3(const std::int8_t* q, std::size_t n, float M, float* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = M * static_cast<float>(q[i]);
  }
}

float Quantize3WithResidual(const float* in, std::size_t n, float s,
                            std::int8_t* out, float* residual) {
  THREELC_CHECK_MSG(s >= kMinSparsityMultiplier && s < kMaxSparsityMultiplier,
                    "sparsity multiplier out of [1, 2): " << s);
  const float M = MaxAbs(in, n) * s;
  if (M == 0.0f) {
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = 0;
      residual[i] = in[i];  // exactly zero inputs, but keep the general form
    }
    return 0.0f;
  }
  const float half = M * 0.5f;
  for (std::size_t i = 0; i < n; ++i) {
    const float v = in[i];
    const std::int8_t q = static_cast<std::int8_t>((v >= half) - (v <= -half));
    out[i] = q;
    residual[i] = v - M * static_cast<float>(q);
  }
  return M;
}

}  // namespace threelc::compress
