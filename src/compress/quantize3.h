// 3-value quantization with sparsity multiplication (paper §3.1).
//
//   M          = max(|T_in|) * s            (Eq. 1), 1 <= s < 2
//   T_q        = round(T_in / M)            (Eq. 2), values in {-1, 0, +1}
//   T_out      = M * T_q                    (Eq. 3)
//
// With s = 1 the maximum magnitude is preserved exactly across
// quantize/dequantize. A larger s shrinks |T_in / M| so more values round
// to zero — a sparser ternary tensor that zero-run encoding compresses
// harder — while dequantization *enlarges* the surviving values, preserving
// the tensor's average magnitude better than threshold sparsification.
//
// Error bound (paper §3.1 "Convergence"): round() adds at most 1/2 of an
// output unit, so max|T_in - T_out| <= M/2 < max(|T_in|) for s < 2.
#pragma once

#include <cstddef>
#include <cstdint>

namespace threelc::compress {

// Minimum/maximum legal sparsity multiplier.
inline constexpr float kMinSparsityMultiplier = 1.0f;
// s must stay strictly below 2 or values at max magnitude quantize to 0 and
// the M/2 < max|T_in| convergence bound breaks.
inline constexpr float kMaxSparsityMultiplier = 2.0f;  // exclusive

// max(|in|) over n floats, +0 when n == 0. A NaN never wins, exactly as in
// the float loop `m = |x| > m ? |x| : m` from m = +0; computed as an
// integer max over the bits with the sign cleared, which vectorizes.
float MaxAbs(const float* in, std::size_t n);

// Quantizes n floats into ternary {-1, 0, +1} int8 values.
// Returns M = max(|in|) * s. When the input is all zeros, M == 0 and the
// output is all zeros. `out` must hold n int8 values.
//
// Rounding is round-half-away-from-zero, computed branch-free as
// (v >= M/2) - (v <= -M/2), which auto-vectorizes.
float Quantize3(const float* in, std::size_t n, float s, std::int8_t* out);

// Dequantizes ternary values: out[i] = M * q[i].
void Dequantize3(const std::int8_t* q, std::size_t n, float M, float* out);

// Quantizes and simultaneously computes the residual error
// (residual[i] = in[i] - M * out[i]) in one pass — the fused kernel used by
// the 3LC codec's error-accumulation step. Returns M.
float Quantize3WithResidual(const float* in, std::size_t n, float s,
                            std::int8_t* out, float* residual);

}  // namespace threelc::compress
