// The 3LC encoder's hot loops (three_lc.cc), compiled once for the
// baseline ISA and once for AVX2, with the variant chosen once per process
// from the CPU (as util::Crc32cExtend chooses SSE4.2).
//
// Both variants compute the same values bit for bit: the same IEEE
// operations on the same operands in the same order, with no FMA (the
// build passes -ffp-contract=off) and no reassociation. Only the order of
// the max-abs reduction differs, and an integer max is order-free.
#pragma once

#include <cstddef>
#include <cstdint>

#include "compress/quartic.h"

namespace threelc::compress::internal {

// Elements per encode block: 80 values pack into 16 quartic bytes.
inline constexpr std::size_t kBlockElems = 80;
inline constexpr std::size_t kBlockBytes = kBlockElems / kQuarticGroup;

struct ThreeLCKernels {
  // Encode pass 1. When `acc` is non-null, first acc[i] = src[i] + acc[i].
  // Returns max |x| over the resulting values (acc, or src when acc is
  // null), computed as an integer max over the bits with the sign cleared.
  // A NaN never wins, so the result equals the float loop
  // `m = |x| > m ? |x| : m` from m = +0.
  float (*accumulate_max_abs)(const float* src, float* acc, std::size_t n);
  // True when every one of the kBlockElems values has |v| < half. The
  // compare is ordered, so a NaN makes it false.
  bool (*block_below_half)(const float* v, float half);
  // Quantizes kBlockElems values against M (paper Eq. 2): q = +1 iff
  // v >= M/2, -1 iff v <= -M/2, else 0. Writes the kBlockBytes quartic
  // bytes to `out` and, when `residual` is non-null, residual[i] =
  // v[i] - M * q[i]. `residual` may alias `v`.
  void (*quantize_block)(const float* v, float m, float* residual,
                         std::uint8_t* out);
};

// The portable variant: the fallback, and the reference in tests.
const ThreeLCKernels& ScalarKernels();
// AVX2 when the CPU has it, else ScalarKernels(). Chosen on first call.
const ThreeLCKernels& Kernels();

}  // namespace threelc::compress::internal
