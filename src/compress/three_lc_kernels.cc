#include "compress/three_lc_kernels.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace threelc::compress::internal {

namespace {

constexpr std::uint32_t kInfBits = 0x7f800000u;
constexpr std::uint32_t kAbsMask = 0x7fffffffu;

// |v| as bits; 0 for a NaN (any pattern above +inf), so NaN never wins.
std::uint32_t AbsBits(float v) {
  std::uint32_t b;
  std::memcpy(&b, &v, sizeof b);
  b &= kAbsMask;
  return b > kInfBits ? 0u : b;
}

float FromBits(std::uint32_t b) {
  float v;
  std::memcpy(&v, &b, sizeof v);
  return v;
}

float AccumulateMaxAbsScalar(const float* src, float* acc, std::size_t n) {
  std::uint32_t m = 0;
  if (acc == nullptr) {
    for (std::size_t i = 0; i < n; ++i) m = std::max(m, AbsBits(src[i]));
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      acc[i] = src[i] + acc[i];
      m = std::max(m, AbsBits(acc[i]));
    }
  }
  return FromBits(m);
}

bool BlockBelowHalfScalar(const float* v, float half) {
  for (std::size_t i = 0; i < kBlockElems; ++i) {
    if (!(std::fabs(v[i]) < half)) return false;
  }
  return true;
}

void QuantizeBlockScalar(const float* v, float m, float* residual,
                         std::uint8_t* out) {
  const float half = m * 0.5f;
  for (std::size_t g = 0; g < kBlockBytes; ++g) {
    unsigned byte = 0;
    for (std::size_t j = 0; j < kQuarticGroup; ++j) {
      const std::size_t i = g * kQuarticGroup + j;
      const float x = v[i];
      const int q = (x >= half) - (x <= -half);
      if (residual != nullptr) residual[i] = x - m * static_cast<float>(q);
      byte = byte * 3 + static_cast<unsigned>(q + 1);
    }
    out[g] = static_cast<std::uint8_t>(byte);
  }
}

#if defined(__x86_64__)
// The AVX2 variants are compiled for AVX2 in these functions only; Kernels()
// returns them after checking the CPU, so the rest of the build keeps its
// baseline ISA. No FMA: v - M*q rounds the product first, as the scalar
// code does.

// Sum of the quartic weights 3^(4-j) of the digits whose bit j is set in a
// 5-bit mask. A group's byte is 121 + W[mask(q=+1)] - W[mask(q=-1)].
constexpr std::array<std::uint8_t, 32> kMaskWeight = [] {
  std::array<std::uint8_t, 32> w{};
  for (unsigned mask = 0; mask < 32; ++mask) {
    unsigned sum = 0;
    for (unsigned j = 0, weight = 81; j < kQuarticGroup; ++j, weight /= 3) {
      if ((mask >> j) & 1u) sum += weight;
    }
    w[mask] = static_cast<std::uint8_t>(sum);
  }
  return w;
}();

__attribute__((target("avx2"))) inline __m256i MaxAbsBits8(__m256i m,
                                                           __m256 v) {
  const __m256i bits = _mm256_and_si256(_mm256_castps_si256(v),
                                        _mm256_set1_epi32(kAbsMask));
  const __m256i nan = _mm256_cmpgt_epi32(
      bits, _mm256_set1_epi32(static_cast<int>(kInfBits)));
  return _mm256_max_epi32(m, _mm256_andnot_si256(nan, bits));
}

__attribute__((target("avx2"))) float AccumulateMaxAbsAvx2(const float* src,
                                                           float* acc,
                                                           std::size_t n) {
  __m256i m = _mm256_setzero_si256();
  std::size_t i = 0;
  if (acc == nullptr) {
    for (; i + 8 <= n; i += 8) m = MaxAbsBits8(m, _mm256_loadu_ps(src + i));
  } else {
    for (; i + 8 <= n; i += 8) {
      const __m256 v =
          _mm256_add_ps(_mm256_loadu_ps(src + i), _mm256_loadu_ps(acc + i));
      _mm256_storeu_ps(acc + i, v);
      m = MaxAbsBits8(m, v);
    }
  }
  std::uint32_t lanes[8];
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes), m);
  std::uint32_t best = AbsBits(AccumulateMaxAbsScalar(
      src + i, acc == nullptr ? nullptr : acc + i, n - i));
  for (const std::uint32_t lane : lanes) best = std::max(best, lane);
  return FromBits(best);
}

__attribute__((target("avx2"))) bool BlockBelowHalfAvx2(const float* v,
                                                        float half) {
  const __m256 abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(kAbsMask));
  const __m256 vhalf = _mm256_set1_ps(half);
  __m256 below = _mm256_castsi256_ps(_mm256_set1_epi32(-1));
  for (std::size_t k = 0; k < kBlockElems; k += 8) {
    const __m256 a = _mm256_and_ps(_mm256_loadu_ps(v + k), abs_mask);
    below = _mm256_and_ps(below, _mm256_cmp_ps(a, vhalf, _CMP_LT_OQ));
  }
  return _mm256_movemask_ps(below) == 0xff;
}

__attribute__((target("avx2"))) void QuantizeBlockAvx2(const float* v,
                                                       float m,
                                                       float* residual,
                                                       std::uint8_t* out) {
  const float half = m * 0.5f;
  const __m256 vm = _mm256_set1_ps(m);
  const __m256 vhalf = _mm256_set1_ps(half);
  const __m256 vneg_half = _mm256_set1_ps(-half);
  const __m256 one = _mm256_set1_ps(1.0f);
  // Two halves of 40 values: 8 whole groups each, whose compare bits fit
  // one u64 per sign.
  constexpr std::size_t kHalf = kBlockElems / 2;
  for (std::size_t h = 0; h < kBlockElems; h += kHalf) {
    std::uint64_t pos = 0, neg = 0;
    for (std::size_t k = 0; k < kHalf; k += 8) {
      const __m256 x = _mm256_loadu_ps(v + h + k);
      const __m256 ge = _mm256_cmp_ps(x, vhalf, _CMP_GE_OQ);
      const __m256 le = _mm256_cmp_ps(x, vneg_half, _CMP_LE_OQ);
      if (residual != nullptr) {
        // q as a float: (+1 or 0) - (+1 or 0), exactly float(q).
        const __m256 q =
            _mm256_sub_ps(_mm256_and_ps(ge, one), _mm256_and_ps(le, one));
        _mm256_storeu_ps(residual + h + k,
                         _mm256_sub_ps(x, _mm256_mul_ps(vm, q)));
      }
      pos |= static_cast<std::uint64_t>(_mm256_movemask_ps(ge)) << k;
      neg |= static_cast<std::uint64_t>(_mm256_movemask_ps(le)) << k;
    }
    std::uint8_t* dst = out + h / kQuarticGroup;
    for (std::size_t g = 0; g < kHalf / kQuarticGroup; ++g) {
      const unsigned shift = static_cast<unsigned>(g * kQuarticGroup);
      dst[g] = static_cast<std::uint8_t>(kQuarticZeroByte +
                                         kMaskWeight[(pos >> shift) & 31u] -
                                         kMaskWeight[(neg >> shift) & 31u]);
    }
  }
}

constexpr ThreeLCKernels kAvx2{AccumulateMaxAbsAvx2, BlockBelowHalfAvx2,
                               QuantizeBlockAvx2};
#endif

constexpr ThreeLCKernels kScalar{AccumulateMaxAbsScalar, BlockBelowHalfScalar,
                                 QuantizeBlockScalar};

const ThreeLCKernels& ChooseKernels() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) return kAvx2;
#endif
  return kScalar;
}

}  // namespace

const ThreeLCKernels& ScalarKernels() { return kScalar; }

const ThreeLCKernels& Kernels() {
  static const ThreeLCKernels& kernels = ChooseKernels();
  return kernels;
}

}  // namespace threelc::compress::internal
