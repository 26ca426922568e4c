// Bitwise oracle for the 3LC codec: a direct scalar transcription of the
// paper's §3.1-3.3 equations, checked byte for byte against ThreeLC's
// payloads, its error-accumulation buffer (through SaveState) and its
// decoder, over edge-case inputs and every ablation option. A second test
// holds the run-time-dispatched kernels to the portable scalar ones.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "compress/three_lc.h"
#include "compress/three_lc_kernels.h"
#include "util/rng.h"

namespace threelc::compress {
namespace {

using tensor::Shape;
using tensor::Tensor;

// ---------- The oracle, written from the paper ----------

struct Oracle {
  float s;
  bool zero_run;
  bool error_accumulation;
  std::vector<float> buffer;  // error accumulation buffer, starts at 0

  std::vector<std::uint8_t> Encode(const std::vector<float>& in) {
    const std::size_t n = in.size();
    if (buffer.size() != n) buffer.assign(n, 0.0f);
    // Step (1): accumulate the input into the buffer.
    std::vector<float> t(n);
    for (std::size_t i = 0; i < n; ++i) {
      t[i] = error_accumulation ? in[i] + buffer[i] : in[i];
    }
    // Eq. 1: M = max|T| * s. A NaN is never greater, so it never wins.
    float max_abs = 0.0f;
    for (const float x : t) {
      if (std::fabs(x) > max_abs) max_abs = std::fabs(x);
    }
    const float m = max_abs * s;
    // Eq. 2: Tq = round(T / M), half away from zero. As |T| <= M, that is
    // sign(T) when |T| >= M/2 and 0 otherwise, compared exactly rather
    // than through the rounded quotient. M == 0 means every T is 0.
    std::vector<int> q(n, 0);
    if (m != 0.0f) {
      for (std::size_t i = 0; i < n; ++i) {
        const int sign = (t[i] > 0.0f) - (t[i] < 0.0f);
        q[i] = std::fabs(t[i]) >= m / 2 ? sign : 0;
      }
    }
    // Steps (a), (b): the buffer keeps T - M * Tq.
    if (error_accumulation) {
      for (std::size_t i = 0; i < n; ++i) {
        buffer[i] = m == 0.0f ? t[i] : t[i] - m * static_cast<float>(q[i]);
      }
    }
    // Step (3), quartic encoding: digits q + 1, five per byte in base 3,
    // the last group padded with digit 1 (a quantized zero, Fig. 3).
    std::vector<std::uint8_t> quartic;
    for (std::size_t g = 0; g * 5 < n; ++g) {
      int byte = 0;
      for (std::size_t j = 0; j < 5; ++j) {
        const std::size_t i = g * 5 + j;
        byte = byte * 3 + (i < n ? q[i] + 1 : 1);
      }
      quartic.push_back(static_cast<std::uint8_t>(byte));
    }
    // Step (4), zero-run encoding: k consecutive 121s (2 <= k <= 14)
    // become byte 243 + k - 2, longer runs split greedily into 14s, and a
    // lone 121 stays.
    std::vector<std::uint8_t> body;
    if (!zero_run) {
      body = quartic;
    } else {
      for (std::size_t i = 0; i < quartic.size();) {
        if (quartic[i] != 121) {
          body.push_back(quartic[i++]);
          continue;
        }
        std::size_t run = 0;
        while (i < quartic.size() && quartic[i] == 121) ++run, ++i;
        for (; run >= 2; run -= std::min<std::size_t>(run, 14)) {
          const std::size_t k = std::min<std::size_t>(run, 14);
          body.push_back(static_cast<std::uint8_t>(243 + k - 2));
        }
        if (run == 1) body.push_back(121);
      }
    }
    // Framing: [f32 M][u32 length][body], little-endian.
    std::vector<std::uint8_t> out(8 + body.size());
    const auto len = static_cast<std::uint32_t>(body.size());
    std::memcpy(out.data(), &m, 4);
    std::memcpy(out.data() + 4, &len, 4);
    std::copy(body.begin(), body.end(), out.begin() + 8);
    return out;
  }

  // Inverse: expand runs, split bytes into base-3 digits d, and
  // dequantize each value to M * (d - 1) (Eq. 3).
  std::vector<float> Decode(const std::vector<std::uint8_t>& payload,
                            std::size_t n) const {
    float m;
    std::memcpy(&m, payload.data(), 4);
    std::vector<std::uint8_t> quartic;
    for (std::size_t i = 8; i < payload.size(); ++i) {
      const std::uint8_t b = payload[i];
      if (zero_run && b >= 243) {
        quartic.insert(quartic.end(), b - 243 + 2, 121);
      } else {
        quartic.push_back(b);
      }
    }
    std::vector<float> out(n);
    for (std::size_t i = 0; i < n; ++i) {
      int b = quartic.at(i / 5);
      for (std::size_t j = i % 5; j < 4; ++j) b /= 3;
      out[i] = m * static_cast<float>(b % 3 - 1);
    }
    return out;
  }
};

// ---------- Inputs ----------

enum class Kind {
  kGaussian,
  kAllZero,
  kZeroRuns,     // zero stretches of 14, 15, 16 groups, one across 80
  kDenormal,     // only denormals and signed zeros: M and M/2 subnormal
  kOneInf,
  kOneNaN,
  kNearOverflow  // |values| ~3e38: M = inf at s = 1.75
};

const char* KindName(Kind k) {
  switch (k) {
    case Kind::kGaussian: return "gaussian";
    case Kind::kAllZero: return "all_zero";
    case Kind::kZeroRuns: return "zero_runs";
    case Kind::kDenormal: return "denormal";
    case Kind::kOneInf: return "one_inf";
    case Kind::kOneNaN: return "one_nan";
    case Kind::kNearOverflow: return "near_overflow";
  }
  return "?";
}

constexpr Kind kKinds[] = {Kind::kGaussian, Kind::kAllZero,
                           Kind::kZeroRuns, Kind::kDenormal,
                           Kind::kOneInf,   Kind::kOneNaN,
                           Kind::kNearOverflow};

std::vector<float> MakeInput(Kind kind, std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = rng.NormalFloat(0.0f, 1.0f);
  auto zero = [&](std::size_t begin, std::size_t count) {
    for (std::size_t i = begin; i < begin + count && i < n; ++i) v[i] = 0.0f;
  };
  switch (kind) {
    case Kind::kGaussian:
      break;
    case Kind::kAllZero:
      zero(0, n);
      break;
    case Kind::kZeroRuns:
      zero(5, 14 * 5);     // groups 1..14
      zero(100, 15 * 5);   // groups 20..34
      zero(200, 16 * 5);   // groups 40..55
      zero(390, 30);       // groups 78..83, across the block at 400
      zero(n > 600 ? n - 600 : 0, 560);
      break;
    case Kind::kDenormal: {
      const float tiny = std::numeric_limits<float>::denorm_min();
      for (auto& x : v) {
        const auto r = rng.Below(5);
        x = r == 0 ? -0.0f : r == 1 ? 0.0f
                           : static_cast<float>(rng.Below(4)) * tiny *
                                 (r == 2 ? -1.0f : 1.0f);
      }
      break;
    }
    case Kind::kOneInf:
      v[rng.Below(n)] = std::numeric_limits<float>::infinity();
      break;
    case Kind::kOneNaN:
      v[n / 2] = std::numeric_limits<float>::quiet_NaN();
      break;
    case Kind::kNearOverflow:
      for (auto& x : v) x = -3e38f + 5e36f * rng.NormalFloat(0.0f, 1.0f);
      break;
  }
  return v;
}

bool SameBits(const float* a, const float* b, std::size_t n,
              std::string* where) {
  for (std::size_t i = 0; i < n; ++i) {
    if (std::memcmp(a + i, b + i, sizeof(float)) != 0) {
      *where = "index " + std::to_string(i) + ": " + std::to_string(a[i]) +
               " vs " + std::to_string(b[i]);
      return false;
    }
  }
  return true;
}

constexpr std::size_t kSizes[] = {1,   4,   5,    6,     79,    80,    81,
                                  159, 160, 161, 5120, 98304, 262145};
constexpr float kSparsities[] = {1.00f, 1.75f, 1.99f};
constexpr int kEncodes = 4;

struct Config {
  bool zero_run;
  bool error_accumulation;
};

class ThreeLCOracle : public ::testing::TestWithParam<Config> {};

TEST_P(ThreeLCOracle, PayloadResidualAndDecodeMatchThePaper) {
  const Config config = GetParam();
  for (const float s : kSparsities) {
    const ThreeLC codec({s, config.zero_run, config.error_accumulation});
    for (const std::size_t n : kSizes) {
      for (const Kind kind : kKinds) {
        SCOPED_TRACE(codec.name() + " n=" + std::to_string(n) + " " +
                     KindName(kind));
        Oracle oracle{s, config.zero_run, config.error_accumulation, {}};
        auto ctx = codec.MakeContext(Shape{static_cast<std::int64_t>(n)});
        for (int e = 0; e < kEncodes; ++e) {
          SCOPED_TRACE("encode " + std::to_string(e));
          const std::vector<float> values = MakeInput(kind, n, 1000 + e);
          const Tensor in(Shape{static_cast<std::int64_t>(n)}, values);

          util::ByteBuffer payload;
          codec.Encode(in, *ctx, payload);
          const std::vector<std::uint8_t> expected = oracle.Encode(values);
          ASSERT_EQ(std::vector<std::uint8_t>(payload.data(),
                                              payload.data() + payload.size()),
                    expected);

          util::ByteBuffer state;
          ctx->SaveState(state);
          util::ByteReader state_reader(state);
          ASSERT_EQ(state_reader.ReadU8(), config.error_accumulation ? 1 : 0);
          ASSERT_EQ(state_reader.ReadU64(),
                    config.error_accumulation ? n : 0u);
          std::string where;
          if (config.error_accumulation) {
            ASSERT_TRUE(SameBits(
                reinterpret_cast<const float*>(
                    state_reader.ReadSpan(n * sizeof(float)).data()),
                oracle.buffer.data(), n, &where))
                << "residual " << where;
          }

          Tensor decoded(in.shape());
          util::ByteReader reader(payload);
          codec.Decode(reader, decoded);
          EXPECT_TRUE(reader.AtEnd());
          const std::vector<float> want = oracle.Decode(expected, n);
          ASSERT_TRUE(SameBits(decoded.data(), want.data(), n, &where))
              << "decode " << where;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Options, ThreeLCOracle,
    ::testing::Values(Config{true, true}, Config{true, false},
                      Config{false, true}, Config{false, false}),
    [](const ::testing::TestParamInfo<Config>& info) {
      return std::string(info.param.zero_run ? "Zre" : "NoZre") +
             (info.param.error_accumulation ? "Ea" : "NoEa");
    });

// ---------- Dispatched kernels == scalar kernels ----------

TEST(ThreeLCKernels, DispatchedMatchesScalarBitwise) {
  const internal::ThreeLCKernels& scalar = internal::ScalarKernels();
  const internal::ThreeLCKernels& fast = internal::Kernels();
  constexpr std::size_t kBlock = internal::kBlockElems;
  for (const std::size_t n : kSizes) {
    for (const Kind kind : kKinds) {
      SCOPED_TRACE("n=" + std::to_string(n) + " " + KindName(kind));
      const std::vector<float> src = MakeInput(kind, n, 7);
      const std::vector<float> start = MakeInput(kind, n, 8);
      std::string where;

      // Pass 1, plain and accumulating.
      std::vector<float> acc_a = start, acc_b = start;
      const float max_a = scalar.accumulate_max_abs(src.data(), nullptr, n);
      const float max_b = fast.accumulate_max_abs(src.data(), nullptr, n);
      ASSERT_TRUE(SameBits(&max_a, &max_b, 1, &where)) << where;
      const float acc_max_a =
          scalar.accumulate_max_abs(src.data(), acc_a.data(), n);
      const float acc_max_b =
          fast.accumulate_max_abs(src.data(), acc_b.data(), n);
      ASSERT_TRUE(SameBits(&acc_max_a, &acc_max_b, 1, &where)) << where;
      ASSERT_TRUE(SameBits(acc_a.data(), acc_b.data(), n, &where)) << where;

      // Pass 2 on every whole block, at each sparsity's M.
      for (const float s : kSparsities) {
        const float m = acc_max_a * s;
        if (m == 0.0f) continue;
        for (std::size_t i = 0; i + kBlock <= n; i += kBlock) {
          ASSERT_EQ(scalar.block_below_half(acc_a.data() + i, m * 0.5f),
                    fast.block_below_half(acc_a.data() + i, m * 0.5f));
          float res_a[kBlock], res_b[kBlock];
          std::uint8_t out_a[internal::kBlockBytes];
          std::uint8_t out_b[internal::kBlockBytes];
          scalar.quantize_block(acc_a.data() + i, m, res_a, out_a);
          fast.quantize_block(acc_a.data() + i, m, res_b, out_b);
          ASSERT_EQ(std::memcmp(out_a, out_b, sizeof out_a), 0) << "i=" << i;
          ASSERT_TRUE(SameBits(res_a, res_b, kBlock, &where)) << where;
        }
      }
    }
  }
}

}  // namespace
}  // namespace threelc::compress
