// Failure-injection tests: decoders must survive corrupted, truncated, and
// adversarial payloads — either throwing a std::exception or producing a
// finite tensor — but never crashing or reading out of bounds.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "compress/factory.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"

namespace threelc::compress {
namespace {

using tensor::Shape;
using tensor::Tensor;

struct FuzzCase {
  const char* label;
  CodecConfig config;
};

class DecodeFuzz : public ::testing::TestWithParam<FuzzCase> {
 protected:
  // Decode and check the result is either an exception or a finite tensor.
  static void TryDecode(const Compressor& codec, util::ByteSpan payload,
                        const Shape& shape) {
    Tensor out(shape);
    util::ByteReader reader(payload);
    try {
      codec.Decode(reader, out);
    } catch (const std::exception&) {
      return;  // rejecting corrupt input is correct behaviour
    }
    // Accepted: every value must at least be a real float.
    for (std::size_t i = 0; i < out.size(); ++i) {
      ASSERT_TRUE(std::isfinite(out[i]) || std::isnan(out[i]) ||
                  std::isinf(out[i]));
    }
  }
};

TEST_P(DecodeFuzz, SingleByteFlips) {
  auto codec = MakeCompressor(GetParam().config);
  util::Rng rng(1);
  Tensor in(Shape{503});
  tensor::FillNormal(in, rng, 0.0f, 0.1f);
  auto ctx = codec->MakeContext(in.shape());
  util::ByteBuffer buf;
  codec->Encode(in, *ctx, buf);

  // Flip each of a sample of byte positions through several values.
  for (std::size_t pos = 0; pos < buf.size();
       pos += std::max<std::size_t>(1, buf.size() / 64)) {
    for (std::uint8_t delta : {0x01, 0x80, 0xFF}) {
      util::ByteBuffer corrupted;
      corrupted.Append(buf.span());
      corrupted.data()[pos] = static_cast<std::uint8_t>(
          corrupted.data()[pos] ^ delta);
      TryDecode(*codec, corrupted.span(), in.shape());
    }
  }
}

TEST_P(DecodeFuzz, Truncations) {
  auto codec = MakeCompressor(GetParam().config);
  util::Rng rng(2);
  Tensor in(Shape{257});
  tensor::FillNormal(in, rng, 0.0f, 1.0f);
  auto ctx = codec->MakeContext(in.shape());
  util::ByteBuffer buf;
  codec->Encode(in, *ctx, buf);
  for (std::size_t len = 0; len < buf.size();
       len += std::max<std::size_t>(1, buf.size() / 32)) {
    util::ByteBuffer truncated;
    truncated.Append(buf.data(), len);
    TryDecode(*codec, truncated.span(), in.shape());
  }
}

TEST_P(DecodeFuzz, RandomGarbage) {
  auto codec = MakeCompressor(GetParam().config);
  util::Rng rng(3);
  for (int trial = 0; trial < 30; ++trial) {
    util::ByteBuffer garbage;
    const std::size_t n = rng.Below(600);
    for (std::size_t i = 0; i < n; ++i) {
      garbage.PushByte(static_cast<std::uint8_t>(rng.Below(256)));
    }
    TryDecode(*codec, garbage.span(), Shape{101});
  }
}

TEST_P(DecodeFuzz, EmptyPayload) {
  auto codec = MakeCompressor(GetParam().config);
  TryDecode(*codec, util::ByteSpan{}, Shape{7});
}

INSTANTIATE_TEST_SUITE_P(
    AllCodecs, DecodeFuzz,
    ::testing::Values(FuzzCase{"float32", CodecConfig::Float32()},
                      FuzzCase{"int8", CodecConfig::EightBit()},
                      FuzzCase{"stoch3", CodecConfig::StochThreeQE()},
                      FuzzCase{"mqe1bit", CodecConfig::MqeOneBit()},
                      FuzzCase{"sparse25", CodecConfig::Sparsification(0.25f)},
                      FuzzCase{"sparse5", CodecConfig::Sparsification(0.05f)},
                      FuzzCase{"local2", CodecConfig::TwoLocalSteps()},
                      FuzzCase{"threelc100", CodecConfig::ThreeLC(1.0f)},
                      FuzzCase{"threelc175", CodecConfig::ThreeLC(1.75f)},
                      FuzzCase{"threelc190", CodecConfig::ThreeLC(1.9f)}),
    [](const ::testing::TestParamInfo<FuzzCase>& info) {
      return info.param.label;
    });

// ---------- Targeted cases for the one-pass ternary decoder ----------

// Codecs whose payload is [f32 M][u32 len][quartic or ZRE bytes].
struct TernaryCase {
  const char* label;
  CodecConfig config;
};

CodecConfig ThreeLCNoZre() {
  CodecConfig c = CodecConfig::ThreeLC(1.0f);
  c.zero_run = false;
  return c;
}

class TernaryDecodeRejects : public ::testing::TestWithParam<TernaryCase> {
 protected:
  static constexpr std::size_t kElements = 52;  // 11 groups, last partial
  static constexpr std::size_t kGroups = 11;

  // [M = 0.5][len][bytes], with len = bytes.size() unless given.
  static util::ByteBuffer Payload(const std::vector<std::uint8_t>& bytes,
                                  std::size_t len = SIZE_MAX) {
    util::ByteBuffer out;
    out.AppendF32(0.5f);
    out.AppendU32(static_cast<std::uint32_t>(len == SIZE_MAX ? bytes.size()
                                                             : len));
    out.Append(bytes.data(), bytes.size());
    return out;
  }

  // Decode must throw std::runtime_error or std::out_of_range; any other
  // outcome fails the test.
  void ExpectRejected(const util::ByteBuffer& payload) const {
    auto codec = MakeCompressor(GetParam().config);
    Tensor out(Shape{static_cast<std::int64_t>(kElements)});
    util::ByteReader reader(payload.span());
    try {
      codec->Decode(reader, out);
      ADD_FAILURE() << "malformed payload decoded without an error";
    } catch (const std::runtime_error&) {
    } catch (const std::out_of_range&) {
    }
  }
};

TEST_P(TernaryDecodeRejects, RunOvershootsTheLastGroupByOne) {
  // 10 literal groups, then a run of 2 (byte 243): 12 groups for 11.
  std::vector<std::uint8_t> bytes(kGroups - 1, 122);
  bytes.push_back(243);
  ExpectRejected(Payload(bytes));
}

TEST_P(TernaryDecodeRejects, RunsFarPastTheEnd) {
  // The first 14-group run already passes the 11 groups; the decoder must
  // stop there rather than fill from past the end.
  ExpectRejected(Payload({255, 255, 255}));
}

TEST_P(TernaryDecodeRejects, StreamOneGroupShort) {
  ExpectRejected(Payload(std::vector<std::uint8_t>(kGroups - 1, 122)));
}

TEST_P(TernaryDecodeRejects, NoZrePayloadContainingByte243) {
  // Right length for bare quartic bytes, but 243 is no quartic byte; read
  // as a run of 2 it makes 12 groups.
  std::vector<std::uint8_t> bytes(kGroups, 122);
  bytes[5] = 243;
  ExpectRejected(Payload(bytes));
}

TEST_P(TernaryDecodeRejects, LengthFieldPastTheBuffer) {
  ExpectRejected(
      Payload(std::vector<std::uint8_t>(kGroups, 122), kGroups + 1));
}

INSTANTIATE_TEST_SUITE_P(
    TernaryCodecs, TernaryDecodeRejects,
    ::testing::Values(
        TernaryCase{"threelc100_zre", CodecConfig::ThreeLC(1.0f)},
        TernaryCase{"threelc100_nozre", ThreeLCNoZre()},
        TernaryCase{"stoch3", CodecConfig::StochThreeQE()}),
    [](const ::testing::TestParamInfo<TernaryCase>& info) {
      return info.param.label;
    });

}  // namespace
}  // namespace threelc::compress
