// Tests for the pluggable lossless block-codec subsystem (blockcodec/):
// registry lookups, roundtrips over adversarial and realistic inputs
// (including real 3LC quartic/ZRE wire streams), strict decode behavior
// under fuzzed truncation and corruption, and the wire envelope with its
// skip-if-incompressible escape.
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "blockcodec/block_codec.h"
#include "blockcodec/lz77.h"
#include "blockcodec/rans.h"
#include "compress/factory.h"
#include "tensor/tensor_ops.h"
#include "util/byte_buffer.h"
#include "util/rng.h"

namespace threelc::blockcodec {
namespace {

using util::ByteBuffer;
using util::ByteSpan;

std::vector<std::uint8_t> ToVector(const ByteBuffer& buf) {
  return std::vector<std::uint8_t>(buf.data(), buf.data() + buf.size());
}

std::vector<std::uint8_t> RandomBytes(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.Below(256));
  return v;
}

std::vector<std::uint8_t> RepetitiveBytes(std::size_t n) {
  // "abcabcabc..." with a periodic run of zeros — long matches at several
  // offsets plus a skewed byte histogram.
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = (i % 7 < 4) ? static_cast<std::uint8_t>('a' + i % 3) : 0;
  }
  return v;
}

// A real second-stage input: the 3LC (quartic + ZRE) wire payload of a
// gradient-like tensor, the byte stream the RPC path would hand to the
// block codec.
std::vector<std::uint8_t> QuarticStream(std::size_t elements,
                                        std::uint64_t seed) {
  auto codec =
      compress::MakeCompressor(compress::CodecConfig::ThreeLC(1.0f));
  util::Rng rng(seed);
  tensor::Tensor t(tensor::Shape{static_cast<std::int64_t>(elements)});
  tensor::FillNormal(t, rng, 0.0f, 0.02f);
  auto ctx = codec->MakeContext(t.shape());
  ByteBuffer out;
  codec->Encode(t, *ctx, out);
  return ToVector(out);
}

void ExpectRoundTrip(const BlockCodec& codec,
                     const std::vector<std::uint8_t>& raw) {
  ByteBuffer encoded;
  codec.Encode(ByteSpan(raw.data(), raw.size()), encoded);
  ByteBuffer decoded;
  codec.Decode(encoded.span(), raw.size(), decoded);
  ASSERT_EQ(decoded.size(), raw.size()) << codec.name();
  EXPECT_EQ(ToVector(decoded), raw) << codec.name();
}

TEST(BlockCodecRegistry, FindByNameAndId) {
  for (const BlockCodec* codec : All()) {
    EXPECT_EQ(Find(codec->name()), codec);
    EXPECT_EQ(FindById(codec->id()), codec);
  }
  EXPECT_EQ(Find("store")->id(), kStoreId);
  EXPECT_EQ(Find("lz")->id(), kLzId);
  EXPECT_EQ(Find("rans")->id(), kRansId);
  EXPECT_EQ(Find("lz+rans")->id(), kLzRansId);
}

TEST(BlockCodecRegistry, RejectsUnknownNamesAndIds) {
  EXPECT_EQ(Find("zstd"), nullptr);
  EXPECT_EQ(Find(""), nullptr);
  EXPECT_EQ(Find("LZ"), nullptr);  // names are case-sensitive
  EXPECT_EQ(FindById(4), nullptr);
  EXPECT_EQ(FindById(255), nullptr);
}

TEST(BlockCodecRegistry, KnownNamesListsAll) {
  EXPECT_EQ(KnownNames(), "store|lz|rans|lz+rans");
}

TEST(BlockCodecRoundTrip, EmptyInput) {
  for (const BlockCodec* codec : All()) {
    ExpectRoundTrip(*codec, {});
  }
}

TEST(BlockCodecRoundTrip, OneByte) {
  for (const BlockCodec* codec : All()) {
    ExpectRoundTrip(*codec, {0x5a});
    ExpectRoundTrip(*codec, {0x00});
  }
}

TEST(BlockCodecRoundTrip, IncompressibleRandom) {
  const auto raw = RandomBytes(64 * 1024 + 3, 17);
  for (const BlockCodec* codec : All()) {
    ExpectRoundTrip(*codec, raw);
  }
}

TEST(BlockCodecRoundTrip, HighlyRepetitive) {
  const auto raw = RepetitiveBytes(100000);
  for (const BlockCodec* codec : All()) {
    ExpectRoundTrip(*codec, raw);
  }
  // Repetitive input must actually compress under both stages.
  ByteBuffer lz_out, rans_out;
  Find("lz")->Encode(ByteSpan(raw.data(), raw.size()), lz_out);
  Find("rans")->Encode(ByteSpan(raw.data(), raw.size()), rans_out);
  EXPECT_LT(lz_out.size(), raw.size() / 10);
  EXPECT_LT(rans_out.size(), raw.size());
}

TEST(BlockCodecRoundTrip, AllZeros) {
  const std::vector<std::uint8_t> raw(50000, 0);
  for (const BlockCodec* codec : All()) {
    ExpectRoundTrip(*codec, raw);
  }
}

TEST(BlockCodecRoundTrip, RealQuarticStream) {
  const auto raw = QuarticStream(40000, 23);
  ASSERT_GT(raw.size(), 1000u);
  for (const BlockCodec* codec : All()) {
    ExpectRoundTrip(*codec, raw);
  }
  // §3.3 sanity: an entropy stage finds residual redundancy in the
  // quartic/ZRE stream (skewed byte histogram).
  ByteBuffer rans_out;
  Find("rans")->Encode(ByteSpan(raw.data(), raw.size()), rans_out);
  EXPECT_LT(rans_out.size(), raw.size());
}

TEST(BlockCodecRoundTrip, ManySizesAndSeeds) {
  for (const std::size_t n : {2u, 3u, 7u, 15u, 16u, 255u, 256u, 4097u}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const auto raw = RandomBytes(n, seed);
      for (const BlockCodec* codec : All()) {
        ExpectRoundTrip(*codec, raw);
      }
    }
  }
}

TEST(BlockCodecStrictDecode, WrongDeclaredSizeThrows) {
  const auto raw = RepetitiveBytes(5000);
  for (const BlockCodec* codec : All()) {
    ByteBuffer encoded;
    codec->Encode(ByteSpan(raw.data(), raw.size()), encoded);
    ByteBuffer decoded;
    EXPECT_THROW(codec->Decode(encoded.span(), raw.size() - 1, decoded),
                 std::exception)
        << codec->name();
    ByteBuffer decoded2;
    EXPECT_THROW(codec->Decode(encoded.span(), raw.size() + 1, decoded2),
                 std::exception)
        << codec->name();
  }
}

TEST(BlockCodecStrictDecode, FuzzedTruncationAlwaysThrows) {
  const auto raw = QuarticStream(20000, 5);
  util::Rng rng(99);
  for (const BlockCodec* codec : All()) {
    ByteBuffer encoded;
    codec->Encode(ByteSpan(raw.data(), raw.size()), encoded);
    for (int trial = 0; trial < 50; ++trial) {
      const std::size_t cut = rng.Below(encoded.size());
      ByteBuffer decoded;
      EXPECT_THROW(
          codec->Decode(ByteSpan(encoded.data(), cut), raw.size(), decoded),
          std::exception)
          << codec->name() << " truncated to " << cut;
    }
  }
}

TEST(BlockCodecStrictDecode, TrailingBytesAlwaysThrow) {
  const auto raw = RepetitiveBytes(3000);
  for (const BlockCodec* codec : All()) {
    ByteBuffer encoded;
    codec->Encode(ByteSpan(raw.data(), raw.size()), encoded);
    encoded.PushByte(0x00);
    ByteBuffer decoded;
    EXPECT_THROW(codec->Decode(encoded.span(), raw.size(), decoded),
                 std::exception)
        << codec->name();
  }
}

TEST(BlockCodecStrictDecode, FuzzedCorruptionNeverProducesSilentGarbage) {
  // Flip random bytes in valid streams: decode must either throw or —
  // for codecs without redundancy, like store — produce output whose
  // length still matches. No crash, no overrun (ASan-checked in CI).
  const auto raw = QuarticStream(10000, 7);
  util::Rng rng(1234);
  for (const BlockCodec* codec : All()) {
    ByteBuffer encoded;
    codec->Encode(ByteSpan(raw.data(), raw.size()), encoded);
    for (int trial = 0; trial < 100; ++trial) {
      std::vector<std::uint8_t> mut = ToVector(encoded);
      const std::size_t pos = rng.Below(mut.size());
      mut[pos] ^= static_cast<std::uint8_t>(1 + rng.Below(255));
      ByteBuffer decoded;
      try {
        codec->Decode(ByteSpan(mut.data(), mut.size()), raw.size(), decoded);
        EXPECT_EQ(decoded.size(), raw.size()) << codec->name();
      } catch (const std::exception&) {
        // Expected for most corruptions.
      }
    }
  }
}

TEST(BlockCodecLz, CompressesLongRunsWithExtendedLengths) {
  // > 15 literals and > 19 match bytes force both extension paths.
  std::vector<std::uint8_t> raw = RandomBytes(40, 3);
  raw.insert(raw.end(), 3000, 0xAB);
  raw.insert(raw.end(), raw.begin(), raw.begin() + 100);
  ExpectRoundTrip(*Find("lz"), raw);
  ByteBuffer out;
  lz::Compress(ByteSpan(raw.data(), raw.size()), out);
  EXPECT_LT(out.size(), raw.size() / 2);
}

TEST(BlockCodecLz, RejectsBadOffsets) {
  // token: 1 literal + match; offset 2 with only 1 decoded byte.
  const std::vector<std::uint8_t> bad = {0x10, 0x41, 0x02, 0x00};
  ByteBuffer decoded;
  EXPECT_THROW(lz::Decompress(ByteSpan(bad.data(), bad.size()), 10, decoded),
               std::runtime_error);
  // Offset 0 is never valid.
  const std::vector<std::uint8_t> zero_off = {0x10, 0x41, 0x00, 0x00};
  ByteBuffer decoded2;
  EXPECT_THROW(
      lz::Decompress(ByteSpan(zero_off.data(), zero_off.size()), 10,
                     decoded2),
      std::runtime_error);
}

TEST(BlockCodecRans, RejectsBadFrequencyTable) {
  const auto raw = RepetitiveBytes(1000);
  ByteBuffer encoded;
  rans::Encode(ByteSpan(raw.data(), raw.size()), encoded);
  // Bump one frequency: table no longer sums to the scale.
  std::vector<std::uint8_t> mut = ToVector(encoded);
  mut[0] ^= 0x01;
  ByteBuffer decoded;
  EXPECT_THROW(
      rans::Decode(ByteSpan(mut.data(), mut.size()), raw.size(), decoded),
      std::runtime_error);
}

// A dominant symbol drives the encoder state past 2^31, where a 32-bit
// fixed-point reciprocal stops dividing exactly. 99%-one-symbol streams,
// and the 3LC s=1.00 payload of a 99%-zero tensor (the slow-link block
// stage's input), must still round-trip.
TEST(BlockCodecRans, RoundTripsSkewedStreams) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    util::Rng rng(seed);
    std::vector<std::uint8_t> raw(20000, 0);
    for (auto& b : raw) {
      if (rng.Uniform() < 0.01) b = static_cast<std::uint8_t>(rng.Below(255));
    }
    ExpectRoundTrip(*Find("rans"), raw);
  }
  auto codec = compress::MakeCompressor(compress::CodecConfig::ThreeLC(1.0f));
  util::Rng rng(112);
  tensor::Tensor t(tensor::Shape{98304});
  for (std::int64_t i = 0; i < t.num_elements(); ++i) {
    t.data()[i] = rng.Uniform() < 0.01 ? static_cast<float>(rng.Normal()) : 0;
  }
  auto ctx = codec->MakeContext(t.shape());
  ByteBuffer payload;
  codec->Encode(t, *ctx, payload);
  ExpectRoundTrip(*Find("rans"), ToVector(payload));
}

TEST(BlockEnvelope, RoundTripsAndRecordsCodecId) {
  const auto raw = RepetitiveBytes(10000);
  for (const BlockCodec* codec : All()) {
    ByteBuffer envelope;
    const std::uint8_t used =
        EncodeBlock(*codec, ByteSpan(raw.data(), raw.size()), envelope);
    EXPECT_EQ(used, codec->id());  // repetitive input always compresses
    ByteBuffer decoded;
    DecodeBlock(envelope.span(), raw.size(), decoded);
    EXPECT_EQ(ToVector(decoded), raw) << codec->name();
  }
}

TEST(BlockEnvelope, IncompressibleInputFallsBackToStore) {
  const auto raw = RandomBytes(512, 11);
  ByteBuffer envelope;
  const std::uint8_t used =
      EncodeBlock(*Find("lz+rans"), ByteSpan(raw.data(), raw.size()),
                  envelope);
  EXPECT_EQ(used, kStoreId);
  EXPECT_EQ(envelope.size(), kEnvelopeHeaderBytes + raw.size());
  ByteBuffer decoded;
  DecodeBlock(envelope.span(), raw.size(), decoded);
  EXPECT_EQ(ToVector(decoded), raw);
}

TEST(BlockEnvelope, RejectsUnknownCodecId) {
  ByteBuffer envelope;
  envelope.AppendU8(200);
  envelope.AppendU32(4);
  envelope.AppendU32(0);
  ByteBuffer decoded;
  EXPECT_THROW(DecodeBlock(envelope.span(), 1 << 20, decoded),
               std::runtime_error);
}

TEST(BlockEnvelope, RejectsOversizedDeclaredRawSize) {
  const auto raw = RepetitiveBytes(4096);
  ByteBuffer envelope;
  EncodeBlock(*Find("lz"), ByteSpan(raw.data(), raw.size()), envelope);
  ByteBuffer decoded;
  EXPECT_THROW(DecodeBlock(envelope.span(), raw.size() - 1, decoded),
               std::runtime_error);
}

TEST(BlockEnvelope, RejectsTruncatedHeader) {
  ByteBuffer envelope;
  envelope.AppendU8(kLzId);
  envelope.AppendU16(7);  // half a raw-size field
  ByteBuffer decoded;
  EXPECT_THROW(DecodeBlock(envelope.span(), 1 << 20, decoded),
               std::exception);
}

}  // namespace
}  // namespace threelc::blockcodec
