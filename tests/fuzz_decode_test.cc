// Failure-injection tests: decoders must survive corrupted, truncated, and
// adversarial payloads — either throwing a std::exception or producing a
// finite tensor — but never crashing or reading out of bounds. The disk
// decoders (server snapshots and step records) are held to the same bar
// on files their own encoders wrote.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "compress/factory.h"
#include "nn/checkpoint.h"
#include "tensor/tensor_ops.h"
#include "train/model_zoo.h"
#include "util/crc32.h"
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

namespace threelc::nn {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

// Seeded corruptions of `pristine`, each written to `path` and handed to
// `load`, which must either succeed or throw std::runtime_error (anything
// else escapes and fails the test). A trial truncates the file (one in
// four), flips one to three bytes, and then, half the time, re-seals the
// CRC32C trailer over the corrupt body, so the corruption reaches the
// parser's structural checks instead of stopping at the checksum.
template <typename Load>
void FuzzFile(const std::string& pristine, const std::string& path,
              std::uint64_t seed, Load&& load) {
  util::Rng rng(seed);
  for (int trial = 0; trial < 300; ++trial) {
    std::string bytes = pristine;
    if (rng.Below(4) == 0) bytes.resize(rng.Below(bytes.size()));
    const std::uint64_t flips = 1 + rng.Below(3);
    for (std::uint64_t f = 0; f < flips && !bytes.empty(); ++f) {
      bytes[rng.Below(bytes.size())] ^=
          static_cast<char>(1 + rng.Below(255));
    }
    // Magic + version (8 bytes) precede the CRC-covered body.
    if (rng.Below(2) == 0 && bytes.size() >= 12) {
      const std::uint32_t crc =
          util::Crc32c(bytes.data() + 8, bytes.size() - 12);
      std::memcpy(bytes.data() + bytes.size() - 4, &crc, sizeof(crc));
    }
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    try {
      load(path);
    } catch (const std::runtime_error&) {
      // rejecting corrupt input is correct behaviour
    }
  }
  std::remove(path.c_str());
}

util::ByteBuffer Bytes(std::size_t n, std::uint8_t seed) {
  util::ByteBuffer b;
  for (std::size_t i = 0; i < n; ++i) {
    b.PushByte(static_cast<std::uint8_t>(seed + 13 * i));
  }
  return b;
}

TEST(DiskDecodeFuzz, StepRecord) {
  StepRecord record;
  record.epoch = 2;
  record.evicted = {0, 0, 1};
  record.greeted = {1, 1, 1};
  for (std::uint64_t s = 0; s < 3; ++s) {
    StepRecord::Step step;
    step.step = 40 + s;
    step.lr = 0.01f * static_cast<float>(s + 1);
    step.contributors = {0, 1};
    step.pushes.resize(3);
    for (std::size_t w : step.contributors) {
      step.pushes[w] = {Bytes(9 + s, static_cast<std::uint8_t>(w)),
                        Bytes(3, static_cast<std::uint8_t>(s))};
    }
    record.steps.push_back(step);
  }
  util::ByteBuffer blob;
  EncodeStepRecord(record, &blob);
  const std::string pristine(reinterpret_cast<const char*>(blob.data()),
                             blob.size());
  FuzzFile(pristine, ::testing::TempDir() + "/fuzz_record.bin", 11,
           [](const std::string& path) {
             StepRecord loaded;
             LoadStepRecord(&loaded, path);
           });
}

TEST(DiskDecodeFuzz, ServerSnapshot) {
  auto model = train::BuildMlp({6, {8}, 3, true}, 3);
  ServerState state;
  state.epoch = 2;
  state.next_step = 9;
  state.ps_state = {1, 2, 3, 4};
  state.evicted = {0, 1};
  state.greeted = {1, 1};
  state.replay.push_back({7, {Bytes(6, 1), Bytes(2, 2)}});
  state.replay.push_back({8, {Bytes(4, 3), Bytes(5, 4)}});
  const std::string path = ::testing::TempDir() + "/fuzz_snapshot.sckpt";
  SaveServerCheckpoint(model, state, path);
  FuzzFile(ReadFile(path), path, 12, [&model](const std::string& p) {
    ServerState loaded;
    LoadServerCheckpoint(model, &loaded, p);
  });
}

}  // namespace
}  // namespace threelc::nn
