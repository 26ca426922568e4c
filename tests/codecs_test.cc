// Tests for the baseline codecs (paper §5.1) and the generic codec
// contract every design must satisfy.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "compress/compressor.h"
#include "compress/eight_bit.h"
#include "compress/factory.h"
#include "compress/local_steps.h"
#include "compress/mqe_one_bit.h"
#include "compress/none.h"
#include "compress/quartic.h"
#include "compress/sparsify.h"
#include "compress/stoch_three.h"
#include "compress/three_lc.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"

namespace threelc::compress {
namespace {

using tensor::Shape;
using tensor::Tensor;

Tensor RandomTensor(Shape shape, std::uint64_t seed, float stddev = 1.0f) {
  util::Rng rng(seed);
  Tensor t(std::move(shape));
  tensor::FillNormal(t, rng, 0.0f, stddev);
  return t;
}

// ---------- Float32 (baseline) ----------

TEST(Float32Codec, ExactRoundTrip) {
  Float32 codec;
  Tensor in = RandomTensor(Shape{257}, 1);
  auto ctx = codec.MakeContext(in.shape());
  Tensor out = RoundTrip(codec, in, *ctx);
  EXPECT_EQ(tensor::MaxAbsDiff(in, out), 0.0f);
  EXPECT_FALSE(codec.lossy());
}

TEST(Float32Codec, PayloadIsFourBytesPerValue) {
  Float32 codec;
  Tensor in(Shape{100});
  auto ctx = codec.MakeContext(in.shape());
  util::ByteBuffer buf;
  codec.Encode(in, *ctx, buf);
  EXPECT_EQ(buf.size(), 400u);
}

// ---------- 8-bit int ----------

TEST(EightBit, PayloadIsOneBytePerValuePlusScale) {
  EightBitInt codec;
  Tensor in = RandomTensor(Shape{100}, 2);
  auto ctx = codec.MakeContext(in.shape());
  util::ByteBuffer buf;
  codec.Encode(in, *ctx, buf);
  EXPECT_EQ(buf.size(), 104u);
}

TEST(EightBit, QuantizationErrorBounded) {
  EightBitInt codec;
  Tensor in = RandomTensor(Shape{1000}, 3);
  auto ctx = codec.MakeContext(in.shape());
  Tensor out = RoundTrip(codec, in, *ctx);
  const float m = tensor::MaxAbs(in);
  // Max error is half a quantization bucket: M / 127 / 2.
  EXPECT_LE(tensor::MaxAbsDiff(in, out), m / 127.0f / 2.0f + 1e-6f);
}

TEST(EightBit, MaxMagnitudePreserved) {
  EightBitInt codec;
  Tensor in(Shape{3}, {-2.0f, 1.0f, 0.5f});
  auto ctx = codec.MakeContext(in.shape());
  Tensor out = RoundTrip(codec, in, *ctx);
  EXPECT_FLOAT_EQ(out[0], -2.0f);
}

TEST(EightBit, ZeroTensorStaysZero) {
  EightBitInt codec;
  Tensor in(Shape{64});
  auto ctx = codec.MakeContext(in.shape());
  Tensor out = RoundTrip(codec, in, *ctx);
  EXPECT_EQ(tensor::MaxAbs(out), 0.0f);
}

TEST(EightBit, Uses255Levels) {
  // Values -m and +m map to -127 and +127; -128 never appears.
  EightBitInt codec;
  Tensor in(Shape{2}, {-1.0f, 1.0f});
  auto ctx = codec.MakeContext(in.shape());
  util::ByteBuffer buf;
  codec.Encode(in, *ctx, buf);
  util::ByteReader r(buf);
  r.ReadF32();
  EXPECT_EQ(static_cast<std::int8_t>(r.ReadU8()), -127);
  EXPECT_EQ(static_cast<std::int8_t>(r.ReadU8()), 127);
}

// ---------- Stochastic 3-value + QE ----------

TEST(StochThree, PayloadMatchesQuarticSize) {
  StochThreeValueQE codec(1);
  Tensor in = RandomTensor(Shape{1000}, 4);
  auto ctx = codec.MakeContext(in.shape());
  util::ByteBuffer buf;
  codec.Encode(in, *ctx, buf);
  EXPECT_EQ(buf.size(), 8u + 200u);  // M + len + ceil(1000/5)
}

TEST(StochThree, IsUnbiasedEstimator) {
  // Mean of repeated quantizations approaches the input value.
  StochThreeValueQE codec(2);
  Tensor in(Shape{4}, {0.5f, -0.25f, 1.0f, 0.0f});
  auto ctx = codec.MakeContext(in.shape());
  Tensor mean(in.shape());
  const int trials = 4000;
  for (int t = 0; t < trials; ++t) {
    Tensor out = RoundTrip(codec, in, *ctx);
    tensor::Add(mean, out);
  }
  tensor::Scale(mean, 1.0f / static_cast<float>(trials));
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_NEAR(mean[i], in[i], 0.05) << "at " << i;
  }
}

TEST(StochThree, MaxValueAlwaysTransmitted) {
  // |v| == M has selection probability 1.
  StochThreeValueQE codec(3);
  Tensor in(Shape{2}, {1.0f, -0.1f});
  auto ctx = codec.MakeContext(in.shape());
  for (int t = 0; t < 20; ++t) {
    Tensor out = RoundTrip(codec, in, *ctx);
    EXPECT_FLOAT_EQ(out[0], 1.0f);
  }
}

TEST(StochThree, DifferentContextsUseDifferentStreams) {
  StochThreeValueQE codec(4);
  // Varied magnitudes so selection probabilities are strictly in (0, 1).
  Tensor in = RandomTensor(Shape{100}, 42, 0.3f);
  auto ctx1 = codec.MakeContext(in.shape());
  auto ctx2 = codec.MakeContext(in.shape());
  util::ByteBuffer b1, b2;
  codec.Encode(in, *ctx1, b1);
  codec.Encode(in, *ctx2, b2);
  EXPECT_FALSE(b1 == b2);  // same input, independent randomness
}

// ---------- MQE 1-bit ----------

TEST(MqeOneBit, PayloadIsOneBitPerValuePlusTwoScales) {
  MqeOneBit codec;
  Tensor in = RandomTensor(Shape{80}, 5);
  auto ctx = codec.MakeContext(in.shape());
  util::ByteBuffer buf;
  codec.Encode(in, *ctx, buf);
  EXPECT_EQ(buf.size(), 8u + 10u);
}

TEST(MqeOneBit, DequantizesToPartitionMeans) {
  MqeOneBit codec;
  Tensor in(Shape{4}, {1.0f, 3.0f, -2.0f, -4.0f});
  auto ctx = codec.MakeContext(in.shape());
  Tensor out = RoundTrip(codec, in, *ctx);
  EXPECT_FLOAT_EQ(out[0], 2.0f);   // mean of {1, 3}
  EXPECT_FLOAT_EQ(out[1], 2.0f);
  EXPECT_FLOAT_EQ(out[2], -3.0f);  // mean of {-2, -4}
  EXPECT_FLOAT_EQ(out[3], -3.0f);
}

TEST(MqeOneBit, MeanIsPreservedExactly) {
  // Partition-mean dequantization preserves the tensor sum (first encode,
  // zero residual): sum(out) == sum(in).
  MqeOneBit codec;
  Tensor in = RandomTensor(Shape{1001}, 6);
  auto ctx = codec.MakeContext(in.shape());
  Tensor out = RoundTrip(codec, in, *ctx);
  EXPECT_NEAR(tensor::Sum(out), tensor::Sum(in), 1e-2);
}

TEST(MqeOneBit, ErrorFeedbackRecoversMass) {
  MqeOneBit codec;
  Tensor in = RandomTensor(Shape{300}, 7, 0.1f);
  auto ctx = codec.MakeContext(in.shape());
  Tensor accumulated(in.shape());
  const int steps = 60;
  for (int i = 0; i < steps; ++i) {
    Tensor out = RoundTrip(codec, in, *ctx);
    tensor::Add(accumulated, out);
  }
  Tensor expected = in;
  tensor::Scale(expected, static_cast<float>(steps));
  const double rel = tensor::Rmse(accumulated, expected) /
                     (tensor::MaxAbs(expected) + 1e-12);
  EXPECT_LT(rel, 0.1);
}

TEST(MqeOneBit, AllPositiveTensor) {
  MqeOneBit codec;
  Tensor in(Shape{3}, {1.0f, 2.0f, 3.0f});
  auto ctx = codec.MakeContext(in.shape());
  Tensor out = RoundTrip(codec, in, *ctx);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_FLOAT_EQ(out[i], 2.0f);
}

// ---------- Sparsification ----------

TEST(Sparsify, NameMatchesPaperLabels) {
  EXPECT_EQ(Sparsify({0.25f, 1024, 1}).name(), "25% sparsification");
  EXPECT_EQ(Sparsify({0.05f, 1024, 1}).name(), "5% sparsification");
}

TEST(Sparsify, SelectsApproximatelyRequestedFraction) {
  SparsifyOptions opt;
  opt.fraction = 0.25f;
  Sparsify codec(opt);
  Tensor in = RandomTensor(Shape{20000}, 8);
  auto ctx = codec.MakeContext(in.shape());
  util::ByteBuffer buf;
  codec.Encode(in, *ctx, buf);
  util::ByteReader r(buf);
  const std::uint32_t count = r.ReadU32();
  EXPECT_NEAR(static_cast<double>(count) / 20000.0, 0.25, 0.05);
}

TEST(Sparsify, TransmittedValuesAreTheLargest) {
  SparsifyOptions opt;
  opt.fraction = 0.05f;
  Sparsify codec(opt);
  Tensor in = RandomTensor(Shape{10000}, 9);
  auto ctx = codec.MakeContext(in.shape());
  Tensor out = RoundTrip(codec, in, *ctx);
  // Every transmitted (nonzero) output must be at least as large as the
  // largest dropped value, up to sampling-threshold slack.
  float min_sent = 1e30f, max_dropped = 0.0f;
  for (std::size_t i = 0; i < in.size(); ++i) {
    if (out[i] != 0.0f) {
      min_sent = std::min(min_sent, std::fabs(out[i]));
    } else {
      max_dropped = std::max(max_dropped, std::fabs(in[i]));
    }
  }
  EXPECT_GT(min_sent * 1.5f, max_dropped);  // sampled threshold slack
}

TEST(Sparsify, SentValuesAreExact) {
  Sparsify codec({0.25f, 1024, 2});
  Tensor in = RandomTensor(Shape{1000}, 10);
  auto ctx = codec.MakeContext(in.shape());
  Tensor out = RoundTrip(codec, in, *ctx);
  for (std::size_t i = 0; i < in.size(); ++i) {
    if (out[i] != 0.0f) EXPECT_FLOAT_EQ(out[i], in[i]);
  }
}

TEST(Sparsify, UnsentValuesAccumulateAndSendLater) {
  Sparsify codec({0.25f, 1024, 3});
  // One dominant value, others small: small ones accumulate until large.
  Tensor in(Shape{8}, {10.0f, 1.0f, 1.0f, 1.0f, 1.0f, 1.0f, 1.0f, 1.0f});
  auto ctx = codec.MakeContext(in.shape());
  Tensor total(in.shape());
  for (int step = 0; step < 40; ++step) {
    Tensor out = RoundTrip(codec, in, *ctx);
    tensor::Add(total, out);
  }
  // After 40 steps each small coordinate must have transmitted most of its
  // accumulated 40.0 mass.
  for (std::size_t i = 1; i < 8; ++i) {
    EXPECT_GT(total[i], 25.0f) << "at " << i;
  }
}

TEST(Sparsify, BitmapOverheadIsOneBitPerValue) {
  Sparsify codec({0.05f, 1024, 4});
  Tensor in = RandomTensor(Shape{8000}, 11);
  auto ctx = codec.MakeContext(in.shape());
  util::ByteBuffer buf;
  codec.Encode(in, *ctx, buf);
  util::ByteReader r(buf);
  const std::uint32_t count = r.ReadU32();
  EXPECT_EQ(buf.size(), 4u + 1000u + count * 4u);
}

// ---------- Local steps ----------

TEST(LocalSteps, SkipStepsSendOneByte) {
  LocalSteps codec(2);
  Tensor in = RandomTensor(Shape{100}, 12);
  auto ctx = codec.MakeContext(in.shape());
  util::ByteBuffer buf;
  codec.Encode(in, *ctx, buf);  // step 1: skip
  EXPECT_EQ(buf.size(), 1u);
  buf.Clear();
  codec.Encode(in, *ctx, buf);  // step 2: send
  EXPECT_EQ(buf.size(), 1u + 400u);
}

TEST(LocalSteps, AccumulatedSumTransmitted) {
  LocalSteps codec(2);
  Tensor a = RandomTensor(Shape{50}, 13);
  Tensor b = RandomTensor(Shape{50}, 14);
  auto ctx = codec.MakeContext(a.shape());
  Tensor skip = RoundTrip(codec, a, *ctx);
  EXPECT_EQ(tensor::MaxAbs(skip), 0.0f);
  Tensor sent = RoundTrip(codec, b, *ctx);
  Tensor expected = a;
  tensor::Add(expected, b);
  EXPECT_LT(tensor::MaxAbsDiff(sent, expected), 1e-6f);
}

TEST(LocalSteps, NoMassLostOverManySteps) {
  LocalSteps codec(3);
  util::Rng rng(15);
  auto ctx = codec.MakeContext(Shape{20});
  Tensor total_in(Shape{20}), total_out(Shape{20});
  for (int step = 0; step < 30; ++step) {  // multiple of period: all flushed
    Tensor in = RandomTensor(Shape{20}, 100 + step);
    tensor::Add(total_in, in);
    Tensor out = RoundTrip(codec, in, *ctx);
    tensor::Add(total_out, out);
  }
  EXPECT_LT(tensor::MaxAbsDiff(total_in, total_out), 1e-4f);
}

// ---------- Factory & generic contract ----------

TEST(Factory, Table1DesignsHaveElevenRows) {
  EXPECT_EQ(Table1Designs().size(), 11u);
}

TEST(Factory, NamesMatchPaperTable1) {
  const std::vector<std::string> expected = {
      "32-bit float",       "8-bit int",          "Stoch 3-value + QE",
      "MQE 1-bit int",      "25% sparsification", "5% sparsification",
      "2 local steps",      "3LC (s=1)",          "3LC (s=1.5)",
      "3LC (s=1.75)",       "3LC (s=1.9)"};
  auto designs = Table1Designs();
  ASSERT_EQ(designs.size(), expected.size());
  for (std::size_t i = 0; i < designs.size(); ++i) {
    EXPECT_EQ(MakeCompressor(designs[i])->name(), expected[i]);
  }
}

struct CodecCase {
  const char* label;
  CodecConfig config;
};

void PrintTo(const CodecCase& c, std::ostream* os) { *os << c.label; }

class CodecContract : public ::testing::TestWithParam<CodecCase> {};

TEST_P(CodecContract, DecodeConsumesExactlyOnePayload) {
  auto codec = MakeCompressor(GetParam().config);
  Tensor in = RandomTensor(Shape{123}, 20);
  auto ctx = codec->MakeContext(in.shape());
  util::ByteBuffer buf;
  codec->Encode(in, *ctx, buf);
  buf.AppendU32(0xFEEDFACE);  // trailing data must not be consumed
  util::ByteReader reader(buf);
  Tensor out(in.shape());
  codec->Decode(reader, out);
  EXPECT_EQ(reader.remaining(), 4u);
}

TEST_P(CodecContract, OutputShapeMatchesInput) {
  auto codec = MakeCompressor(GetParam().config);
  Tensor in = RandomTensor(Shape{7, 13}, 21);
  auto ctx = codec->MakeContext(in.shape());
  Tensor out = RoundTrip(*codec, in, *ctx);
  EXPECT_EQ(out.shape(), in.shape());
}

TEST_P(CodecContract, HandlesSingleElementTensor) {
  auto codec = MakeCompressor(GetParam().config);
  Tensor in(Shape{1}, {0.5f});
  auto ctx = codec->MakeContext(in.shape());
  Tensor out = RoundTrip(*codec, in, *ctx);
  EXPECT_EQ(out.num_elements(), 1);
}

TEST_P(CodecContract, HandlesZeroTensor) {
  auto codec = MakeCompressor(GetParam().config);
  Tensor in(Shape{64});
  auto ctx = codec->MakeContext(in.shape());
  Tensor out = RoundTrip(*codec, in, *ctx);
  EXPECT_EQ(tensor::MaxAbs(out), 0.0f);
}

TEST_P(CodecContract, RepeatedEncodingNeverCorrupts) {
  auto codec = MakeCompressor(GetParam().config);
  auto ctx = codec->MakeContext(Shape{200});
  for (int step = 0; step < 10; ++step) {
    Tensor in = RandomTensor(Shape{200}, 300 + step, 0.1f);
    Tensor out = RoundTrip(*codec, in, *ctx);
    EXPECT_TRUE(std::isfinite(tensor::Sum(out)));
  }
}

// Exact resume: a context's saved state, loaded into a fresh context,
// continues the identical payload stream (residuals, accumulators and RNG
// streams all carried across).
TEST_P(CodecContract, SaveLoadStateResumesByteIdentically) {
  auto codec = MakeCompressor(GetParam().config);
  const Shape shape{200};
  auto ctx = codec->MakeContext(shape);
  util::ByteBuffer scratch;
  for (int step = 0; step < 3; ++step) {
    codec->Encode(RandomTensor(shape, 400 + step, 0.1f), *ctx, scratch);
  }
  util::ByteBuffer state;
  ctx->SaveState(state);
  auto resumed = codec->MakeContext(shape);
  util::ByteReader reader(state);
  resumed->LoadState(reader);
  EXPECT_TRUE(reader.AtEnd());

  const Tensor next = RandomTensor(shape, 403, 0.1f);
  util::ByteBuffer want;
  util::ByteBuffer got;
  codec->Encode(next, *ctx, want);
  codec->Encode(next, *resumed, got);
  EXPECT_TRUE(want == got) << GetParam().label;
}

TEST_P(CodecContract, LoadStateRejectsAnotherShape) {
  auto codec = MakeCompressor(GetParam().config);
  auto ctx = codec->MakeContext(Shape{200});
  util::ByteBuffer state;
  ctx->SaveState(state);
  if (ctx->StateBytes() == 0) return;  // no shaped state to disagree on
  auto other = codec->MakeContext(Shape{100});
  util::ByteReader reader(state);
  EXPECT_THROW(other->LoadState(reader), std::runtime_error);
}

INSTANTIATE_TEST_SUITE_P(
    AllDesigns, CodecContract,
    ::testing::Values(
        CodecCase{"float32", CodecConfig::Float32()},
        CodecCase{"int8", CodecConfig::EightBit()},
        CodecCase{"stoch3", CodecConfig::StochThreeQE()},
        CodecCase{"mqe1bit", CodecConfig::MqeOneBit()},
        CodecCase{"sparse25", CodecConfig::Sparsification(0.25f)},
        CodecCase{"sparse5", CodecConfig::Sparsification(0.05f)},
        CodecCase{"local2", CodecConfig::TwoLocalSteps()},
        CodecCase{"threelc100", CodecConfig::ThreeLC(1.0f)},
        CodecCase{"threelc175", CodecConfig::ThreeLC(1.75f)},
        CodecCase{"threelc190", CodecConfig::ThreeLC(1.9f)}),
    [](const ::testing::TestParamInfo<CodecCase>& info) {
      return info.param.label;
    });

// ---------- EncodeStats ----------

// The persistent float buffer a context's SaveState writes after
// `skip` leading bytes ([u64 count][floats]).
std::vector<float> SavedFloats(const Context& ctx, std::size_t skip) {
  util::ByteBuffer state;
  ctx.SaveState(state);
  util::ByteReader reader(state);
  for (std::size_t i = 0; i < skip; ++i) reader.ReadU8();
  std::vector<float> v(reader.ReadU64());
  reader.ReadInto(v.data(), v.size() * sizeof(float));
  return v;
}

// The residual norm written out: sqrt of the serial double sum of squares.
double SerialL2(const std::vector<float>& v) {
  double sq = 0.0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    sq += static_cast<double>(v[i]) * static_cast<double>(v[i]);
  }
  return std::sqrt(sq);
}

void ExpectSameBits(double a, double b, const std::string& what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
      << what << ": " << a << " vs " << b;
}

// n % 80 != 0 and n % 5 != 0: whole blocks, a tail block and a partial
// last quartic group.
constexpr std::int64_t kStatsElems = 1003;

// Inputs for a few encodes into one context: blocks of alternating scale,
// so some 80-element blocks quantize to all zeros and are skipped, then an
// all-zero tensor (M == 0 without EA), then ±inf, so M is infinite and no
// block may be skipped.
std::vector<Tensor> StatsInputs() {
  std::vector<Tensor> inputs;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    Tensor t = RandomTensor(Shape{kStatsElems}, 900 + seed);
    for (std::int64_t i = 0; i < kStatsElems; ++i) {
      if ((i / 80) % 2 == 1) t[static_cast<std::size_t>(i)] *= 0.01f;
    }
    inputs.push_back(std::move(t));
  }
  inputs.emplace_back(Shape{kStatsElems});
  Tensor inf = RandomTensor(Shape{kStatsElems}, 950);
  inf[7] = std::numeric_limits<float>::infinity();
  inf[500] = -std::numeric_limits<float>::infinity();
  inputs.push_back(std::move(inf));
  return inputs;
}

// Encodes every input twice, into a context without stats and one with,
// and checks what the stats path must keep: the same bytes, the same
// context state, and a residual norm that is the context's ResidualL2()
// and the serial reference bit for bit. `state_skip` is the number of
// bytes SaveState writes before the residual buffer. Returns each
// encode's stats and payload for codec-specific checks.
std::vector<std::pair<EncodeStats, util::ByteBuffer>> EncodeWithAndWithout(
    const Compressor& codec, std::size_t state_skip,
    const std::vector<Tensor>& inputs) {
  auto plain = codec.MakeContext(Shape{kStatsElems});
  auto with = codec.MakeContext(Shape{kStatsElems});
  std::vector<std::pair<EncodeStats, util::ByteBuffer>> out;
  for (std::size_t step = 0; step < inputs.size(); ++step) {
    const std::string where = codec.name() + " encode " + std::to_string(step);
    util::ByteBuffer want;
    codec.Encode(inputs[step], *plain, want);
    EncodeStats stats;
    util::ByteBuffer got;
    codec.Encode(inputs[step], *with, got, &stats);
    EXPECT_TRUE(want == got) << where;
    util::ByteBuffer state_plain, state_with;
    plain->SaveState(state_plain);
    with->SaveState(state_with);
    EXPECT_TRUE(state_plain == state_with) << where;

    EXPECT_EQ(stats.elements, static_cast<std::size_t>(kStatsElems)) << where;
    EXPECT_EQ(stats.payload_bytes, got.size()) << where;
    const std::optional<double> l2 = with->ResidualL2();
    EXPECT_EQ(stats.has_residual, l2.has_value()) << where;
    if (l2.has_value()) {
      ExpectSameBits(stats.residual_l2, *l2, where + " stats vs ResidualL2");
      ExpectSameBits(*l2, SerialL2(SavedFloats(*with, state_skip)),
                     where + " ResidualL2 vs serial sum");
    }
    out.emplace_back(stats, std::move(got));
  }
  return out;
}

TEST(EncodeStats, ThreeLCStatsPathChangesNothingAndCountsExactly) {
  for (const bool zre : {true, false}) {
    for (const bool ea : {true, false}) {
      const ThreeLC codec(ThreeLCOptions{1.0f, zre, ea});
      const std::vector<Tensor> inputs = StatsInputs();
      const auto encodes = EncodeWithAndWithout(codec, /*state_skip=*/1,
                                                inputs);
      ASSERT_EQ(encodes.size(), inputs.size());
      bool saw_zero_m = false, saw_inf_m = false;
      for (std::size_t step = 0; step < encodes.size(); ++step) {
        const auto& [stats, payload] = encodes[step];
        const std::string where =
            codec.name() + " encode " + std::to_string(step);
        util::ByteReader header(payload);
        const float M = header.ReadF32();
        const std::uint32_t len = header.ReadU32();
        saw_zero_m |= M == 0.0f;
        saw_inf_m |= std::isinf(M);

        // Signs of the decoded values: M*(+1) > 0 and M*(-1) < 0 for every
        // M > 0, infinite included (its zeros decode to NaN, counted as
        // neither).
        Tensor decoded(Shape{kStatsElems});
        util::ByteReader reader(payload);
        codec.Decode(reader, decoded);
        std::size_t positives = 0, negatives = 0;
        for (std::size_t i = 0; i < decoded.size(); ++i) {
          positives += decoded[i] > 0.0f;
          negatives += decoded[i] < 0.0f;
        }
        EXPECT_TRUE(stats.has_symbols) << where;
        EXPECT_EQ(stats.positives, positives) << where;
        EXPECT_EQ(stats.negatives, negatives) << where;
        EXPECT_EQ(stats.zeros, decoded.size() - positives - negatives)
            << where;

        EXPECT_EQ(stats.has_zero_run, zre) << where;
        if (zre) {
          EXPECT_EQ(stats.zre_bytes_in,
                    QuarticEncodedSize(static_cast<std::size_t>(kStatsElems)))
              << where;
          EXPECT_EQ(stats.zre_bytes_out, len) << where;
          EXPECT_LE(stats.zre_bytes_out, stats.zre_bytes_in) << where;
        } else {
          EXPECT_EQ(stats.zre_bytes_in, 0u) << where;
          EXPECT_EQ(stats.zre_bytes_out, 0u) << where;
        }
      }
      // With EA the zero input still sees the residual, so M == 0 only
      // without it.
      EXPECT_EQ(saw_zero_m, !ea) << codec.name();
      EXPECT_TRUE(saw_inf_m) << codec.name();
    }
  }
}

TEST(EncodeStats, ZeroRunHitsOnASparseEncode) {
  const ThreeLC codec(ThreeLCOptions{1.9f, true, true});
  auto ctx = codec.MakeContext(Shape{kStatsElems});
  EncodeStats stats;
  util::ByteBuffer out;
  codec.Encode(StatsInputs()[0], *ctx, out, &stats);
  EXPECT_LT(stats.zre_bytes_out, stats.zre_bytes_in);
  EXPECT_GT(stats.ZreHitRate(), 0.0);
  EXPECT_GT(stats.zeros, stats.positives + stats.negatives);
}

TEST(EncodeStats, MqeOneBitAndLocalStepsReportTheirBuffersNorm) {
  const std::vector<Tensor> inputs = StatsInputs();
  // Without the infinite input: its residual is NaN from then on.
  const std::vector<Tensor> finite(inputs.begin(), inputs.end() - 1);
  const MqeOneBit mqe;
  for (const auto& [stats, payload] :
       EncodeWithAndWithout(mqe, /*state_skip=*/0, finite)) {
    EXPECT_TRUE(stats.has_residual);
    EXPECT_GT(stats.residual_l2, 0.0);
    EXPECT_FALSE(stats.has_symbols);
    EXPECT_FALSE(stats.has_zero_run);
  }
  const LocalSteps local(2);
  const auto encodes = EncodeWithAndWithout(local, /*state_skip=*/0, finite);
  for (std::size_t step = 0; step < encodes.size(); ++step) {
    const EncodeStats& stats = encodes[step].first;
    EXPECT_TRUE(stats.has_residual);
    // A send step empties the accumulator.
    EXPECT_EQ(stats.residual_l2 == 0.0, step % 2 == 1) << "step " << step;
  }
}

TEST(EncodeStats, StatelessCodecsHaveNoResidual) {
  for (const CodecConfig& cfg :
       {CodecConfig::Float32(), CodecConfig::EightBit()}) {
    auto codec = MakeCompressor(cfg);
    auto ctx = codec->MakeContext(Shape{kStatsElems});
    EXPECT_FALSE(ctx->ResidualL2().has_value()) << codec->name();
    EncodeStats stats;
    util::ByteBuffer out;
    codec->Encode(StatsInputs()[0], *ctx, out, &stats);
    EXPECT_FALSE(stats.has_residual) << codec->name();
    EXPECT_EQ(stats.payload_bytes, out.size()) << codec->name();
  }
  const ThreeLC no_ea(ThreeLCOptions{1.0f, true, false});
  EXPECT_FALSE(no_ea.MakeContext(Shape{8})->ResidualL2().has_value());
}

}  // namespace
}  // namespace threelc::compress
