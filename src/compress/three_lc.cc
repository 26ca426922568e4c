#include "compress/three_lc.h"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "compress/quantize3.h"
#include "compress/quartic.h"
#include "compress/zero_run.h"
#include "obs/stage_profiler.h"
#include "tensor/tensor_ops.h"
#include "util/logging.h"

namespace threelc::compress {

namespace {

class ThreeLCContext final : public Context {
 public:
  explicit ThreeLCContext(const Shape& shape, bool error_accumulation)
      : has_residual_(error_accumulation) {
    const auto n = static_cast<std::size_t>(shape.num_elements());
    if (has_residual_) residual_.assign(n, 0.0f);
    accum_.assign(n, 0.0f);
    ternary_.assign(n, 0);
  }

  std::size_t StateBytes() const override {
    return residual_.size() * sizeof(float);
  }

  void SaveState(ByteBuffer& out) const override {
    out.AppendU8(has_residual_ ? 1 : 0);
    SaveFloats(out, residual_);
  }

  void LoadState(ByteReader& in) override {
    const bool has_residual = in.ReadU8() != 0;
    if (has_residual != has_residual_) {
      throw std::runtime_error(
          "3LC context state mismatch: saved ea=" +
          std::to_string(has_residual) +
          ", context has ea=" + std::to_string(has_residual_));
    }
    LoadFloats(in, residual_, "3LC");
  }

  bool has_residual_;
  std::vector<float> residual_;      // error accumulation buffer (persistent)
  std::vector<float> accum_;         // scratch: input + residual
  std::vector<std::int8_t> ternary_; // scratch: quantized values
  ByteBuffer quartic_;               // scratch: stage-(3) output
};

}  // namespace

ThreeLC::ThreeLC(ThreeLCOptions options) : options_(options) {
  THREELC_CHECK_MSG(options_.sparsity_multiplier >= kMinSparsityMultiplier &&
                        options_.sparsity_multiplier < kMaxSparsityMultiplier,
                    "sparsity multiplier must be in [1, 2)");
}

std::string ThreeLC::name() const {
  std::ostringstream oss;
  oss << "3LC (s=" << options_.sparsity_multiplier;
  if (!options_.zero_run) oss << ", no ZRE";
  if (!options_.error_accumulation) oss << ", no EA";
  oss << ")";
  return oss.str();
}

std::unique_ptr<Context> ThreeLC::MakeContext(const Shape& shape) const {
  return std::make_unique<ThreeLCContext>(shape, options_.error_accumulation);
}

void ThreeLC::EncodeImpl(const Tensor& in, Context& ctx, ByteBuffer& out,
                         EncodeStats* stats) const {
  obs::ScopedStage encode_stage(&obs::StageProfiler::Global(), "3lc_encode");
  auto& c = static_cast<ThreeLCContext&>(ctx);
  const auto n = static_cast<std::size_t>(in.num_elements());
  THREELC_CHECK_MSG(c.accum_.size() == n, "context/tensor shape mismatch");

  // Step (1): accumulate the input into the local buffer.
  {
    obs::ScopedStage stage(&obs::StageProfiler::Global(), "accumulate");
    const float* src = in.data();
    float* acc = c.accum_.data();
    if (c.has_residual_) {
      const float* res = c.residual_.data();
      for (std::size_t i = 0; i < n; ++i) acc[i] = src[i] + res[i];
    } else {
      for (std::size_t i = 0; i < n; ++i) acc[i] = src[i];
    }
  }

  // Steps (2), (a), (b): quantize; keep the remaining error locally.
  float M;
  {
    obs::ScopedStage stage(&obs::StageProfiler::Global(), "quantize");
    if (c.has_residual_) {
      M = Quantize3WithResidual(c.accum_.data(), n,
                                options_.sparsity_multiplier,
                                c.ternary_.data(), c.residual_.data());
    } else {
      M = Quantize3(c.accum_.data(), n, options_.sparsity_multiplier,
                    c.ternary_.data());
    }
  }

  // Step (3): quartic encoding.
  {
    obs::ScopedStage stage(&obs::StageProfiler::Global(), "quartic");
    c.quartic_.Clear();
    QuarticEncode(c.ternary_.data(), n, c.quartic_);
  }

  // Step (4): zero-run encoding (optional), then frame the payload.
  out.AppendF32(M);
  if (options_.zero_run) {
    ByteBuffer zre;
    {
      obs::ScopedStage stage(&obs::StageProfiler::Global(), "zre");
      zre.Reserve(c.quartic_.size());
      ZeroRunEncode(c.quartic_.span(), zre);
    }
    obs::ScopedStage stage(&obs::StageProfiler::Global(), "serialize");
    out.AppendU32(static_cast<std::uint32_t>(zre.size()));
    out.Append(zre.span());
    if (stats != nullptr) {
      stats->has_zero_run = true;
      stats->zre_bytes_in = c.quartic_.size();
      stats->zre_bytes_out = zre.size();
    }
  } else {
    obs::ScopedStage stage(&obs::StageProfiler::Global(), "serialize");
    out.AppendU32(static_cast<std::uint32_t>(c.quartic_.size()));
    out.Append(c.quartic_.span());
  }

  if (stats != nullptr) {
    stats->has_symbols = true;
    const std::int8_t* q = c.ternary_.data();
    for (std::size_t i = 0; i < n; ++i) {
      if (q[i] == 0) ++stats->zeros;
      else if (q[i] > 0) ++stats->positives;
      else ++stats->negatives;
    }
    if (c.has_residual_) {
      stats->has_residual = true;
      double sq = 0.0;
      for (const float r : c.residual_) {
        sq += static_cast<double>(r) * static_cast<double>(r);
      }
      stats->residual_l2 = std::sqrt(sq);
    }
  }
}

void ThreeLC::Decode(ByteReader& in, Tensor& out) const {
  obs::ScopedStage decode_stage(&obs::StageProfiler::Global(), "3lc_decode");
  const auto n = static_cast<std::size_t>(out.num_elements());
  const float M = in.ReadF32();
  const std::uint32_t len = in.ReadU32();
  util::ByteSpan payload = in.ReadSpan(len);

  const std::size_t quartic_len = QuarticEncodedSize(n);
  std::vector<std::int8_t> ternary(n);
  if (options_.zero_run) {
    ByteBuffer quartic;
    {
      obs::ScopedStage stage(&obs::StageProfiler::Global(), "zre");
      quartic.Reserve(quartic_len);
      const std::size_t produced =
          ZeroRunDecode(payload, quartic, quartic_len);
      if (produced != quartic_len) {
        throw std::runtime_error("3LC decode: zero-run payload size mismatch");
      }
    }
    obs::ScopedStage stage(&obs::StageProfiler::Global(), "quartic");
    QuarticDecode(quartic.span(), n, ternary.data());
  } else {
    obs::ScopedStage stage(&obs::StageProfiler::Global(), "quartic");
    QuarticDecode(payload, n, ternary.data());
  }
  obs::ScopedStage stage(&obs::StageProfiler::Global(), "dequantize");
  Dequantize3(ternary.data(), n, M, out.data());
}

}  // namespace threelc::compress
