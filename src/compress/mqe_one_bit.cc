#include "compress/mqe_one_bit.h"

#include <cmath>
#include <vector>

#include "util/logging.h"

namespace threelc::compress {

namespace {

class MqeContext final : public Context {
 public:
  explicit MqeContext(const Shape& shape)
      : residual_(static_cast<std::size_t>(shape.num_elements()), 0.0f),
        accum_(residual_.size(), 0.0f) {}

  std::size_t StateBytes() const override {
    return residual_.size() * sizeof(float);
  }

  void SaveState(ByteBuffer& out) const override {
    SaveFloats(out, residual_);
  }
  void LoadState(ByteReader& in) override {
    LoadFloats(in, residual_, "MQE 1-bit");
  }

  std::vector<float> residual_;
  std::vector<float> accum_;  // scratch
};

}  // namespace

std::unique_ptr<Context> MqeOneBit::MakeContext(const Shape& shape) const {
  return std::make_unique<MqeContext>(shape);
}

void MqeOneBit::EncodeImpl(const Tensor& in, Context& ctx, ByteBuffer& out,
                           EncodeStats* stats) const {
  auto& c = static_cast<MqeContext&>(ctx);
  const auto n = static_cast<std::size_t>(in.num_elements());
  THREELC_CHECK_MSG(c.accum_.size() == n, "context/tensor shape mismatch");
  const float* src = in.data();
  float* acc = c.accum_.data();
  float* res = c.residual_.data();

  // Error feedback: quantize input + accumulated error.
  for (std::size_t i = 0; i < n; ++i) acc[i] = src[i] + res[i];

  // Partition means (the MQE dequantization values). This extra pass over
  // the data — absent from 3LC's single max-reduction — is the source of
  // the scheme's higher computation overhead noted in the paper's §5.3.
  double sum_nonneg = 0.0, sum_neg = 0.0;
  std::size_t cnt_nonneg = 0, cnt_neg = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const float v = acc[i];
    if (v >= 0.0f) {
      sum_nonneg += v;
      ++cnt_nonneg;
    } else {
      sum_neg += v;
      ++cnt_neg;
    }
  }
  const float mean_nonneg =
      cnt_nonneg ? static_cast<float>(sum_nonneg / cnt_nonneg) : 0.0f;
  const float mean_neg = cnt_neg ? static_cast<float>(sum_neg / cnt_neg) : 0.0f;

  out.AppendF32(mean_neg);
  out.AppendF32(mean_nonneg);
  const std::size_t bitmap_bytes = (n + 7) / 8;
  const std::size_t base = out.size();
  out.Resize(base + bitmap_bytes);
  std::uint8_t* bits = out.data() + base;
  for (std::size_t i = 0; i < bitmap_bytes; ++i) bits[i] = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const bool nonneg = acc[i] >= 0.0f;
    bits[i / 8] |= static_cast<std::uint8_t>(nonneg) << (i % 8);
    const float deq = nonneg ? mean_nonneg : mean_neg;
    res[i] = acc[i] - deq;
  }
  if (stats != nullptr) {
    stats->has_residual = true;
    double sq = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      sq += static_cast<double>(res[i]) * static_cast<double>(res[i]);
    }
    stats->residual_l2 = std::sqrt(sq);
  }
}

void MqeOneBit::Decode(ByteReader& in, Tensor& out) const {
  const auto n = static_cast<std::size_t>(out.num_elements());
  const float mean_neg = in.ReadF32();
  const float mean_nonneg = in.ReadF32();
  util::ByteSpan bits = in.ReadSpan((n + 7) / 8);
  float* dst = out.data();
  for (std::size_t i = 0; i < n; ++i) {
    const bool nonneg = (bits[i / 8] >> (i % 8)) & 1;
    dst[i] = nonneg ? mean_nonneg : mean_neg;
  }
}

}  // namespace threelc::compress
