#include "compress/sparsify.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "util/logging.h"
#include "util/rng.h"

namespace threelc::compress {

namespace {

class SparsifyContext final : public Context {
 public:
  SparsifyContext(const Shape& shape, std::uint64_t seed)
      : residual_(static_cast<std::size_t>(shape.num_elements()), 0.0f),
        accum_(residual_.size(), 0.0f),
        rng_(seed) {}

  std::size_t StateBytes() const override {
    return residual_.size() * sizeof(float);
  }

  void SaveState(ByteBuffer& out) const override {
    SaveFloats(out, residual_);
    rng_.SaveState(out);
  }
  void LoadState(ByteReader& in) override {
    LoadFloats(in, residual_, "sparsification");
    rng_.LoadState(in);
  }

  std::vector<float> residual_;
  std::vector<float> accum_;  // scratch
  util::Rng rng_;
  std::vector<float> sample_;  // scratch for threshold estimation
};

}  // namespace

Sparsify::Sparsify(SparsifyOptions options) : options_(options) {
  THREELC_CHECK_MSG(options_.fraction > 0.0f && options_.fraction <= 1.0f,
                    "sparsification fraction must be in (0, 1]");
  THREELC_CHECK(options_.threshold_sample > 0);
}

std::string Sparsify::name() const {
  std::ostringstream oss;
  oss << static_cast<int>(std::lround(options_.fraction * 100.0f))
      << "% sparsification";
  return oss.str();
}

std::unique_ptr<Context> Sparsify::MakeContext(const Shape& shape) const {
  return std::make_unique<SparsifyContext>(shape, options_.seed);
}

void Sparsify::EncodeImpl(const Tensor& in, Context& ctx, ByteBuffer& out,
                          EncodeStats* stats) const {
  auto& c = static_cast<SparsifyContext&>(ctx);
  const auto n = static_cast<std::size_t>(in.num_elements());
  THREELC_CHECK_MSG(c.accum_.size() == n, "context/tensor shape mismatch");
  const float* src = in.data();
  float* acc = c.accum_.data();
  float* res = c.residual_.data();
  for (std::size_t i = 0; i < n; ++i) acc[i] = src[i] + res[i];

  // Threshold from a sorted magnitude sample (avoids a full-tensor sort).
  const std::size_t sample_n = std::min(options_.threshold_sample, n);
  c.sample_.clear();
  c.sample_.reserve(sample_n);
  if (sample_n == n) {
    for (std::size_t i = 0; i < n; ++i) c.sample_.push_back(std::fabs(acc[i]));
  } else {
    for (std::size_t i = 0; i < sample_n; ++i) {
      const auto idx = static_cast<std::size_t>(c.rng_.Below(n));
      c.sample_.push_back(std::fabs(acc[idx]));
    }
  }
  // k-th largest sample magnitude approximates the global k% threshold.
  const std::size_t keep = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::lround(options_.fraction * static_cast<float>(sample_n))));
  std::nth_element(c.sample_.begin(), c.sample_.begin() + (keep - 1),
                   c.sample_.end(), std::greater<float>());
  const float threshold = c.sample_[keep - 1];

  // Emit: bitmap of selected positions + the selected values in order.
  const std::size_t bitmap_bytes = (n + 7) / 8;
  out.AppendU32(0);  // placeholder for count; patched below
  const std::size_t count_pos = out.size() - 4;
  const std::size_t bitmap_pos = out.size();
  out.Resize(out.size() + bitmap_bytes);
  std::uint32_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const float v = acc[i];
    if (std::fabs(v) >= threshold && threshold > 0.0f) {
      out.data()[bitmap_pos + i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
      ++count;
      res[i] = 0.0f;  // sent: error cleared
    } else {
      res[i] = v;  // unsent: accumulate for a later step
    }
  }
  // Append selected values after the bitmap (second pass keeps the bitmap
  // loop store-free for the common unselected case).
  for (std::size_t i = 0; i < n; ++i) {
    if ((out.data()[bitmap_pos + i / 8] >> (i % 8)) & 1) out.AppendF32(acc[i]);
  }
  std::memcpy(out.data() + count_pos, &count, sizeof(count));
  if (stats != nullptr) {
    stats->has_residual = true;
    double sq = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      sq += static_cast<double>(res[i]) * static_cast<double>(res[i]);
    }
    stats->residual_l2 = std::sqrt(sq);
  }
}

void Sparsify::Decode(ByteReader& in, Tensor& out) const {
  const auto n = static_cast<std::size_t>(out.num_elements());
  const std::uint32_t count = in.ReadU32();
  util::ByteSpan bitmap = in.ReadSpan((n + 7) / 8);
  util::ByteSpan values = in.ReadSpan(count * sizeof(float));
  float* dst = out.data();
  std::size_t vi = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if ((bitmap[i / 8] >> (i % 8)) & 1) {
      if (vi >= count) throw std::runtime_error("Sparsify decode: bitmap/count mismatch");
      float v;
      std::memcpy(&v, values.data() + vi * sizeof(float), sizeof(float));
      dst[i] = v;
      ++vi;
    } else {
      dst[i] = 0.0f;
    }
  }
  if (vi != count) {
    throw std::runtime_error("Sparsify decode: bitmap/count mismatch");
  }
}

}  // namespace threelc::compress
