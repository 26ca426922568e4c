#include "compress/stoch_three.h"

#include <atomic>
#include <cmath>
#include <vector>

#include "compress/quartic.h"
#include "compress/quantize3.h"
#include "compress/three_lc.h"
#include "util/logging.h"
#include "util/rng.h"

namespace threelc::compress {

namespace {

std::atomic<std::uint64_t> g_context_counter{0};

class StochContext final : public Context {
 public:
  StochContext(const Shape& shape, std::uint64_t seed)
      : rng_(seed), ternary_(static_cast<std::size_t>(shape.num_elements())) {}

  void SaveState(ByteBuffer& out) const override { rng_.SaveState(out); }
  void LoadState(ByteReader& in) override { rng_.LoadState(in); }

  util::Rng rng_;
  std::vector<std::int8_t> ternary_;  // scratch
  ByteBuffer quartic_;                // scratch
};

}  // namespace

StochThreeValueQE::StochThreeValueQE(std::uint64_t seed) : seed_(seed) {}

std::unique_ptr<Context> StochThreeValueQE::MakeContext(
    const Shape& shape) const {
  // Each tensor context gets an independent stream derived from the codec
  // seed and a global allocation counter, so parallel workers never share
  // RNG state.
  const std::uint64_t ctx_id = g_context_counter.fetch_add(1);
  std::uint64_t mix = seed_ ^ (ctx_id * 0x9e3779b97f4a7c15ULL + 0x243);
  return std::make_unique<StochContext>(shape, util::SplitMix64(mix));
}

void StochThreeValueQE::EncodeImpl(const Tensor& in, Context& ctx,
                                   ByteBuffer& out, EncodeStats* stats) const {
  auto& c = static_cast<StochContext&>(ctx);
  const auto n = static_cast<std::size_t>(in.num_elements());
  THREELC_CHECK_MSG(c.ternary_.size() == n, "context/tensor shape mismatch");
  const float* src = in.data();
  const float m = MaxAbs(src, n);
  std::int8_t* q = c.ternary_.data();
  if (m == 0.0f) {
    for (std::size_t i = 0; i < n; ++i) q[i] = 0;
  } else {
    const float inv_m = 1.0f / m;
    for (std::size_t i = 0; i < n; ++i) {
      const float v = src[i];
      const float p = std::fabs(v) * inv_m;  // selection probability
      const bool fire = c.rng_.UniformFloat() < p;
      q[i] = fire ? (v > 0.0f ? 1 : -1) : 0;
    }
  }
  if (stats != nullptr) {
    stats->has_symbols = true;
    for (std::size_t i = 0; i < n; ++i) {
      if (q[i] == 0) ++stats->zeros;
      else if (q[i] > 0) ++stats->positives;
      else ++stats->negatives;
    }
  }
  c.quartic_.Clear();
  QuarticEncode(q, n, c.quartic_);
  out.AppendF32(m);
  out.AppendU32(static_cast<std::uint32_t>(c.quartic_.size()));
  out.Append(c.quartic_.span());
}

void StochThreeValueQE::Decode(ByteReader& in, Tensor& out) const {
  DecodeTernary(in, /*zero_run=*/false, out);
}

}  // namespace threelc::compress
