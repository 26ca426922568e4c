#include "compress/eight_bit.h"

#include "compress/quantize3.h"

namespace threelc::compress {

std::unique_ptr<Context> EightBitInt::MakeContext(const Shape&) const {
  return std::make_unique<Context>();
}

void EightBitInt::EncodeImpl(const Tensor& in, Context&, ByteBuffer& out,
                             EncodeStats*) const {
  const auto n = static_cast<std::size_t>(in.num_elements());
  const float* src = in.data();
  const float m = MaxAbs(src, n);
  out.AppendF32(m);
  const std::size_t base = out.size();
  out.Resize(base + n);
  std::uint8_t* dst = out.data() + base;
  if (m == 0.0f) {
    for (std::size_t i = 0; i < n; ++i) dst[i] = 0;
    return;
  }
  const float scale = 127.0f / m;
  for (std::size_t i = 0; i < n; ++i) {
    // |src[i]| <= m so the product is within [-127, 127]; +-0.5 rounding
    // stays within int8 range.
    const float v = src[i] * scale;
    const float r = v >= 0.0f ? v + 0.5f : v - 0.5f;  // round half away
    dst[i] = static_cast<std::uint8_t>(static_cast<std::int8_t>(r));
  }
}

void EightBitInt::Decode(ByteReader& in, Tensor& out) const {
  const auto n = static_cast<std::size_t>(out.num_elements());
  const float m = in.ReadF32();
  util::ByteSpan payload = in.ReadSpan(n);
  float* dst = out.data();
  const float scale = m / 127.0f;
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = scale * static_cast<float>(static_cast<std::int8_t>(payload[i]));
  }
}

}  // namespace threelc::compress
