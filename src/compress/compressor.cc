#include "compress/compressor.h"

#include <stdexcept>

namespace threelc::compress {

void SaveFloats(ByteBuffer& out, const std::vector<float>& v) {
  out.AppendU64(v.size());
  out.Append(v.data(), v.size() * sizeof(float));
}

void LoadFloats(ByteReader& in, std::vector<float>& v, const char* codec) {
  const std::uint64_t n = in.ReadU64();
  if (n != v.size()) {
    throw std::runtime_error(std::string(codec) +
                             " context state mismatch: saved " +
                             std::to_string(n) + " values, context has " +
                             std::to_string(v.size()));
  }
  in.ReadInto(v.data(), v.size() * sizeof(float));
}

void Compressor::Encode(const Tensor& in, Context& ctx, ByteBuffer& out,
                        EncodeStats* stats) const {
  if (stats == nullptr) {
    EncodeImpl(in, ctx, out, nullptr);
    return;
  }
  const std::size_t before = out.size();
  EncodeImpl(in, ctx, out, stats);
  stats->elements = static_cast<std::size_t>(in.num_elements());
  stats->payload_bytes = out.size() - before;
}

Tensor RoundTrip(const Compressor& codec, const Tensor& in, Context& ctx) {
  ByteBuffer buf;
  codec.Encode(in, ctx, buf);
  Tensor out(in.shape());
  ByteReader reader(buf);
  codec.Decode(reader, out);
  return out;
}

double CompressionRatio(std::size_t num_elements, std::size_t payload_bytes) {
  if (payload_bytes == 0) return 0.0;
  return static_cast<double>(num_elements * sizeof(float)) /
         static_cast<double>(payload_bytes);
}

double BitsPerValue(std::size_t num_elements, std::size_t payload_bytes) {
  if (num_elements == 0) return 0.0;
  return static_cast<double>(payload_bytes) * 8.0 /
         static_cast<double>(num_elements);
}

}  // namespace threelc::compress
