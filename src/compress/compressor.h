// Compressor: the point-to-point tensor codec interface (paper §3, Fig. 2).
//
// One *compression context* holds the state for compressing/decompressing a
// single tensor in a single direction (gradient push or model-delta pull) —
// typically the error-accumulation buffer plus reusable scratch space.
// Stateless codecs return an empty context.
//
// Contract:
//  - Encode appends a self-delimiting payload to `out` and may update `ctx`
//    (e.g. fold quantization error into the accumulation buffer).
//  - Decode consumes exactly the bytes Encode appended and writes the
//    decompressed state change into `out`, whose shape is already set.
//  - Encode(T) followed by Decode must yield the codec's dequantized view
//    of T; for the lossless stages this is exact round-trip identity.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "tensor/tensor.h"
#include "util/byte_buffer.h"

namespace threelc::compress {

using tensor::Shape;
using tensor::Tensor;
using util::ByteBuffer;
using util::ByteReader;

// Per-tensor, per-direction codec state.
class Context {
 public:
  virtual ~Context() = default;

  // Bytes of auxiliary state the codec keeps per tensor (error accumulation
  // buffers etc.) — reported by memory-overhead benchmarks.
  virtual std::size_t StateBytes() const { return 0; }

  // Exact-resume support: serialize the persistent per-tensor state (the
  // error-accumulation buffer; reusable scratch is excluded) so a restarted
  // worker continues the identical quantization trajectory. LoadState must
  // consume exactly what SaveState wrote into a context of the same shape,
  // throwing std::runtime_error on mismatch. Every context with state
  // across encodes (residuals, accumulators, RNG streams) overrides both;
  // stateless codecs write and read nothing.
  virtual void SaveState(ByteBuffer& out) const { (void)out; }
  virtual void LoadState(ByteReader& in) { (void)in; }

  // L2 norm of the persistent buffer that holds what the wire has not
  // carried yet (the error-accumulation buffer, or a local-steps
  // accumulator) as of the last encode; nullopt when the codec keeps none.
  // It reads the state without changing it, so callers may ask at any
  // point between encodes.
  virtual std::optional<double> ResidualL2() const { return std::nullopt; }
};

// Bulk (de)serialization of a context's persistent float buffer: u64
// count, then the floats' raw little-endian bytes in one copy. LoadFloats
// throws std::runtime_error naming `codec` when the saved count differs
// from v.size().
void SaveFloats(ByteBuffer& out, const std::vector<float>& v);
void LoadFloats(ByteReader& in, std::vector<float>& v, const char* codec);

// sqrt of the serial double sum of v[i]^2, in index order: the one L2 norm
// every ResidualL2 override returns.
double L2Norm(const std::vector<float>& v);

// Per-encode statistics sink for the observability layer. Callers that want
// telemetry pass a (zeroed) EncodeStats to Encode; codecs fill the fields
// they produce and leave the rest at their "absent" defaults. Filling stats
// costs extra passes over the tensor (the residual norm is a serial double
// sum over every element), so the null-stats path is the hot path: a
// caller on a step's critical path encodes without stats and, if it needs
// only the residual norm, asks the context's ResidualL2() off that path.
struct EncodeStats {
  // Filled generically for every codec.
  std::size_t elements = 0;
  std::size_t payload_bytes = 0;
  // Ternary symbol distribution (3-value quantization stages).
  bool has_symbols = false;
  std::size_t zeros = 0;
  std::size_t positives = 0;
  std::size_t negatives = 0;
  // Zero-run stage: bytes entering (quartic) and leaving (wire payload).
  bool has_zero_run = false;
  std::size_t zre_bytes_in = 0;
  std::size_t zre_bytes_out = 0;
  // L2 norm of the error-accumulation buffer *after* this encode — the
  // paper's error-behaviour measurements (Fig. 7 discussion). Filled from
  // Context::ResidualL2(), so it is that value bit for bit.
  bool has_residual = false;
  double residual_l2 = 0.0;

  // Fraction of zero-run input bytes eliminated on the wire (0 when the
  // stage is absent or saved nothing).
  double ZreHitRate() const {
    if (!has_zero_run || zre_bytes_in == 0) return 0.0;
    return 1.0 - static_cast<double>(zre_bytes_out) /
                     static_cast<double>(zre_bytes_in);
  }
};

class Compressor {
 public:
  virtual ~Compressor() = default;

  // Human-readable name matching the paper's design labels, e.g.
  // "3LC (s=1.75)" or "5% sparsification".
  virtual std::string name() const = 0;

  // Create fresh per-tensor state for a tensor of the given shape.
  virtual std::unique_ptr<Context> MakeContext(const Shape& shape) const = 0;

  // Compress `in`, appending the payload to `out`. `ctx` must have been
  // created by this codec's MakeContext with `in`'s shape.
  void Encode(const Tensor& in, Context& ctx, ByteBuffer& out) const {
    EncodeImpl(in, ctx, out, nullptr);
  }

  // As above, additionally filling `stats` (when non-null) with element
  // count, payload size, the context's residual norm, and whatever
  // codec-specific fields this codec produces.
  void Encode(const Tensor& in, Context& ctx, ByteBuffer& out,
              EncodeStats* stats) const;

  // Decompress into `out` (shape preset by the caller), consuming exactly
  // one Encode payload from `in`. Throws std::runtime_error on corruption.
  virtual void Decode(ByteReader& in, Tensor& out) const = 0;

  // True if the codec is lossy (decode != encode input in general).
  virtual bool lossy() const { return true; }

 protected:
  // Codec body. `stats` is null on the hot path; implementations only
  // spend extra work (symbol counts, zero-run bytes) when it is non-null.
  virtual void EncodeImpl(const Tensor& in, Context& ctx, ByteBuffer& out,
                          EncodeStats* stats) const = 0;
};

// Convenience: encode then decode through a fresh reader; returns the
// codec's dequantized view of `in`. Used heavily by tests.
Tensor RoundTrip(const Compressor& codec, const Tensor& in, Context& ctx);

// Compression ratio of one payload vs. raw float32 transmission.
double CompressionRatio(std::size_t num_elements, std::size_t payload_bytes);

// Bits per state change of one payload.
double BitsPerValue(std::size_t num_elements, std::size_t payload_bytes);

}  // namespace threelc::compress
