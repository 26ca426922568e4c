// The full 3LC codec (paper §3, Fig. 3):
//
//   (1) accumulate input into the per-tensor error-accumulation buffer
//   (2) 3-value quantization with sparsity multiplication -> ternary + M
//   (a/b) local dequantization; buffer keeps the remaining error
//   (3) quartic encoding (5 ternary values per byte)
//   (4) zero-run encoding (runs of byte 121 -> one byte 243..255)
//
// Encode runs these stages in two passes over the tensor, with no scratch
// buffers and no per-call allocation. Pass 1 adds the input into the
// buffer in place and takes max|buffer|. Pass 2 walks 80-element blocks:
// it quantizes each, leaves the remaining error in the buffer, packs 16
// quartic bytes and feeds them to a streaming zero-run writer that writes
// straight into the output. A block whose every |v| < M/2 is all zeros and
// leaves the buffer as it is, so it only extends the current zero run.
// Decode is one pass over the payload. The hot loops have AVX2 variants
// chosen at run time (three_lc_kernels.h). Every byte, residual and decoded
// value equals the stage-by-stage composition of quantize3.h, quartic.h
// and zero_run.h (three_lc_oracle_test checks it against the paper's
// equations).
//
// Wire format per tensor:
//   [f32 M][u32 payload_len][payload bytes]
// where payload is the (optionally zero-run-encoded) quartic bytes. The
// element count comes from the receiver's tensor shape, exactly as the
// parameter-server architecture already knows each layer's shape.
//
// Options reproduce the paper's ablations: `sparsity_multiplier` is the
// compression-level knob s ∈ [1, 2); `zero_run` disables stage (4) for the
// "No ZRE" row of Table 2; `error_accumulation` disables stage (1)/(b)
// for the error-accumulation-vs-stochastic comparison.
#pragma once

#include <memory>
#include <vector>

#include "compress/compressor.h"

namespace threelc::compress {

struct ThreeLCOptions {
  float sparsity_multiplier = 1.0f;  // s, in [1, 2)
  bool zero_run = true;              // apply zero-run encoding
  bool error_accumulation = true;    // keep per-tensor residual buffers
};

class ThreeLC final : public Compressor {
 public:
  explicit ThreeLC(ThreeLCOptions options = {});

  std::string name() const override;
  std::unique_ptr<Context> MakeContext(const Shape& shape) const override;
  void Decode(ByteReader& in, Tensor& out) const override;

  const ThreeLCOptions& options() const { return options_; }

 protected:
  // Fills, when stats are requested: ternary symbol distribution and
  // zero-run stage bytes in/out (the residual norm comes from the context).
  void EncodeImpl(const Tensor& in, Context& ctx, ByteBuffer& out,
                  EncodeStats* stats) const override;

 private:
  ThreeLCOptions options_;
};

// Decodes one [f32 M][u32 len][payload] ternary payload into `out` (shape
// preset) in one pass: `zero_run` says whether the payload is zero-run
// encoded quartic bytes or bare quartic bytes. Throws std::runtime_error
// (std::out_of_range for a length past the buffer) on a malformed payload;
// `out` may then hold a partial decode. StochThreeValueQE uses it too, as
// its payload has the no-ZRE layout.
void DecodeTernary(ByteReader& in, bool zero_run, Tensor& out);

}  // namespace threelc::compress
