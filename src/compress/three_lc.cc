#include "compress/three_lc.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "compress/quantize3.h"
#include "compress/quartic.h"
#include "compress/three_lc_kernels.h"
#include "compress/zero_run.h"
#include "obs/stage_profiler.h"
#include "util/logging.h"

namespace threelc::compress {

namespace {

using internal::kBlockBytes;
using internal::kBlockElems;

class ThreeLCContext final : public Context {
 public:
  explicit ThreeLCContext(const Shape& shape, bool error_accumulation)
      : has_residual_(error_accumulation),
        n_(static_cast<std::size_t>(shape.num_elements())) {
    if (has_residual_) residual_.assign(n_, 0.0f);
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

  std::optional<double> ResidualL2() const override {
    if (!has_residual_) return std::nullopt;
    return L2Norm(residual_);
  }

  bool has_residual_;
  std::size_t n_;
  // Error accumulation buffer (persistent). Encode adds the input into it
  // in place, so between encodes it holds the remaining error.
  std::vector<float> residual_;
};

// Stage (4) as a stream: quartic bytes arrive a block at a time, and a run
// of zero groups is counted across blocks, so its greedy 14-group chunks
// are exactly ZeroRunEncode's over the whole quartic stream. With zero_run off
// the bytes pass through. Writes into space the caller reserved.
class ZeroRunWriter {
 public:
  ZeroRunWriter(std::uint8_t* out, bool zero_run)
      : out_(out), zero_run_(zero_run) {}

  void Zeros(std::size_t groups) {
    if (zero_run_) {
      run_ += groups;
    } else {
      std::memset(out_, kQuarticZeroByte, groups);
      out_ += groups;
    }
  }

  void Bytes(const std::uint8_t* bytes, std::size_t count) {
    if (!zero_run_) {
      std::memcpy(out_, bytes, count);
      out_ += count;
      return;
    }
    // Branch-free per byte: the pending run's byte and the literal are
    // stored unconditionally and the cursor advances only past real
    // output. A run byte precedes the literal that ends it, so both stores
    // land inside the reserved space.
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint8_t b = bytes[i];
      const bool literal = b != kQuarticZeroByte;
      if (run_ > kZreMaxRun && literal) Flush();  // rare: long runs
      *out_ = static_cast<std::uint8_t>(
          run_ == 1 ? kQuarticZeroByte : kZreRunBase + run_ - 2);
      out_ += literal & (run_ != 0);
      *out_ = b;
      out_ += literal;
      run_ = literal ? 0 : run_ + 1;
    }
  }

  // Ends the stream; returns one past the last byte written.
  std::uint8_t* Finish() {
    Flush();
    return out_;
  }

 private:
  void Flush() {
    while (run_ >= 2) {
      const std::size_t chunk = std::min(run_, kZreMaxRun);
      *out_++ = static_cast<std::uint8_t>(kZreRunBase + (chunk - 2));
      run_ -= chunk;
    }
    if (run_ == 1) *out_++ = kQuarticZeroByte;
    run_ = 0;
  }

  std::uint8_t* out_;
  bool zero_run_;
  std::size_t run_ = 0;
};

// Base-3 digits of every quartic byte, most significant first.
constexpr auto kDigits = [] {
  std::array<std::array<std::uint8_t, kQuarticGroup>, kQuarticMaxByte + 1> t{};
  for (unsigned b = 0; b <= kQuarticMaxByte; ++b) {
    for (unsigned j = kQuarticGroup, x = b; j-- > 0; x /= 3) {
      t[b][j] = static_cast<std::uint8_t>(x % 3);
    }
  }
  return t;
}();

// (+1 digits, -1 digits) of every quartic byte: digit 2 is q = +1 and
// digit 0 is q = -1.
constexpr auto kSignCounts = [] {
  std::array<std::array<std::uint8_t, 2>, kQuarticMaxByte + 1> t{};
  for (unsigned b = 0; b <= kQuarticMaxByte; ++b) {
    for (const std::uint8_t d : kDigits[b]) {
      t[b][0] += d == 2;
      t[b][1] += d == 0;
    }
  }
  return t;
}();

// Symbol counts of quartic bytes. Zeros are derived from the element
// count at the end, so padding digits (1) count as nothing.
struct SymbolCounts {
  std::size_t positives = 0;
  std::size_t negatives = 0;

  void Add(const std::uint8_t* bytes, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      positives += kSignCounts[bytes[i]][0];
      negatives += kSignCounts[bytes[i]][1];
    }
  }
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
  THREELC_CHECK_MSG(c.n_ == n, "context/tensor shape mismatch");
  const internal::ThreeLCKernels& kernels = internal::Kernels();
  float* residual = c.has_residual_ ? c.residual_.data() : nullptr;

  // Pass 1, step (1): accumulate the input into the local buffer, and
  // M = max|buffer| * s (Eq. 1).
  float M;
  {
    obs::ScopedStage stage(&obs::StageProfiler::Global(), "accumulate");
    M = kernels.accumulate_max_abs(in.data(), residual, n) *
        options_.sparsity_multiplier;
  }

  // Pass 2, steps (2)-(4) and (a)/(b): per block, quantize, keep the
  // remaining error in the buffer, pack quartic bytes and zero-run encode
  // them straight into `out`.
  obs::ScopedStage stage(&obs::StageProfiler::Global(), "quantize");
  const float* v = residual != nullptr ? residual : in.data();
  const std::size_t groups = QuarticEncodedSize(n);
  out.AppendF32(M);
  const std::size_t len_at = out.size();
  out.AppendU32(0);  // patched below
  const std::size_t base = out.size();
  out.Resize(base + groups);  // ZRE never expands
  ZeroRunWriter writer(out.data() + base, options_.zero_run);
  SymbolCounts symbols;
  if (M == 0.0f) {
    // Every value quantizes to 0 and the buffer keeps it whole.
    writer.Zeros(groups);
  } else {
    // A block whose every |v| < M/2 quantizes to zeros, and v - M*0 == v
    // for every non-NaN v when M is finite, so its residual is untouched.
    const bool can_skip = std::isfinite(M);
    const float half = M * 0.5f;
    std::uint8_t bytes[kBlockBytes];
    std::size_t i = 0;
    for (; i + kBlockElems <= n; i += kBlockElems) {
      if (can_skip && kernels.block_below_half(v + i, half)) {
        writer.Zeros(kBlockBytes);
        continue;
      }
      kernels.quantize_block(v + i, M, residual != nullptr ? residual + i
                                                          : nullptr,
                             bytes);
      writer.Bytes(bytes, kBlockBytes);
      if (stats != nullptr) symbols.Add(bytes, kBlockBytes);
    }
    if (i < n) {
      // Tail block, zero-padded: a 0 quantizes to digit 1, the padding
      // QuarticEncode uses.
      const std::size_t tail = n - i;
      float block[kBlockElems] = {};
      std::copy(v + i, v + n, block);
      kernels.quantize_block(block, M, block, bytes);
      if (residual != nullptr) std::copy(block, block + tail, residual + i);
      writer.Bytes(bytes, QuarticEncodedSize(tail));
      if (stats != nullptr) symbols.Add(bytes, QuarticEncodedSize(tail));
    }
  }
  const auto len =
      static_cast<std::uint32_t>(writer.Finish() - (out.data() + base));
  out.Resize(base + len);
  std::memcpy(out.data() + len_at, &len, sizeof len);

  if (stats != nullptr) {
    stats->has_symbols = true;
    stats->positives += symbols.positives;
    stats->negatives += symbols.negatives;
    stats->zeros += n - symbols.positives - symbols.negatives;
    if (options_.zero_run) {
      stats->has_zero_run = true;
      stats->zre_bytes_in = groups;
      stats->zre_bytes_out = len;
    }
  }
}

void ThreeLC::Decode(ByteReader& in, Tensor& out) const {
  obs::ScopedStage decode_stage(&obs::StageProfiler::Global(), "3lc_decode");
  DecodeTernary(in, options_.zero_run, out);
}

void DecodeTernary(ByteReader& in, bool zero_run, Tensor& out) {
  const auto n = static_cast<std::size_t>(out.num_elements());
  const float M = in.ReadF32();
  const std::uint32_t len = in.ReadU32();
  const util::ByteSpan payload = in.ReadSpan(len);
  const std::size_t groups = QuarticEncodedSize(n);
  if (!zero_run && len != groups) {
    throw std::runtime_error("3LC decode: quartic payload size mismatch");
  }
  // Dequantized values of digits 0, 1, 2: M * q for q = -1, 0, +1.
  const float value[3] = {M * -1.0f, M * 0.0f, M * 1.0f};
  const std::size_t whole_groups = n / kQuarticGroup;
  float* dst = out.data();
  std::size_t g = 0;  // groups decoded so far
  for (const std::uint8_t b : payload) {
    if (b > kQuarticMaxByte) {
      if (!zero_run) {
        throw std::runtime_error("3LC decode: quartic byte out of range");
      }
      const std::size_t run = static_cast<std::size_t>(b - kZreRunBase) + 2;
      if (run > groups - g) {
        throw std::runtime_error("3LC decode: zero run past the tensor end");
      }
      const std::size_t begin = g * kQuarticGroup;
      std::fill(dst + begin, dst + std::min(begin + run * kQuarticGroup, n),
                value[1]);
      g += run;
      continue;
    }
    if (g == groups) {
      throw std::runtime_error("3LC decode: payload past the tensor end");
    }
    const std::uint8_t* d = kDigits[b].data();
    float* o = dst + g * kQuarticGroup;
    if (g < whole_groups) {
      o[0] = value[d[0]];
      o[1] = value[d[1]];
      o[2] = value[d[2]];
      o[3] = value[d[3]];
      o[4] = value[d[4]];
    } else {  // the partial last group
      for (std::size_t j = 0; j < n % kQuarticGroup; ++j) o[j] = value[d[j]];
    }
    ++g;
  }
  if (g != groups) {
    throw std::runtime_error("3LC decode: payload ends before the tensor");
  }
}

}  // namespace threelc::compress
