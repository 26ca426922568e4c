#include "compress/local_steps.h"

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "util/logging.h"

namespace threelc::compress {

namespace {

class LocalStepsContext final : public Context {
 public:
  explicit LocalStepsContext(const Shape& shape)
      : accum_(static_cast<std::size_t>(shape.num_elements()), 0.0f) {}

  std::size_t StateBytes() const override {
    return accum_.size() * sizeof(float);
  }

  void SaveState(ByteBuffer& out) const override {
    SaveFloats(out, accum_);
    out.AppendU32(static_cast<std::uint32_t>(step_));
  }
  void LoadState(ByteReader& in) override {
    LoadFloats(in, accum_, "local steps");
    step_ = static_cast<int>(in.ReadU32());
  }

  std::vector<float> accum_;
  int step_ = 0;
};

}  // namespace

LocalSteps::LocalSteps(int period) : period_(period) {
  THREELC_CHECK_MSG(period_ >= 1, "period must be >= 1");
}

std::string LocalSteps::name() const {
  std::ostringstream oss;
  oss << period_ << " local steps";
  return oss.str();
}

std::unique_ptr<Context> LocalSteps::MakeContext(const Shape& shape) const {
  return std::make_unique<LocalStepsContext>(shape);
}

void LocalSteps::EncodeImpl(const Tensor& in, Context& ctx, ByteBuffer& out,
                            EncodeStats* stats) const {
  auto& c = static_cast<LocalStepsContext&>(ctx);
  const auto n = static_cast<std::size_t>(in.num_elements());
  THREELC_CHECK_MSG(c.accum_.size() == n, "context/tensor shape mismatch");
  const float* src = in.data();
  float* acc = c.accum_.data();
  for (std::size_t i = 0; i < n; ++i) acc[i] += src[i];
  const bool send = (++c.step_ % period_) == 0;
  out.AppendU8(send ? 1 : 0);
  if (send) {
    out.Append(acc, n * sizeof(float));
    for (std::size_t i = 0; i < n; ++i) acc[i] = 0.0f;
  }
  if (stats != nullptr) {
    // The local accumulator is this scheme's "error" buffer: state changes
    // withheld from the wire until the next send step.
    stats->has_residual = true;
    double sq = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      sq += static_cast<double>(acc[i]) * static_cast<double>(acc[i]);
    }
    stats->residual_l2 = std::sqrt(sq);
  }
}

void LocalSteps::Decode(ByteReader& in, Tensor& out) const {
  const std::uint8_t sent = in.ReadU8();
  if (sent > 1) throw std::runtime_error("LocalSteps decode: bad marker");
  if (sent) {
    in.ReadInto(out.data(), out.byte_size());
  } else {
    out.SetZero();
  }
}

}  // namespace threelc::compress
