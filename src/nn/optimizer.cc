#include "nn/optimizer.h"

#include <algorithm>
#include <stdexcept>

#include "util/logging.h"

namespace threelc::nn {

MomentumSgd::MomentumSgd(MomentumOptions options) : options_(options) {}

void MomentumSgd::ApplyGradients(std::vector<ParamRef>& params, float lr) {
  for (auto& p : params) {
    float* vel = Velocity(p).data();
    float* w = p.value->data();
    const float* g = p.grad->data();
    const std::size_t n = p.value->size();
    const float wd = p.weight_decay ? options_.weight_decay : 0.0f;
    const float mu = options_.momentum;
    for (std::size_t i = 0; i < n; ++i) {
      MomentumUpdate(g[i], mu, wd, lr, vel[i], w[i]);
    }
  }
}

Tensor& MomentumSgd::Velocity(const ParamRef& p) {
  auto [it, inserted] = velocity_.try_emplace(p.name, p.value->shape());
  THREELC_CHECK_MSG(it->second.SameShape(*p.value), "velocity shape drift for "
                                                        << p.name);
  return it->second;
}

const Tensor* MomentumSgd::velocity(const std::string& name) const {
  auto it = velocity_.find(name);
  return it == velocity_.end() ? nullptr : &it->second;
}

void MomentumSgd::SaveState(util::ByteBuffer& out) const {
  std::vector<const std::string*> names;
  names.reserve(velocity_.size());
  for (const auto& [name, tensor] : velocity_) names.push_back(&name);
  std::sort(names.begin(), names.end(),
            [](const std::string* a, const std::string* b) { return *a < *b; });
  out.AppendU32(static_cast<std::uint32_t>(names.size()));
  for (const std::string* name : names) {
    const Tensor& v = velocity_.at(*name);
    out.AppendU32(static_cast<std::uint32_t>(name->size()));
    out.Append(name->data(), name->size());
    const auto& dims = v.shape().dims();
    out.AppendU32(static_cast<std::uint32_t>(dims.size()));
    for (std::int64_t d : dims) out.AppendU64(static_cast<std::uint64_t>(d));
    out.Append(v.data(), v.byte_size());
  }
}

void MomentumSgd::LoadState(util::ByteReader& in) {
  const std::uint32_t count = in.ReadU32();
  std::unordered_map<std::string, Tensor> restored;
  restored.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t name_len = in.ReadU32();
    util::ByteSpan name_bytes = in.ReadSpan(name_len);
    std::string name(reinterpret_cast<const char*>(name_bytes.data()),
                     name_bytes.size());
    const std::uint32_t rank = in.ReadU32();
    std::vector<std::int64_t> dims(rank);
    for (auto& d : dims) d = static_cast<std::int64_t>(in.ReadU64());
    Tensor v{tensor::Shape(dims)};
    in.ReadInto(v.data(), v.byte_size());
    if (!restored.emplace(std::move(name), std::move(v)).second) {
      throw std::runtime_error("optimizer: duplicate velocity entry");
    }
  }
  velocity_ = std::move(restored);
}

}  // namespace threelc::nn
