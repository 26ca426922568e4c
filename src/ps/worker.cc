#include "ps/worker.h"

#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>

#include "tensor/tensor_ops.h"
#include "util/logging.h"

namespace threelc::ps {

Worker::Worker(int id, nn::Model& local_model, const TensorPlan& plan,
               std::shared_ptr<const Compressor> codec)
    : id_(id),
      model_(&local_model),
      plan_(&plan),
      codec_(std::move(codec)),
      params_(local_model.Params()) {
  THREELC_CHECK_MSG(params_.size() == plan.size(),
                    "plan/model tensor count mismatch");
  push_ctx_.resize(plan.size());
  pull_scratch_.reserve(plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const auto& e = plan.entry(i);
    THREELC_CHECK_MSG(e.shape == params_[i].value->shape(),
                      "plan/model shape mismatch for " << e.name);
    if (e.compressed) push_ctx_[i] = codec_->MakeContext(e.shape);
    pull_scratch_.emplace_back(e.shape);
  }
}

std::size_t Worker::EncodePush(std::size_t idx, ByteBuffer& out,
                               compress::EncodeStats* stats) {
  THREELC_CHECK(idx < params_.size());
  const std::size_t before = out.size();
  const tensor::Tensor& grad = *params_[idx].grad;
  if (plan_->entry(idx).compressed) {
    codec_->Encode(grad, *push_ctx_[idx], out, stats);
  } else {
    out.Append(grad.data(), grad.byte_size());
    if (stats != nullptr) {
      stats->elements = static_cast<std::size_t>(grad.num_elements());
      stats->payload_bytes = grad.byte_size();
    }
  }
  return out.size() - before;
}

double Worker::ResidualL2() const {
  double sq = 0.0;
  for (const auto& ctx : push_ctx_) {
    if (ctx == nullptr) continue;
    if (const std::optional<double> l2 = ctx->ResidualL2()) sq += *l2 * *l2;
  }
  return std::sqrt(sq);
}

void Worker::ApplyPull(std::size_t idx, ByteReader& in) {
  THREELC_CHECK(idx < params_.size());
  tensor::Tensor& delta = pull_scratch_[idx];
  if (plan_->entry(idx).compressed) {
    codec_->Decode(in, delta);
  } else {
    in.ReadInto(delta.data(), delta.byte_size());
  }
  tensor::Add(*params_[idx].value, delta);
}

void Worker::SaveCodecState(ByteBuffer& out) const {
  out.AppendU32(static_cast<std::uint32_t>(push_ctx_.size()));
  for (const auto& ctx : push_ctx_) {
    out.AppendU8(ctx ? 1 : 0);
    if (ctx) ctx->SaveState(out);
  }
}

void Worker::LoadCodecState(ByteReader& in) {
  const std::uint32_t count = in.ReadU32();
  if (count != push_ctx_.size()) {
    throw std::runtime_error("codec state mismatch: blob has " +
                             std::to_string(count) + " contexts, plan has " +
                             std::to_string(push_ctx_.size()));
  }
  for (auto& ctx : push_ctx_) {
    const bool present = in.ReadU8() != 0;
    if (present != (ctx != nullptr)) {
      throw std::runtime_error(
          "codec state mismatch: compressed-entry set differs from the plan");
    }
    if (ctx) ctx->LoadState(in);
  }
}

std::size_t Worker::CodecStateBytes() const {
  std::size_t total = 0;
  for (const auto& ctx : push_ctx_) {
    if (ctx) total += ctx->StateBytes();
  }
  return total;
}

}  // namespace threelc::ps
