#include "ps/server.h"

#include <stdexcept>
#include <string>

#include "tensor/tensor_ops.h"
#include "util/logging.h"

namespace threelc::ps {

ParameterServer::ParameterServer(nn::Model& global_model,
                                 const TensorPlan& plan,
                                 std::shared_ptr<const Compressor> codec,
                                 nn::MomentumOptions optimizer_options)
    : ParameterServer(global_model, plan, std::move(codec),
                      std::make_unique<nn::MomentumSgd>(optimizer_options)) {}

ParameterServer::ParameterServer(nn::Model& global_model,
                                 const TensorPlan& plan,
                                 std::shared_ptr<const Compressor> codec,
                                 std::unique_ptr<nn::Optimizer> optimizer)
    : model_(&global_model),
      plan_(&plan),
      codec_(std::move(codec)),
      optimizer_(std::move(optimizer)),
      params_(global_model.Params()) {
  THREELC_CHECK_MSG(optimizer_ != nullptr, "server needs an optimizer");
  THREELC_CHECK_MSG(params_.size() == plan.size(),
                    "plan/model tensor count mismatch");
  slots_.reserve(plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const auto& e = plan.entry(i);
    THREELC_CHECK_MSG(e.shape == params_[i].value->shape(),
                      "plan/model shape mismatch for " << e.name);
    Slot slot;
    slot.agg_grad = tensor::Tensor(e.shape);
    slot.scratch = tensor::Tensor(e.shape);
    slot.prev_value = *params_[i].value;
    slot.delta = tensor::Tensor(e.shape);
    if (e.compressed) slot.pull_ctx = codec_->MakeContext(e.shape);
    slots_.push_back(std::move(slot));
  }
}

void ParameterServer::BeginStep() {
  for (auto& slot : slots_) slot.agg_grad.SetZero();
  step_timings_ = StepTimings{};
}

void ParameterServer::ReceivePush(std::size_t idx, ByteReader& payload,
                                  bool aggregate,
                                  const obs::SpanTarget& span) {
  THREELC_CHECK(idx < slots_.size());
  Slot& slot = slots_[idx];
  obs::StageProfiler* prof = &obs::StageProfiler::Global();
  {
    obs::ScopedStage stage(prof, "decode", &step_timings_.decode_ns, span);
    if (plan_->entry(idx).compressed) {
      codec_->Decode(payload, slot.scratch);
    } else {
      payload.ReadInto(slot.scratch.data(), slot.scratch.byte_size());
    }
  }
  if (aggregate) {
    obs::ScopedStage stage(prof, "aggregate", &step_timings_.aggregate_ns,
                           span);
    tensor::Add(slot.agg_grad, slot.scratch);
  }
}

void ParameterServer::Update(float lr, int num_contributions) {
  THREELC_CHECK(num_contributions >= 1);
  const float inv = 1.0f / static_cast<float>(num_contributions);
  // Install averaged gradients into the model's grad tensors, then step the
  // optimizer on the global parameters.
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    Slot& slot = slots_[i];
    tensor::Scale(slot.agg_grad, inv);
    *params_[i].grad = slot.agg_grad;
  }
  optimizer_->ApplyGradients(params_, lr);
}

void ParameterServer::PreparePulls(std::vector<compress::EncodeStats>* stats) {
  if (stats != nullptr) {
    stats->assign(slots_.size(), compress::EncodeStats{});
  }
  // Compute per-tensor model deltas and encode shared pull payloads.
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    Slot& slot = slots_[i];
    const tensor::Tensor& value = *params_[i].value;
    float* delta = slot.delta.data();
    const float* now = value.data();
    const float* prev = slot.prev_value.data();
    for (std::size_t k = 0; k < value.size(); ++k) delta[k] = now[k] - prev[k];
    slot.pull_payload.Clear();
    if (plan_->entry(i).compressed) {
      codec_->Encode(slot.delta, *slot.pull_ctx, slot.pull_payload,
                     stats != nullptr ? &(*stats)[i] : nullptr);
    } else {
      slot.pull_payload.Append(slot.delta.data(), slot.delta.byte_size());
    }
    slot.prev_value = value;
  }
}

void ParameterServer::UpdateAndPreparePulls(float lr, int num_contributions) {
  Update(lr, num_contributions);
  PreparePulls();
}

ByteSpan ParameterServer::PullPayload(std::size_t idx) const {
  THREELC_CHECK(idx < slots_.size());
  return slots_[idx].pull_payload.span();
}

const tensor::Tensor& ParameterServer::AggregatedGrad(std::size_t idx) const {
  THREELC_CHECK(idx < slots_.size());
  return slots_[idx].agg_grad;
}

void ParameterServer::SaveState(ByteBuffer& out) const {
  optimizer_->SaveState(out);
  out.AppendU32(static_cast<std::uint32_t>(slots_.size()));
  for (const Slot& slot : slots_) {
    out.Append(slot.prev_value.data(), slot.prev_value.byte_size());
    out.AppendU8(slot.pull_ctx ? 1 : 0);
    if (slot.pull_ctx) slot.pull_ctx->SaveState(out);
  }
}

void ParameterServer::LoadState(ByteReader& in) {
  optimizer_->LoadState(in);
  const std::uint32_t count = in.ReadU32();
  if (count != slots_.size()) {
    throw std::runtime_error("server state mismatch: blob has " +
                             std::to_string(count) + " slots, plan has " +
                             std::to_string(slots_.size()));
  }
  for (Slot& slot : slots_) {
    in.ReadInto(slot.prev_value.data(), slot.prev_value.byte_size());
    const bool present = in.ReadU8() != 0;
    if (present != (slot.pull_ctx != nullptr)) {
      throw std::runtime_error(
          "server state mismatch: compressed-entry set differs from the plan");
    }
    if (slot.pull_ctx) slot.pull_ctx->LoadState(in);
  }
}

}  // namespace threelc::ps
