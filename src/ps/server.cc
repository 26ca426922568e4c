#include "ps/server.h"

#include <stdexcept>
#include <string>

#include "util/logging.h"

namespace threelc::ps {

namespace {

// The step's update of one tensor in one pass. Per element it performs the
// float operations of the unfused sequence, in its order: the gradient sum
// plus the last push, times 1/contributors (stored back: AggregatedGrad);
// nn::MomentumUpdate; delta = w - prev; prev = w. The buffers never
// overlap, which lets the loop vectorise without alias checks.
void UpdateTensor(std::size_t n, float inv, float mu, float wd, float lr,
                  float* __restrict agg, const float* __restrict last,
                  float* __restrict vel, float* __restrict w,
                  float* __restrict prev, float* __restrict delta) {
  for (std::size_t k = 0; k < n; ++k) {
    const float g = (agg[k] + last[k]) * inv;
    agg[k] = g;
    nn::MomentumUpdate(g, mu, wd, lr, vel[k], w[k]);
    delta[k] = w[k] - prev[k];
    prev[k] = w[k];
  }
}

}  // namespace

ParameterServer::ParameterServer(nn::Model& global_model,
                                 const TensorPlan& plan,
                                 std::shared_ptr<const Compressor> codec,
                                 nn::MomentumOptions optimizer_options)
    : model_(&global_model),
      plan_(&plan),
      codec_(std::move(codec)),
      optimizer_(optimizer_options),
      params_(global_model.Params()) {
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

ParameterServer::StepTimings ParameterServer::Step(
    const std::vector<std::vector<ByteBuffer>>& pushes,
    const std::vector<std::size_t>& contributors, float lr,
    const obs::SpanTarget& span,
    std::vector<compress::EncodeStats>* pull_stats) {
  THREELC_CHECK(!contributors.empty());
  obs::StageProfiler* prof = &obs::StageProfiler::Global();
  StepTimings ns;
  const std::size_t last = contributors.size() - 1;

  for (std::size_t c = 0; c <= last; ++c) {
    const std::size_t w = contributors[c];
    THREELC_CHECK(w < pushes.size() && pushes[w].size() == slots_.size());
    for (std::size_t t = 0; t < slots_.size(); ++t) {
      Slot& slot = slots_[t];
      const auto where = [&] {
        return " PUSH payload from worker " + std::to_string(w) + " tensor " +
               std::to_string(t);
      };
      ByteReader reader(pushes[w][t]);
      {
        obs::ScopedStage stage(prof, "decode", &ns.decode_ns, span);
        try {
          if (plan_->entry(t).compressed) {
            codec_->Decode(reader, slot.scratch);
          } else {
            reader.ReadInto(slot.scratch.data(), slot.scratch.byte_size());
          }
        } catch (const std::exception& e) {
          throw std::runtime_error("malformed" + where() + ": " + e.what());
        }
      }
      if (!reader.AtEnd()) {
        throw std::runtime_error("trailing bytes in" + where());
      }
      // The last contributor's values stay in scratch for the update pass.
      if (c == last) continue;
      obs::ScopedStage stage(prof, "aggregate", &ns.aggregate_ns, span);
      float* agg = slot.agg_grad.data();
      const float* src = slot.scratch.data();
      const std::size_t n = slot.agg_grad.size();
      if (c == 0) {
        // 0 + x, not a copy: the sum of one -0.0 is +0.0.
        for (std::size_t k = 0; k < n; ++k) agg[k] = 0.0f + src[k];
      } else {
        for (std::size_t k = 0; k < n; ++k) agg[k] += src[k];
      }
    }
  }

  {
    // Average, momentum SGD on the global parameters, delta and snapshot,
    // one pass per tensor. Every push decoded above, so a malformed one
    // has thrown before any model state changed.
    obs::ScopedStage stage(prof, "optimize", &ns.optimize_ns, span);
    const float inv = 1.0f / static_cast<float>(contributors.size());
    const nn::MomentumOptions& opt = optimizer_.options();
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      Slot& slot = slots_[i];
      const nn::ParamRef& p = params_[i];
      if (last == 0) slot.agg_grad.SetZero();  // the sum before the one push
      UpdateTensor(slot.agg_grad.size(), inv, opt.momentum,
                   p.weight_decay ? opt.weight_decay : 0.0f, lr,
                   slot.agg_grad.data(), slot.scratch.data(),
                   optimizer_.Velocity(p).data(), p.value->data(),
                   slot.prev_value.data(), slot.delta.data());
    }
  }

  {
    // Encode each post-update model delta once: the shared pull payload.
    obs::ScopedStage stage(prof, "encode", &ns.encode_ns, span);
    if (pull_stats != nullptr) {
      pull_stats->assign(slots_.size(), compress::EncodeStats{});
    }
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      Slot& slot = slots_[i];
      slot.pull_payload.Clear();
      if (plan_->entry(i).compressed) {
        codec_->Encode(slot.delta, *slot.pull_ctx, slot.pull_payload,
                       pull_stats != nullptr ? &(*pull_stats)[i] : nullptr);
      } else {
        slot.pull_payload.Append(slot.delta.data(), slot.delta.byte_size());
      }
    }
  }
  return ns;
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
  optimizer_.SaveState(out);
  out.AppendU32(static_cast<std::uint32_t>(slots_.size()));
  for (const Slot& slot : slots_) {
    out.Append(slot.prev_value.data(), slot.prev_value.byte_size());
    out.AppendU8(slot.pull_ctx ? 1 : 0);
    if (slot.pull_ctx) slot.pull_ctx->SaveState(out);
  }
}

void ParameterServer::LoadState(ByteReader& in) {
  optimizer_.LoadState(in);
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
