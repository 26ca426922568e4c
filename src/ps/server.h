// Parameter server: owns the global model, aggregates gradient pushes,
// runs the (momentum) optimizer, and prepares *shared* compressed
// model-delta pulls (paper Fig. 2).
//
// Shared pull compression (§3, Fig. 2b): because every worker must apply
// the identical model delta, the server encodes each delta tensor once per
// step and all workers read the same payload. Compression CPU is paid
// once; wire traffic is still paid per worker.
//
// Lossy pulls and convergence: the server tracks the workers' common view
// implicitly through the pull codec's error-accumulation context — each
// step it feeds the *exact* global delta into the codec, and whatever the
// codec did not transmit stays in the codec's residual buffer to be sent
// at a later step.
#pragma once

#include <memory>
#include <vector>

#include "compress/compressor.h"
#include "nn/model.h"
#include "nn/optimizer.h"
#include "obs/stage_profiler.h"
#include "ps/plan.h"

namespace threelc::ps {

using compress::Compressor;
using util::ByteBuffer;
using util::ByteReader;
using util::ByteSpan;

class ParameterServer {
 public:
  // `global_model` must outlive the server; `codec` compresses model-delta
  // pulls for the plan's compressed entries; `optimizer` runs on the
  // aggregated gradients (momentum SGD in the paper's configuration).
  ParameterServer(nn::Model& global_model, const TensorPlan& plan,
                  std::shared_ptr<const Compressor> codec,
                  std::unique_ptr<nn::Optimizer> optimizer);

  // Convenience: momentum-SGD server (the paper's setup).
  ParameterServer(nn::Model& global_model, const TensorPlan& plan,
                  std::shared_ptr<const Compressor> codec,
                  nn::MomentumOptions optimizer_options);

  const TensorPlan& plan() const { return *plan_; }
  nn::Model& global_model() { return *model_; }

  // Start a synchronous step: clears gradient accumulators and the
  // per-step decode/aggregate timing split.
  void BeginStep();

  // Decode one worker's gradient push for tensor `idx`. When `aggregate`
  // is false the payload is consumed but discarded — how the server treats
  // pushes arriving after the backup-worker quorum is met (§2.1). The
  // codec decode and the gradient add are the "decode" and "aggregate"
  // stages, traced on `span` when it names an enabled tracer.
  void ReceivePush(std::size_t idx, ByteReader& payload, bool aggregate = true,
                   const obs::SpanTarget& span = {});

  // Wall time this step spent in ReceivePush's decode and aggregate
  // stages, summed over calls — the decode/aggregate phases of the RunStep
  // breakdown. Reset by BeginStep.
  struct StepTimings {
    std::uint64_t decode_ns = 0;
    std::uint64_t aggregate_ns = 0;
  };
  const StepTimings& step_timings() const { return step_timings_; }

  // After all pushes: average gradients over `num_contributions` and run
  // the optimizer on the global model.
  void Update(float lr, int num_contributions);

  // Encode this step's shared pull payloads from the post-update model
  // deltas. When `stats` is non-null it is resized to the plan size and
  // each compressed entry's encode instrumentation is recorded in place.
  void PreparePulls(std::vector<compress::EncodeStats>* stats = nullptr);

  // Convenience: Update followed by PreparePulls.
  void UpdateAndPreparePulls(float lr, int num_contributions);

  // The shared compressed pull payload for tensor `idx` (valid until the
  // next UpdateAndPreparePulls).
  ByteSpan PullPayload(std::size_t idx) const;

  // Aggregated (averaged) gradient for tensor idx — exposed for tests.
  const tensor::Tensor& AggregatedGrad(std::size_t idx) const;

  // Serialize/restore everything beyond the model tensors the server
  // carries across steps: the optimizer's state (momentum velocities), the
  // per-slot prev_value snapshots PreparePulls diffs against, and the pull
  // codec's error-accumulation contexts. Together with the model this is
  // the full server-side recurrence, so a server restarted from a
  // checkpoint holding this blob continues a bitwise-identical trajectory.
  // Meaningful only between steps (after PreparePulls, before the next
  // BeginStep); agg_grad and scratch are transient and not saved.
  void SaveState(ByteBuffer& out) const;
  // Throws std::runtime_error when the blob disagrees with the plan.
  void LoadState(ByteReader& in);

 private:
  nn::Model* model_;
  const TensorPlan* plan_;
  std::shared_ptr<const Compressor> codec_;
  std::unique_ptr<nn::Optimizer> optimizer_;
  std::vector<nn::ParamRef> params_;

  struct Slot {
    tensor::Tensor agg_grad;    // sum of decoded pushes this step
    tensor::Tensor scratch;     // decode target
    tensor::Tensor prev_value;  // snapshot for delta computation
    tensor::Tensor delta;       // scratch: value - prev_value
    std::unique_ptr<compress::Context> pull_ctx;  // compressed entries only
    ByteBuffer pull_payload;
  };
  std::vector<Slot> slots_;
  StepTimings step_timings_;
};

}  // namespace threelc::ps
