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
  // pulls for the plan's compressed entries; momentum SGD (the paper's
  // optimizer) runs on the aggregated gradients.
  ParameterServer(nn::Model& global_model, const TensorPlan& plan,
                  std::shared_ptr<const Compressor> codec,
                  nn::MomentumOptions optimizer_options);

  const TensorPlan& plan() const { return *plan_; }
  nn::Model& global_model() { return *model_; }

  // Wall time one Step spent in each of its phases — the decode,
  // aggregate, optimize and encode entries of a step's phases_ms.
  struct StepTimings {
    std::uint64_t decode_ns = 0;
    std::uint64_t aggregate_ns = 0;
    std::uint64_t optimize_ns = 0;
    std::uint64_t encode_ns = 0;
  };

  // One synchronous server step (paper Fig. 2):
  //  - decode: each contributor's push `pushes[w][t]` (one stage-1 codec
  //    payload per tensor), for every w in `contributors` (ascending
  //    worker ids), through the codec, worker-major;
  //  - aggregate: add every contributor's push but the last into the
  //    tensor's gradient sum, in that order, so every caller performs the
  //    same float additions (the first writes 0 + x);
  //  - optimize: one pass per tensor that adds the last push, averages
  //    over contributors.size() into AggregatedGrad, runs momentum SGD on
  //    the global model, and writes the model delta and the new snapshot;
  //  - encode: compress each model delta once into the shared pull
  //    payload (§3) all workers apply.
  // Every float operation, and its order, is that of summing from zero,
  // scaling, MomentumSgd::ApplyGradients, then delta and snapshot, so the
  // result is theirs bit for bit. The global model's grad tensors are
  // neither read nor written. Pushes of workers not in `contributors` are
  // never read. Each phase is one ScopedStage per call (decode one per
  // tensor per contributor, aggregate one per tensor per contributor but
  // the last), traced on `span` when it names an enabled tracer. When
  // `pull_stats` is non-null it is resized to the plan size and each
  // compressed entry's encode instrumentation is recorded in place.
  // Throws std::runtime_error naming the worker and tensor when a push
  // does not decode or leaves trailing bytes; every push is decoded before
  // the model, the optimizer or the pull state changes.
  StepTimings Step(const std::vector<std::vector<ByteBuffer>>& pushes,
                   const std::vector<std::size_t>& contributors, float lr,
                   const obs::SpanTarget& span = {},
                   std::vector<compress::EncodeStats>* pull_stats = nullptr);

  // The shared compressed pull payload for tensor `idx` (valid until the
  // next Step).
  ByteSpan PullPayload(std::size_t idx) const;

  // Averaged gradient for tensor idx after the last Step — exposed for
  // tests.
  const tensor::Tensor& AggregatedGrad(std::size_t idx) const;

  // Serialize/restore everything beyond the model tensors the server
  // carries across steps: the optimizer's state (momentum velocities), the
  // per-slot prev_value snapshots pull encoding diffs against, and the
  // pull codec's error-accumulation contexts. Together with the model this
  // is the full server-side recurrence, so a server restarted from a
  // checkpoint holding this blob continues a bitwise-identical trajectory.
  // Meaningful only between Steps; agg_grad and scratch are transient and
  // not saved.
  void SaveState(ByteBuffer& out) const;
  // Throws std::runtime_error when the blob disagrees with the plan.
  void LoadState(ByteReader& in);

 private:
  nn::Model* model_;
  const TensorPlan* plan_;
  std::shared_ptr<const Compressor> codec_;
  nn::MomentumSgd optimizer_;
  std::vector<nn::ParamRef> params_;

  struct Slot {
    tensor::Tensor agg_grad;    // push sum, then the averaged gradient
    tensor::Tensor scratch;     // decode target; holds the last push
    tensor::Tensor prev_value;  // snapshot for delta computation
    tensor::Tensor delta;       // scratch: value - prev_value
    std::unique_ptr<compress::Context> pull_ctx;  // compressed entries only
    ByteBuffer pull_payload;
  };
  std::vector<Slot> slots_;
};

}  // namespace threelc::ps
