// Worker-side state-change transmission: compress local gradients for the
// push, decode shared model-delta pulls, and apply them to the local model
// (paper Fig. 2).
//
// Each worker keeps one push codec context per compressed tensor (the
// gradient-direction error-accumulation buffers live here) and applies
// decoded pull deltas additively to its local parameters. Because every
// worker decodes the same shared payload, local models stay identical
// across workers (BSP).
#pragma once

#include <memory>
#include <vector>

#include "compress/compressor.h"
#include "nn/model.h"
#include "ps/plan.h"

namespace threelc::ps {

using compress::Compressor;
using util::ByteBuffer;
using util::ByteReader;

class Worker {
 public:
  // `local_model` must outlive the worker; `codec` compresses gradient
  // pushes for the plan's compressed entries.
  Worker(int id, nn::Model& local_model, const TensorPlan& plan,
         std::shared_ptr<const Compressor> codec);

  int id() const { return id_; }
  nn::Model& model() { return *model_; }

  // Encode this worker's gradient for tensor `idx` (from the local model's
  // grad tensor) into `out`. Returns the payload byte count. When `stats`
  // is non-null and the entry is compressed, the codec fills it with
  // per-encode instrumentation (symbol counts, zero-run bytes, residual L2).
  std::size_t EncodePush(std::size_t idx, ByteBuffer& out,
                         compress::EncodeStats* stats = nullptr);

  // L2 norm of all push error-accumulation state: sqrt of the sum, over
  // the compressed tensors in plan order, of each context's ResidualL2()
  // squared (contexts of codecs without one add nothing). A read of the
  // state the last EncodePush calls left; 0 when no context keeps one.
  double ResidualL2() const;

  // Decode a pull payload for tensor `idx` and add the model delta to the
  // local parameter value.
  void ApplyPull(std::size_t idx, ByteReader& in);

  // Total codec state (error-accumulation buffers) held by this worker.
  std::size_t CodecStateBytes() const;

  // Serialize / restore every push context's persistent codec state (the
  // gradient-direction error-accumulation buffers), the blob checkpoint v3
  // carries so a restarted worker resumes the exact quantization
  // trajectory. LoadCodecState throws std::runtime_error when the blob was
  // written under a different plan.
  void SaveCodecState(ByteBuffer& out) const;
  void LoadCodecState(ByteReader& in);

 private:
  int id_;
  nn::Model* model_;
  const TensorPlan* plan_;
  std::shared_ptr<const Compressor> codec_;
  std::vector<nn::ParamRef> params_;
  std::vector<std::unique_ptr<compress::Context>> push_ctx_;
  std::vector<tensor::Tensor> pull_scratch_;  // pull decode targets [t]
};

}  // namespace threelc::ps
