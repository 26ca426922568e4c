// Sequential model container.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/layer.h"
#include "nn/loss.h"

namespace threelc::nn {

class Model {
 public:
  Model() = default;
  Model(Model&&) = default;
  Model& operator=(Model&&) = default;

  // Append a layer; returns a reference for inline chaining.
  Layer& Add(std::unique_ptr<Layer> layer);

  template <typename L, typename... Args>
  L& Emplace(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L& ref = *layer;
    Add(std::move(layer));
    return ref;
  }

  std::size_t num_layers() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_[i]; }

  // Forward through all layers.
  Tensor Forward(const Tensor& input, bool training);
  // Backward through all layers (after a Forward on the same batch).
  // Fills every parameter gradient; returns dL/d(input).
  Tensor Backward(const Tensor& grad_output);

  // All parameters, in deterministic layer order.
  std::vector<ParamRef> Params();
  // Total number of scalar parameters.
  std::int64_t NumParameters();

  // All non-trainable buffers (batch-norm running statistics).
  std::vector<Tensor*> Buffers();

  // Copy parameter *values* (not gradients) from another model with an
  // identical architecture. Used to clone the global model onto workers.
  void CopyParamsFrom(Model& other);

  // Copy non-trainable buffers from another model (e.g. the designated
  // batch-norm worker's running statistics onto the global eval model).
  void CopyBuffersFrom(Model& other);

  // Convenience: forward + loss on a labeled batch (training mode), filling
  // gradients via backward.
  LossResult TrainStep(const Tensor& input,
                       const std::vector<std::int32_t>& labels);

  // Forward in eval mode and compute top-1 accuracy.
  double Evaluate(const Tensor& input, const std::vector<std::int32_t>& labels);

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace threelc::nn
