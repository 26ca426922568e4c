// Layer interface for the NN training substrate.
//
// Layers own their parameter and gradient tensors and expose them through
// ParamRef so the parameter-server substrate can push gradients and apply
// model deltas per tensor — the same per-layer granularity the paper's
// TensorFlow prototype uses. `compress` marks whether a tensor goes through
// the codec; small layers (batch normalization) set it false, reproducing
// the paper's small-layer bypass (§5.1).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"
#include "util/rng.h"

namespace threelc::nn {

using tensor::Shape;
using tensor::Tensor;

struct ParamRef {
  std::string name;
  Tensor* value = nullptr;
  Tensor* grad = nullptr;
  // Whether state changes for this tensor go through traffic compression.
  bool compress = true;
  // Whether weight decay applies (weights yes; biases/BN parameters no).
  bool weight_decay = true;
};

class Layer {
 public:
  virtual ~Layer() = default;

  virtual std::string name() const = 0;

  // Forward pass on a batch; `training` toggles batch-norm statistics.
  // Implementations may cache activations needed by Backward.
  virtual Tensor Forward(const Tensor& input, bool training) = 0;

  // Backward pass: consumes dL/d(output), overwrites every parameter
  // gradient (it never accumulates into one), and returns dL/d(input).
  // Must follow a Forward call on the same batch.
  virtual Tensor Backward(const Tensor& grad_output) = 0;

  // Parameter tensors (empty for stateless layers).
  virtual std::vector<ParamRef> Params() { return {}; }

  // Non-trainable state (e.g. batch-norm running statistics). In the
  // distributed setup one designated worker owns these and the trainer
  // copies them onto the global model before evaluation (paper §5.2).
  virtual std::vector<Tensor*> Buffers() { return {}; }
};

// He-normal initialization for weight tensors feeding ReLU units:
// stddev = sqrt(2 / fan_in).
void HeInit(Tensor& w, std::int64_t fan_in, util::Rng& rng);

// Glorot-uniform initialization: U[-a, a], a = sqrt(6 / (fan_in+fan_out)).
void GlorotInit(Tensor& w, std::int64_t fan_in, std::int64_t fan_out,
                util::Rng& rng);

}  // namespace threelc::nn
