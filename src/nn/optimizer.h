// Momentum SGD with decoupled weight decay — the paper's local optimizer
// (TensorFlow MomentumOptimizer, momentum 0.9, weight decay 1e-4; §5.2).
//
// In the parameter-server architecture the *server* runs the optimizer on
// aggregated gradients; the resulting parameter changes are the model
// deltas pulled by workers. ApplyGradients therefore returns nothing but
// mutates the parameter tensors in place; callers snapshot values before /
// after to obtain deltas.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "nn/layer.h"
#include "util/byte_buffer.h"

namespace threelc::nn {

struct MomentumOptions {
  float momentum = 0.9f;
  float weight_decay = 1e-4f;
};

// The parameter server owns one instance and runs it on aggregated
// gradients each step.
class MomentumSgd {
 public:
  explicit MomentumSgd(MomentumOptions options = {});

  // Update each parameter in place: v = mu*v + (g + wd*w); w -= lr*v.
  // Weight decay applies only to ParamRefs with weight_decay = true.
  void ApplyGradients(std::vector<ParamRef>& params, float lr);

  // Velocity buffer for one parameter (created lazily; keyed by name).
  const Tensor* velocity(const std::string& name) const;

  // Velocities, serialized sorted by parameter name (the map's iteration
  // order is not deterministic; the file format must be). They are part
  // of the server's recurrence, exactly like the codec's error-accumulation
  // buffers, so a crashed server resumes a bitwise-identical trajectory.
  void SaveState(util::ByteBuffer& out) const;
  // Replaces all velocities. Throws std::runtime_error on malformed input.
  void LoadState(util::ByteReader& in);

 private:
  MomentumOptions options_;
  std::unordered_map<std::string, Tensor> velocity_;
};

}  // namespace threelc::nn
