#include "nn/model.h"

#include "util/logging.h"

namespace threelc::nn {

Layer& Model::Add(std::unique_ptr<Layer> layer) {
  layers_.push_back(std::move(layer));
  return *layers_.back();
}

Tensor Model::Forward(const Tensor& input, bool training) {
  Tensor x = input;
  for (auto& layer : layers_) x = layer->Forward(x, training);
  return x;
}

Tensor Model::Backward(const Tensor& grad_output) {
  Tensor g = grad_output;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    g = (*it)->Backward(g);
  }
  return g;
}

std::vector<ParamRef> Model::Params() {
  std::vector<ParamRef> params;
  for (auto& layer : layers_) {
    for (auto& p : layer->Params()) params.push_back(p);
  }
  return params;
}

std::int64_t Model::NumParameters() {
  std::int64_t n = 0;
  for (auto& p : Params()) n += p.value->num_elements();
  return n;
}

std::vector<Tensor*> Model::Buffers() {
  std::vector<Tensor*> buffers;
  for (auto& layer : layers_) {
    for (auto* b : layer->Buffers()) buffers.push_back(b);
  }
  return buffers;
}

void Model::CopyParamsFrom(Model& other) {
  auto mine = Params();
  auto theirs = other.Params();
  THREELC_CHECK_MSG(mine.size() == theirs.size(),
                    "architecture mismatch in CopyParamsFrom");
  for (std::size_t i = 0; i < mine.size(); ++i) {
    THREELC_CHECK_MSG(mine[i].value->SameShape(*theirs[i].value),
                      "shape mismatch for " << mine[i].name);
    *mine[i].value = *theirs[i].value;
  }
}

void Model::CopyBuffersFrom(Model& other) {
  auto mine = Buffers();
  auto theirs = other.Buffers();
  THREELC_CHECK_MSG(mine.size() == theirs.size(),
                    "architecture mismatch in CopyBuffersFrom");
  for (std::size_t i = 0; i < mine.size(); ++i) {
    THREELC_CHECK(mine[i]->SameShape(*theirs[i]));
    *mine[i] = *theirs[i];
  }
}

LossResult Model::TrainStep(const Tensor& input,
                            const std::vector<std::int32_t>& labels) {
  Tensor logits = Forward(input, /*training=*/true);
  LossResult result = SoftmaxCrossEntropy(logits, labels);
  Backward(result.grad_logits);
  return result;
}

double Model::Evaluate(const Tensor& input,
                       const std::vector<std::int32_t>& labels) {
  Tensor logits = Forward(input, /*training=*/false);
  return Accuracy(logits, labels);
}

}  // namespace threelc::nn
