// Tests for the NN substrate: layers (numerical gradient checks), loss,
// optimizer, schedules, and end-to-end learning on a toy task.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <vector>

#include "data/synthetic.h"
#include "nn/activation.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/loss.h"
#include "nn/lr_schedule.h"
#include "nn/model.h"
#include "nn/optimizer.h"
#include "tensor/tensor_ops.h"
#include "train/model_zoo.h"
#include "util/rng.h"

namespace threelc::nn {
namespace {

using tensor::Shape;
using tensor::Tensor;

Tensor RandomTensor(Shape shape, std::uint64_t seed, float stddev = 1.0f) {
  util::Rng rng(seed);
  Tensor t(std::move(shape));
  tensor::FillNormal(t, rng, 0.0f, stddev);
  return t;
}

// Central-difference numerical gradient of a scalar loss with respect to
// one tensor, compared against the analytic gradient.
void CheckGradient(Tensor& variable, const Tensor& analytic_grad,
                   const std::function<double()>& loss_fn,
                   float eps = 1e-3f, float tol = 2e-2f) {
  ASSERT_TRUE(variable.SameShape(analytic_grad));
  for (std::size_t i = 0; i < variable.size(); i += 7) {  // sample entries
    const float orig = variable[i];
    variable[i] = orig + eps;
    const double up = loss_fn();
    variable[i] = orig - eps;
    const double down = loss_fn();
    variable[i] = orig;
    const double numeric = (up - down) / (2.0 * eps);
    EXPECT_NEAR(analytic_grad[i], numeric,
                tol * std::max(1.0, std::fabs(numeric)))
        << "grad mismatch at index " << i;
  }
}

// ---------- Loss ----------

TEST(SoftmaxCrossEntropy, UniformLogitsGiveLogC) {
  Tensor logits(Shape{2, 10});
  LossResult r = SoftmaxCrossEntropy(logits, {3, 7});
  EXPECT_NEAR(r.loss, std::log(10.0), 1e-5);
}

TEST(SoftmaxCrossEntropy, PerfectPredictionLowLoss) {
  Tensor logits(Shape{1, 3}, {100.0f, 0.0f, 0.0f});
  LossResult r = SoftmaxCrossEntropy(logits, {0});
  EXPECT_LT(r.loss, 1e-6);
  EXPECT_EQ(r.correct, 1u);
}

TEST(SoftmaxCrossEntropy, GradientSumsToZeroPerRow) {
  Tensor logits = RandomTensor(Shape{4, 5}, 1);
  LossResult r = SoftmaxCrossEntropy(logits, {0, 1, 2, 3});
  for (int b = 0; b < 4; ++b) {
    double row = 0.0;
    for (int c = 0; c < 5; ++c) {
      row += r.grad_logits[static_cast<std::size_t>(b * 5 + c)];
    }
    EXPECT_NEAR(row, 0.0, 1e-6);
  }
}

TEST(SoftmaxCrossEntropy, GradientMatchesNumerical) {
  Tensor logits = RandomTensor(Shape{3, 4}, 2);
  const std::vector<std::int32_t> labels = {1, 3, 0};
  LossResult r = SoftmaxCrossEntropy(logits, labels);
  auto loss_fn = [&] { return SoftmaxCrossEntropy(logits, labels).loss; };
  CheckGradient(logits, r.grad_logits, loss_fn);
}

TEST(SoftmaxCrossEntropy, NumericallyStableWithHugeLogits) {
  Tensor logits(Shape{1, 3}, {1e4f, -1e4f, 0.0f});
  LossResult r = SoftmaxCrossEntropy(logits, {1});
  EXPECT_TRUE(std::isfinite(r.loss));
}

TEST(Accuracy, CountsTopOne) {
  Tensor logits(Shape{3, 2}, {1.0f, 0.0f, 0.0f, 1.0f, 1.0f, 0.0f});
  EXPECT_DOUBLE_EQ(Accuracy(logits, {0, 1, 0}), 1.0);
  EXPECT_NEAR(Accuracy(logits, {1, 1, 0}), 2.0 / 3.0, 1e-9);
}

// ---------- Dense ----------

TEST(Dense, ForwardMatchesManualComputation) {
  util::Rng rng(3);
  Dense layer("fc", 2, 3, rng);
  auto params = layer.Params();
  // Set W and b to known values.
  Tensor& w = *params[0].value;
  Tensor& b = *params[1].value;
  w = Tensor(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  b = Tensor(Shape{3}, {0.5f, -0.5f, 1.0f});
  Tensor in(Shape{1, 2}, {1.0f, 2.0f});
  Tensor out = layer.Forward(in, true);
  EXPECT_FLOAT_EQ(out[0], 1 + 8 + 0.5f);
  EXPECT_FLOAT_EQ(out[1], 2 + 10 - 0.5f);
  EXPECT_FLOAT_EQ(out[2], 3 + 12 + 1.0f);
}

TEST(Dense, GradientsMatchNumerical) {
  util::Rng rng(4);
  Dense layer("fc", 5, 4, rng);
  Tensor in = RandomTensor(Shape{3, 5}, 5);
  const std::vector<std::int32_t> labels = {0, 2, 1};
  auto loss_fn = [&] {
    Tensor logits = layer.Forward(in, true);
    return SoftmaxCrossEntropy(logits, labels).loss;
  };
  Tensor logits = layer.Forward(in, true);
  LossResult r = SoftmaxCrossEntropy(logits, labels);
  Tensor grad_in = layer.Backward(r.grad_logits);
  auto params = layer.Params();
  CheckGradient(*params[0].value, *params[0].grad, loss_fn);
  CheckGradient(*params[1].value, *params[1].grad, loss_fn);
  CheckGradient(in, grad_in, loss_fn);
}

TEST(Dense, ParamNamesAndFlags) {
  util::Rng rng(6);
  Dense layer("fc1", 4, 2, rng);
  auto params = layer.Params();
  ASSERT_EQ(params.size(), 2u);
  EXPECT_EQ(params[0].name, "fc1/W");
  EXPECT_TRUE(params[0].compress);
  EXPECT_TRUE(params[0].weight_decay);
  EXPECT_EQ(params[1].name, "fc1/b");
  EXPECT_FALSE(params[1].weight_decay);
}

// ---------- ReLU / Flatten ----------

TEST(Relu, ForwardClampsNegatives) {
  Relu relu;
  Tensor in(Shape{4}, {-1.0f, 0.0f, 2.0f, -0.5f});
  Tensor out = relu.Forward(in, true);
  EXPECT_EQ(out[0], 0.0f);
  EXPECT_EQ(out[1], 0.0f);
  EXPECT_EQ(out[2], 2.0f);
  EXPECT_EQ(out[3], 0.0f);
}

TEST(Relu, BackwardMasksGradient) {
  Relu relu;
  Tensor in(Shape{3}, {-1.0f, 1.0f, 3.0f});
  relu.Forward(in, true);
  Tensor g(Shape{3}, {5.0f, 5.0f, 5.0f});
  Tensor gin = relu.Backward(g);
  EXPECT_EQ(gin[0], 0.0f);
  EXPECT_EQ(gin[1], 5.0f);
  EXPECT_EQ(gin[2], 5.0f);
}

TEST(Flatten, RoundTripShapes) {
  Flatten flat;
  Tensor in = RandomTensor(Shape{2, 3, 4, 5}, 7);
  Tensor out = flat.Forward(in, true);
  EXPECT_EQ(out.shape(), Shape({2, 60}));
  Tensor back = flat.Backward(out);
  EXPECT_EQ(back.shape(), in.shape());
  EXPECT_EQ(tensor::MaxAbsDiff(back, in), 0.0f);
}

// ---------- BatchNorm ----------

TEST(BatchNorm, NormalizesBatchInTraining) {
  BatchNorm1d bn("bn", 4);
  Tensor in = RandomTensor(Shape{64, 4}, 8, 3.0f);
  Tensor out = bn.Forward(in, true);
  // Per-feature mean ~0, var ~1 after normalization (gamma=1, beta=0).
  for (int j = 0; j < 4; ++j) {
    double mean = 0.0, var = 0.0;
    for (int i = 0; i < 64; ++i) mean += out[static_cast<std::size_t>(i * 4 + j)];
    mean /= 64.0;
    for (int i = 0; i < 64; ++i) {
      const double d = out[static_cast<std::size_t>(i * 4 + j)] - mean;
      var += d * d;
    }
    var /= 64.0;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(BatchNorm, RunningStatsConvergeToDataStats) {
  BatchNorm1d bn("bn", 2, /*momentum=*/0.5f);
  util::Rng rng(9);
  for (int step = 0; step < 200; ++step) {
    Tensor in(Shape{128, 2});
    for (std::size_t i = 0; i < in.size(); i += 2) {
      in[i] = rng.NormalFloat(3.0f, 2.0f);
      in[i + 1] = rng.NormalFloat(-1.0f, 0.5f);
    }
    bn.Forward(in, true);
  }
  EXPECT_NEAR(bn.running_mean()[0], 3.0, 0.3);
  EXPECT_NEAR(bn.running_mean()[1], -1.0, 0.1);
  EXPECT_NEAR(std::sqrt(bn.running_var()[0]), 2.0, 0.3);
}

TEST(BatchNorm, EvalUsesRunningStats) {
  BatchNorm1d bn("bn", 1);
  // Never trained: running mean 0, var 1 -> eval is near-identity.
  Tensor in(Shape{2, 1}, {1.0f, -1.0f});
  Tensor out = bn.Forward(in, false);
  EXPECT_NEAR(out[0], 1.0f, 1e-4);
  EXPECT_NEAR(out[1], -1.0f, 1e-4);
}

TEST(BatchNorm, GradientsMatchNumerical) {
  BatchNorm1d bn("bn", 3);
  Tensor in = RandomTensor(Shape{8, 3}, 10);
  const std::vector<std::int32_t> labels = {0, 1, 2, 0, 1, 2, 0, 1};
  auto loss_fn = [&] {
    Tensor out = bn.Forward(in, true);
    return SoftmaxCrossEntropy(out, labels).loss;
  };
  Tensor out = bn.Forward(in, true);
  LossResult r = SoftmaxCrossEntropy(out, labels);
  Tensor gin = bn.Backward(r.grad_logits);
  auto params = bn.Params();
  CheckGradient(*params[0].value, *params[0].grad, loss_fn);  // gamma
  CheckGradient(*params[1].value, *params[1].grad, loss_fn);  // beta
  CheckGradient(in, gin, loss_fn);
}

TEST(BatchNorm, ParamsBypassCompression) {
  BatchNorm1d bn("bn", 3);
  for (const auto& p : bn.Params()) {
    EXPECT_FALSE(p.compress);
    EXPECT_FALSE(p.weight_decay);
  }
  EXPECT_EQ(bn.Buffers().size(), 2u);
}

// ---------- Conv2d ----------

TEST(Conv2d, OutSizeFormula) {
  util::Rng rng(11);
  Conv2d conv("c", 1, 1, 3, 1, 1, rng);
  EXPECT_EQ(conv.OutSize(8), 8);  // same padding
  Conv2d conv2("c2", 1, 1, 3, 2, 0, rng);
  EXPECT_EQ(conv2.OutSize(9), 4);
}

TEST(Conv2d, IdentityKernelPassesThrough) {
  util::Rng rng(12);
  Conv2d conv("c", 1, 1, 3, 1, 1, rng);
  auto params = conv.Params();
  Tensor& w = *params[0].value;
  w.SetZero();
  w.at({0, 0, 1, 1}) = 1.0f;  // center tap
  params[1].value->SetZero();
  Tensor in = RandomTensor(Shape{2, 1, 5, 5}, 13);
  Tensor out = conv.Forward(in, true);
  EXPECT_EQ(out.shape(), in.shape());
  EXPECT_LT(tensor::MaxAbsDiff(out, in), 1e-6f);
}

TEST(Conv2d, KnownSmallConvolution) {
  util::Rng rng(14);
  Conv2d conv("c", 1, 1, 2, 1, 0, rng);
  auto params = conv.Params();
  *params[0].value = Tensor(Shape{1, 1, 2, 2}, {1, 2, 3, 4});
  params[1].value->SetZero();
  Tensor in(Shape{1, 1, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  Tensor out = conv.Forward(in, true);
  EXPECT_EQ(out.shape(), Shape({1, 1, 2, 2}));
  // Top-left window {1,2,4,5} . {1,2,3,4} = 1+4+12+20 = 37.
  EXPECT_FLOAT_EQ(out[0], 37.0f);
  EXPECT_FLOAT_EQ(out[1], 47.0f);
  EXPECT_FLOAT_EQ(out[2], 67.0f);
  EXPECT_FLOAT_EQ(out[3], 77.0f);
}

TEST(Conv2d, GradientsMatchNumerical) {
  util::Rng rng(15);
  Conv2d conv("c", 2, 3, 3, 1, 1, rng);
  Flatten flat;
  Tensor in = RandomTensor(Shape{2, 2, 4, 4}, 16, 0.5f);
  const std::vector<std::int32_t> labels = {1, 0};
  auto loss_fn = [&] {
    Tensor h = conv.Forward(in, true);
    Tensor f = flat.Forward(h, true);
    // Use the first few features as logits via a fixed slice (cheap head).
    Tensor logits(Shape{2, 3});
    for (int b = 0; b < 2; ++b) {
      for (int c = 0; c < 3; ++c) {
        logits[static_cast<std::size_t>(b * 3 + c)] =
            f[static_cast<std::size_t>(b * 48 + c * 7)];
      }
    }
    return SoftmaxCrossEntropy(logits, labels).loss;
  };
  // Analytic path.
  Tensor h = conv.Forward(in, true);
  Tensor f = flat.Forward(h, true);
  Tensor logits(Shape{2, 3});
  for (int b = 0; b < 2; ++b) {
    for (int c = 0; c < 3; ++c) {
      logits[static_cast<std::size_t>(b * 3 + c)] =
          f[static_cast<std::size_t>(b * 48 + c * 7)];
    }
  }
  LossResult r = SoftmaxCrossEntropy(logits, labels);
  Tensor gf(f.shape());
  for (int b = 0; b < 2; ++b) {
    for (int c = 0; c < 3; ++c) {
      gf[static_cast<std::size_t>(b * 48 + c * 7)] =
          r.grad_logits[static_cast<std::size_t>(b * 3 + c)];
    }
  }
  Tensor gh = flat.Backward(gf);
  Tensor gin = conv.Backward(gh);
  auto params = conv.Params();
  CheckGradient(*params[0].value, *params[0].grad, loss_fn);
  CheckGradient(*params[1].value, *params[1].grad, loss_fn);
  CheckGradient(in, gin, loss_fn);
}

// ---------- Optimizer ----------

TEST(MomentumSgd, FirstStepIsPlainGradientStep) {
  MomentumOptions opt;
  opt.momentum = 0.9f;
  opt.weight_decay = 0.0f;
  MomentumSgd sgd(opt);
  Tensor w(Shape{2}, {1.0f, 2.0f});
  Tensor g(Shape{2}, {0.5f, -0.5f});
  std::vector<ParamRef> params = {{"w", &w, &g, true, false}};
  sgd.ApplyGradients(params, 0.1f);
  EXPECT_FLOAT_EQ(w[0], 1.0f - 0.05f);
  EXPECT_FLOAT_EQ(w[1], 2.0f + 0.05f);
}

TEST(MomentumSgd, VelocityAccumulates) {
  MomentumOptions opt;
  opt.momentum = 0.5f;
  opt.weight_decay = 0.0f;
  MomentumSgd sgd(opt);
  Tensor w(Shape{1}, {0.0f});
  Tensor g(Shape{1}, {1.0f});
  std::vector<ParamRef> params = {{"w", &w, &g, true, false}};
  sgd.ApplyGradients(params, 1.0f);  // v=1, w=-1
  sgd.ApplyGradients(params, 1.0f);  // v=1.5, w=-2.5
  EXPECT_FLOAT_EQ(w[0], -2.5f);
  ASSERT_NE(sgd.velocity("w"), nullptr);
  EXPECT_FLOAT_EQ((*sgd.velocity("w"))[0], 1.5f);
}

TEST(MomentumSgd, WeightDecayOnlyWhereFlagged) {
  MomentumOptions opt;
  opt.momentum = 0.0f;
  opt.weight_decay = 0.1f;
  MomentumSgd sgd(opt);
  Tensor w1(Shape{1}, {1.0f}), w2(Shape{1}, {1.0f});
  Tensor g(Shape{1}, {0.0f});
  std::vector<ParamRef> params = {{"decayed", &w1, &g, true, true},
                                  {"plain", &w2, &g, true, false}};
  sgd.ApplyGradients(params, 1.0f);
  EXPECT_FLOAT_EQ(w1[0], 0.9f);
  EXPECT_FLOAT_EQ(w2[0], 1.0f);
}

// ---------- LR schedules ----------

TEST(CosineDecay, EndpointsAndMidpoint) {
  CosineDecay sched(0.1f, 0.001f, 1000);
  EXPECT_FLOAT_EQ(sched.At(0), 0.1f);
  EXPECT_NEAR(sched.At(500), (0.1f + 0.001f) / 2.0f, 1e-6);
  EXPECT_NEAR(sched.At(999), 0.001f, 1e-5);
  EXPECT_FLOAT_EQ(sched.At(5000), 0.001f);
}

TEST(CosineDecay, MonotoneNonIncreasing) {
  CosineDecay sched(0.1f, 0.001f, 200);
  float prev = 1.0f;
  for (int t = 0; t < 200; ++t) {
    const float lr = sched.At(t);
    EXPECT_LE(lr, prev + 1e-9f);
    prev = lr;
  }
}

TEST(CosineDecay, SweepsFullRangeForAnyBudget) {
  // The paper's methodology: fewer-step runs still sweep the whole range.
  for (std::int64_t budget : {250, 500, 1000}) {
    CosineDecay sched(0.1f, 0.001f, budget);
    EXPECT_FLOAT_EQ(sched.At(0), 0.1f);
    EXPECT_NEAR(sched.At(budget - 1), 0.001f, 1e-4);
  }
}

// ---------- Model / end-to-end learning ----------

TEST(Model, ParamsAggregateAcrossLayers) {
  auto model = train::BuildMlp({4, {8}, 3, true}, 1);
  // fc1 W+b, bn gamma+beta, classifier W+b.
  EXPECT_EQ(model.Params().size(), 6u);
  EXPECT_EQ(model.NumParameters(), 4 * 8 + 8 + 8 + 8 + 8 * 3 + 3);
}

TEST(Model, CopyParamsMakesModelsIdentical) {
  auto a = train::BuildMlp({4, {8}, 3, true}, 1);
  auto b = train::BuildMlp({4, {8}, 3, true}, 2);  // different init
  b.CopyParamsFrom(a);
  Tensor in = RandomTensor(Shape{5, 4}, 3);
  Tensor out_a = a.Forward(in, false);
  Tensor out_b = b.Forward(in, false);
  EXPECT_EQ(tensor::MaxAbsDiff(out_a, out_b), 0.0f);
}

TEST(Model, SameSeedBuildsIdenticalModels) {
  auto a = train::BuildMlp({4, {8}, 3, true}, 9);
  auto b = train::BuildMlp({4, {8}, 3, true}, 9);
  Tensor in = RandomTensor(Shape{2, 4}, 5);
  EXPECT_EQ(tensor::MaxAbsDiff(a.Forward(in, false), b.Forward(in, false)),
            0.0f);
}

TEST(Model, LearnsTwoSpirals) {
  // End-to-end sanity: a small MLP separates the two-spiral dataset well
  // above chance with plain local training.
  auto data = data::MakeTwoSpirals(1024, 256, 17);
  auto model = train::BuildMlp({2, {64, 32}, 2, false}, 3);
  MomentumSgd sgd({0.9f, 0.0f});
  CosineDecay sched(0.1f, 0.001f, 1500);
  data::Sampler sampler(data.train, util::Rng(4), 0.0f);
  for (int step = 0; step < 1500; ++step) {
    auto batch = sampler.Next(32);
    model.TrainStep(batch.inputs, batch.labels);
    auto params = model.Params();
    sgd.ApplyGradients(params, sched.At(step));
  }
  const double acc = model.Evaluate(data.test.inputs, data.test.labels);
  EXPECT_GT(acc, 0.9);
}

TEST(Model, CnnForwardBackwardShapes) {
  auto model = train::BuildCnn({3, 8, 8, 4, 3, 16, 10}, 5);
  Tensor in = RandomTensor(Shape{2, 3, 8, 8}, 6);
  auto r = model.TrainStep(in, {1, 2});
  EXPECT_TRUE(std::isfinite(r.loss));
  for (const auto& p : model.Params()) {
    EXPECT_TRUE(std::isfinite(tensor::Sum(*p.grad))) << p.name;
  }
}

// Backward overwrites every gradient, so TrainStep needs no zeroing pass:
// gradients poisoned with NaN beforehand come out bitwise equal to a fresh
// model's.
void ExpectTrainStepOverwritesGrads(const std::function<Model()>& build,
                                    const Tensor& in,
                                    const std::vector<std::int32_t>& labels) {
  Model poisoned = build();
  Model fresh = build();
  for (const auto& p : poisoned.Params()) p.grad->Fill(std::nanf(""));
  poisoned.TrainStep(in, labels);
  fresh.TrainStep(in, labels);
  const auto got = poisoned.Params();
  const auto want = fresh.Params();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(std::memcmp(got[i].grad->data(), want[i].grad->data(),
                          got[i].grad->size() * sizeof(float)),
              0)
        << got[i].name;
  }
}

TEST(Model, TrainStepOverwritesStaleGrads) {
  ExpectTrainStepOverwritesGrads(
      [] { return train::BuildMlp({12, {16, 8}, 5, true}, 21); },
      RandomTensor(Shape{6, 12}, 22), {0, 1, 2, 3, 4, 0});
  ExpectTrainStepOverwritesGrads(
      [] { return train::BuildCnn({3, 8, 8, 4, 3, 16, 10}, 23); },
      RandomTensor(Shape{2, 3, 8, 8}, 24), {7, 2});
}

}  // namespace
}  // namespace threelc::nn
