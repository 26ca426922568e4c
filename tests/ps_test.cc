// Tests for the parameter-server substrate: tensor plans, gradient
// aggregation, shared compressed pulls, and worker/server consistency.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "compress/factory.h"
#include "nn/optimizer.h"
#include "ps/plan.h"
#include "ps/server.h"
#include "ps/worker.h"
#include "tensor/tensor_ops.h"
#include "train/model_zoo.h"
#include "util/rng.h"

namespace threelc::ps {
namespace {

using compress::CodecConfig;
using tensor::Shape;
using tensor::Tensor;

train::MlpSpec TinySpec() { return {6, {16}, 3, true}; }

std::shared_ptr<const compress::Compressor> Codec(const CodecConfig& cfg) {
  return std::shared_ptr<const compress::Compressor>(
      compress::MakeCompressor(cfg));
}

// A Step's pushes[w][t]: one payload per tensor per worker.
using Pushes = std::vector<std::vector<util::ByteBuffer>>;

// One worker's push: one payload per tensor, the pushes[w] row of a Step.
std::vector<util::ByteBuffer> EncodePushes(Worker& worker, std::size_t n) {
  std::vector<util::ByteBuffer> row(n);
  for (std::size_t t = 0; t < n; ++t) worker.EncodePush(t, row[t]);
  return row;
}

// ---------- TensorPlan ----------

TEST(TensorPlan, SmallTensorsBypassCompression) {
  auto model = train::BuildMlp(TinySpec(), 1);
  auto plan = TensorPlan::FromParams(model.Params(), /*min_elems=*/50);
  // fc1/W: 6*16=96 -> compressed. fc1/b: 16 -> bypass. bn gamma/beta: 16
  // -> bypass (also compress=false). classifier/W: 48 -> bypass (<50).
  ASSERT_EQ(plan.size(), 6u);
  EXPECT_TRUE(plan.entry(0).compressed);    // fc1/W
  EXPECT_FALSE(plan.entry(1).compressed);   // fc1/b
  EXPECT_FALSE(plan.entry(2).compressed);   // bn gamma
  EXPECT_FALSE(plan.entry(3).compressed);   // bn beta
  EXPECT_FALSE(plan.entry(4).compressed);   // classifier/W (48 < 50)
  EXPECT_FALSE(plan.entry(5).compressed);   // classifier/b
}

TEST(TensorPlan, BatchNormNeverCompressedEvenIfLarge) {
  auto model = train::BuildMlp({6, {300}, 3, true}, 1);
  auto plan = TensorPlan::FromParams(model.Params(), 10);
  // Entry 2/3 are bn gamma/beta with 300 elements but compress=false.
  EXPECT_FALSE(plan.entry(2).compressed);
  EXPECT_FALSE(plan.entry(3).compressed);
  EXPECT_TRUE(plan.entry(0).compressed);
}

TEST(TensorPlan, ElementCounts) {
  auto model = train::BuildMlp(TinySpec(), 1);
  auto plan = TensorPlan::FromParams(model.Params(), 50);
  EXPECT_EQ(plan.TotalElements(), model.NumParameters());
  EXPECT_EQ(plan.CompressedElements(), 96);
}

// ---------- Server/Worker round trip with the lossless codec ----------

class PsLossless : public ::testing::Test {
 protected:
  void SetUp() override {
    global_ = train::BuildMlp(TinySpec(), 7);
    plan_ = TensorPlan::FromParams(global_.Params(), 8);
    codec_ = Codec(CodecConfig::Float32());
    server_ = std::make_unique<ParameterServer>(global_, plan_, codec_,
                                                nn::MomentumOptions{0.9f, 0.0f});
    for (int w = 0; w < 3; ++w) {
      worker_models_.push_back(train::BuildMlp(TinySpec(), 7));
      worker_models_.back().CopyParamsFrom(global_);
    }
    for (int w = 0; w < 3; ++w) {
      workers_.push_back(
          std::make_unique<Worker>(w, worker_models_[static_cast<std::size_t>(w)],
                                   plan_, codec_));
    }
  }

  void FillGrads(nn::Model& model, float value) {
    for (auto& p : model.Params()) p.grad->Fill(value);
  }

  Pushes AllPushes() {
    Pushes pushes;
    for (auto& worker : workers_) {
      pushes.push_back(EncodePushes(*worker, plan_.size()));
    }
    return pushes;
  }

  void OneStep(float lr) {
    server_->Step(AllPushes(), {0, 1, 2}, lr);
    for (auto& worker : workers_) {
      for (std::size_t t = 0; t < plan_.size(); ++t) {
        util::ByteReader reader(server_->PullPayload(t));
        worker->ApplyPull(t, reader);
      }
    }
  }

  nn::Model global_;
  std::vector<nn::Model> worker_models_;
  TensorPlan plan_;
  std::shared_ptr<const compress::Compressor> codec_;
  std::unique_ptr<ParameterServer> server_;
  std::vector<std::unique_ptr<Worker>> workers_;
};

TEST_F(PsLossless, AggregationAveragesGradients) {
  FillGrads(worker_models_[0], 1.0f);
  FillGrads(worker_models_[1], 2.0f);
  FillGrads(worker_models_[2], 3.0f);
  server_->Step(AllPushes(), {0, 1, 2}, 0.0f);
  // Averaged gradient = (1+2+3)/3 = 2 for every element.
  const Tensor& agg = server_->AggregatedGrad(0);
  for (std::size_t i = 0; i < agg.size(); ++i) EXPECT_FLOAT_EQ(agg[i], 2.0f);
}

TEST_F(PsLossless, NonContributorPushesAreNeitherReadNorAveraged) {
  FillGrads(worker_models_[0], 1.0f);
  FillGrads(worker_models_[2], 3.0f);
  auto pushes = AllPushes();
  // Worker 1 is a backup worker this step: its row is garbage that would
  // throw if decoded, and it must not count toward the average either.
  for (util::ByteBuffer& payload : pushes[1]) {
    payload.Clear();
    payload.AppendU8(0xFF);
  }
  ASSERT_NO_THROW(server_->Step(pushes, {0, 2}, 0.0f));
  // Averaged over the two contributors: (1+3)/2 = 2 for every element.
  for (std::size_t t = 0; t < plan_.size(); ++t) {
    const Tensor& agg = server_->AggregatedGrad(t);
    for (std::size_t i = 0; i < agg.size(); ++i) {
      EXPECT_FLOAT_EQ(agg[i], 2.0f) << plan_.entry(t).name;
    }
  }
}

TEST_F(PsLossless, WorkersTrackGlobalModelExactly) {
  util::Rng rng(9);
  for (int step = 0; step < 5; ++step) {
    for (auto& wm : worker_models_) {
      for (auto& p : wm.Params()) {
        tensor::FillNormal(*p.grad, rng, 0.0f, 1.0f);
      }
    }
    OneStep(0.1f);
  }
  // With the lossless codec, every worker's parameters equal the global's.
  auto global_params = global_.Params();
  for (auto& wm : worker_models_) {
    auto wp = wm.Params();
    for (std::size_t i = 0; i < wp.size(); ++i) {
      EXPECT_LT(tensor::MaxAbsDiff(*wp[i].value, *global_params[i].value),
                1e-6f)
          << wp[i].name;
    }
  }
}

TEST_F(PsLossless, MatchesCentralizedMomentumSgd) {
  // Distributed training with identical per-worker gradients must equal a
  // single-node momentum-SGD trajectory on the averaged gradient.
  auto reference = train::BuildMlp(TinySpec(), 7);
  nn::MomentumSgd ref_sgd({0.9f, 0.0f});
  util::Rng rng(10);
  for (int step = 0; step < 4; ++step) {
    // Same gradient everywhere.
    auto ref_params = reference.Params();
    std::vector<Tensor> grads;
    for (auto& p : ref_params) {
      Tensor g(p.grad->shape());
      tensor::FillNormal(g, rng, 0.0f, 1.0f);
      grads.push_back(g);
    }
    for (std::size_t i = 0; i < ref_params.size(); ++i) {
      *ref_params[i].grad = grads[i];
    }
    for (auto& wm : worker_models_) {
      auto wp = wm.Params();
      for (std::size_t i = 0; i < wp.size(); ++i) *wp[i].grad = grads[i];
    }
    ref_sgd.ApplyGradients(ref_params, 0.05f);
    OneStep(0.05f);
  }
  auto ref_params = reference.Params();
  auto glob_params = global_.Params();
  for (std::size_t i = 0; i < ref_params.size(); ++i) {
    EXPECT_LT(tensor::MaxAbsDiff(*ref_params[i].value, *glob_params[i].value),
              1e-5f)
        << ref_params[i].name;
  }
}

TEST_F(PsLossless, PullPayloadSharedAcrossWorkers) {
  FillGrads(worker_models_[0], 0.5f);
  FillGrads(worker_models_[1], 0.5f);
  FillGrads(worker_models_[2], 0.5f);
  OneStep(0.1f);
  // All workers consumed the same payload; their models are identical.
  auto p0 = worker_models_[0].Params();
  auto p1 = worker_models_[1].Params();
  for (std::size_t i = 0; i < p0.size(); ++i) {
    EXPECT_EQ(tensor::MaxAbsDiff(*p0[i].value, *p1[i].value), 0.0f);
  }
}

// ---------- Lossy codec: workers still converge to the global model ----------

TEST(PsLossy, ThreeLCPullsTrackGlobalModelWithinBound) {
  auto global = train::BuildMlp(TinySpec(), 3);
  auto plan = TensorPlan::FromParams(global.Params(), 8);
  auto codec = Codec(CodecConfig::ThreeLC(1.0f));
  ParameterServer server(global, plan, codec, {0.9f, 0.0f});
  auto worker_model = train::BuildMlp(TinySpec(), 3);
  worker_model.CopyParamsFrom(global);
  Worker worker(0, worker_model, plan, codec);

  util::Rng rng(11);
  for (int step = 0; step < 30; ++step) {
    for (auto& p : worker_model.Params()) {
      tensor::FillNormal(*p.grad, rng, 0.0f, 0.5f);
    }
    server.Step({EncodePushes(worker, plan.size())}, {0}, 0.05f);
    for (std::size_t t = 0; t < plan.size(); ++t) {
      util::ByteReader pull(server.PullPayload(t));
      worker.ApplyPull(t, pull);
    }
  }
  // The pull codec's error accumulation keeps the worker's view within the
  // codec's per-step error bound of the global model (it does not drift).
  auto gp = global.Params();
  auto wp = worker_model.Params();
  for (std::size_t i = 0; i < gp.size(); ++i) {
    const float scale = tensor::MaxAbs(*gp[i].value) + 1e-3f;
    EXPECT_LT(tensor::MaxAbsDiff(*gp[i].value, *wp[i].value), 0.5f * scale)
        << gp[i].name;
  }
}

TEST(PsLossy, PushErrorAccumulationLivesPerWorker) {
  // Two workers pushing different gradients through 3LC must not share
  // error state: their encoded payloads differ.
  auto global = train::BuildMlp(TinySpec(), 5);
  auto plan = TensorPlan::FromParams(global.Params(), 8);
  auto codec = Codec(CodecConfig::ThreeLC(1.0f));
  auto m1 = train::BuildMlp(TinySpec(), 5);
  auto m2 = train::BuildMlp(TinySpec(), 5);
  Worker w1(0, m1, plan, codec);
  Worker w2(1, m2, plan, codec);
  util::Rng rng(12);
  for (auto& p : m1.Params()) tensor::FillNormal(*p.grad, rng, 0.0f, 1.0f);
  for (auto& p : m2.Params()) tensor::FillNormal(*p.grad, rng, 0.0f, 1.0f);
  util::ByteBuffer b1, b2;
  w1.EncodePush(0, b1);
  w2.EncodePush(0, b2);
  EXPECT_FALSE(b1 == b2);
  EXPECT_GT(w1.CodecStateBytes(), 0u);
}

TEST(PsLossy, UncompressedEntriesAreExact) {
  auto global = train::BuildMlp(TinySpec(), 6);
  // min_elems = 20 makes fc1/b (16 elements) a bypass entry.
  auto plan = TensorPlan::FromParams(global.Params(), 20);
  auto codec = Codec(CodecConfig::ThreeLC(1.9f));
  auto wm = train::BuildMlp(TinySpec(), 6);
  Worker worker(0, wm, plan, codec);
  // Find a bypass entry (fc1/b at index 1) and verify raw transmission.
  ASSERT_FALSE(plan.entry(1).compressed);
  auto params = wm.Params();
  params[1].grad->Fill(0.123f);
  Pushes pushes(1, std::vector<util::ByteBuffer>(plan.size()));
  for (std::size_t t = 0; t < plan.size(); ++t) {
    const std::size_t bytes = worker.EncodePush(t, pushes[0][t]);
    if (t == 1) {
      EXPECT_EQ(bytes, params[1].grad->byte_size());
    }
  }
  ParameterServer server(global, plan, codec, {0.0f, 0.0f});
  server.Step(pushes, {0}, 0.0f);
  const Tensor& agg = server.AggregatedGrad(1);
  for (std::size_t i = 0; i < agg.size(); ++i) {
    EXPECT_FLOAT_EQ(agg[i], 0.123f);
  }
}

// A push that does not decode cleanly fails the step with a message naming
// the worker and tensor it came from.
TEST(PsLossy, StepRejectsBadPushNamingWorkerAndTensor) {
  auto global = train::BuildMlp(TinySpec(), 8);
  auto plan = TensorPlan::FromParams(global.Params(), 20);
  ASSERT_TRUE(plan.entry(0).compressed);    // fc1/W through 3LC
  ASSERT_FALSE(plan.entry(1).compressed);   // fc1/b as raw float32
  auto codec = Codec(CodecConfig::ThreeLC(1.0f));
  ParameterServer server(global, plan, codec, {0.9f, 0.0f});
  std::vector<nn::Model> models;
  Pushes valid;
  util::Rng rng(13);
  for (int w = 0; w < 3; ++w) {
    models.push_back(train::BuildMlp(TinySpec(), 8));
    for (auto& p : models.back().Params()) {
      tensor::FillNormal(*p.grad, rng, 0.0f, 1.0f);
    }
    Worker worker(w, models.back(), plan, codec);
    valid.push_back(EncodePushes(worker, plan.size()));
  }
  const auto expect_throw = [&](const Pushes& pushes,
                                const std::string& what) {
    try {
      server.Step(pushes, {0, 1, 2}, 0.1f);
      ADD_FAILURE() << "no throw; expected " << what;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
          << e.what();
    }
  };

  auto trailing = valid;
  trailing[1][0].AppendU8(0);
  expect_throw(trailing,
               "trailing bytes in PUSH payload from worker 1 tensor 0");

  auto truncated = valid;
  truncated[2][1].Resize(truncated[2][1].size() - 1);
  expect_throw(truncated, "malformed PUSH payload from worker 2 tensor 1");

  // Well-framed 3LC bytes (M, then an empty quartic stream) that cannot
  // cover the tensor.
  auto malformed = valid;
  malformed[0][0].Clear();
  malformed[0][0].AppendF32(1.0f);
  malformed[0][0].AppendU32(0);
  expect_throw(malformed, "malformed PUSH payload from worker 0 tensor 0");

  // Each rejection happened before the optimizer ran; valid pushes step.
  EXPECT_NO_THROW(server.Step(valid, {0, 1, 2}, 0.1f));
}

// ---------- Step's arithmetic, held to the unfused sequence ----------

bool SameBits(const Tensor& a, const Tensor& b) {
  return a.byte_size() == b.byte_size() &&
         std::memcmp(a.data(), b.data(), a.byte_size()) == 0;
}

// The server step as whole-tensor passes, written out: sum the decoded
// pushes from zero, scale, install the result as the model's gradients,
// MomentumSgd::ApplyGradients, then each tensor's delta against the last
// snapshot (encoded through a pull context of its own) and the new
// snapshot. ParameterServer::Step must reproduce it bit for bit.
class UnfusedServer {
 public:
  UnfusedServer(nn::Model& model, const TensorPlan& plan,
                std::shared_ptr<const compress::Compressor> codec,
                nn::MomentumOptions options)
      : plan_(plan), codec_(std::move(codec)), sgd_(options),
        params_(model.Params()) {
    for (std::size_t t = 0; t < plan.size(); ++t) {
      const Shape& shape = plan.entry(t).shape;
      agg_.emplace_back(shape);
      prev_.push_back(*params_[t].value);
      pull_ctx_.push_back(plan.entry(t).compressed
                              ? codec_->MakeContext(shape)
                              : nullptr);
      payload_.emplace_back();
    }
  }

  void Step(const Pushes& pushes, const std::vector<std::size_t>& contributors,
            float lr) {
    for (Tensor& agg : agg_) agg.SetZero();
    for (std::size_t w : contributors) {
      for (std::size_t t = 0; t < plan_.size(); ++t) {
        Tensor decoded(plan_.entry(t).shape);
        util::ByteReader reader(pushes[w][t]);
        if (plan_.entry(t).compressed) {
          codec_->Decode(reader, decoded);
        } else {
          reader.ReadInto(decoded.data(), decoded.byte_size());
        }
        tensor::Add(agg_[t], decoded);
      }
    }
    const float inv = 1.0f / static_cast<float>(contributors.size());
    for (std::size_t t = 0; t < plan_.size(); ++t) {
      tensor::Scale(agg_[t], inv);
      *params_[t].grad = agg_[t];
    }
    sgd_.ApplyGradients(params_, lr);
    for (std::size_t t = 0; t < plan_.size(); ++t) {
      Tensor delta = *params_[t].value;
      tensor::Sub(delta, prev_[t]);
      payload_[t].Clear();
      if (pull_ctx_[t] != nullptr) {
        codec_->Encode(delta, *pull_ctx_[t], payload_[t]);
      } else {
        payload_[t].Append(delta.data(), delta.byte_size());
      }
      prev_[t] = *params_[t].value;
    }
  }

  const Tensor& agg(std::size_t t) const { return agg_[t]; }
  const util::ByteBuffer& payload(std::size_t t) const { return payload_[t]; }
  const nn::MomentumSgd& sgd() const { return sgd_; }

 private:
  const TensorPlan& plan_;
  std::shared_ptr<const compress::Compressor> codec_;
  nn::MomentumSgd sgd_;
  std::vector<nn::ParamRef> params_;
  std::vector<Tensor> agg_;
  std::vector<Tensor> prev_;
  std::vector<std::unique_ptr<compress::Context>> pull_ctx_;
  std::vector<util::ByteBuffer> payload_;
};

// The server's velocities, read back through its checkpoint blob (it
// starts with the optimizer's SaveState).
nn::MomentumSgd ServerVelocities(const ParameterServer& server) {
  util::ByteBuffer blob;
  server.SaveState(blob);
  util::ByteReader reader(blob);
  nn::MomentumSgd sgd;
  sgd.LoadState(reader);
  return sgd;
}

void ExpectStepMatchesUnfusedSequence(const CodecConfig& cfg) {
  const nn::MomentumOptions options{0.9f, 1e-3f};
  for (std::size_t count = 1; count <= 3; ++count) {
    SCOPED_TRACE(std::to_string(count) + " contributor(s)");
    auto fused_model = train::BuildMlp(TinySpec(), 21);
    auto unfused_model = train::BuildMlp(TinySpec(), 21);
    // min_elems = 20: fc1/W goes through the codec, the rest raw.
    const auto plan = TensorPlan::FromParams(fused_model.Params(), 20);
    ASSERT_TRUE(plan.entry(0).compressed);
    ASSERT_FALSE(plan.entry(1).compressed);
    auto codec = Codec(cfg);
    ParameterServer server(fused_model, plan, codec, options);
    UnfusedServer reference(unfused_model, plan, codec, options);

    std::vector<nn::Model> worker_models;
    std::vector<std::unique_ptr<Worker>> workers;
    for (int w = 0; w < 3; ++w) {
      worker_models.push_back(train::BuildMlp(TinySpec(), 21));
    }
    for (int w = 0; w < 3; ++w) {
      workers.push_back(std::make_unique<Worker>(
          w, worker_models[static_cast<std::size_t>(w)], plan, codec));
    }
    // Never just a prefix of the workers.
    const std::vector<std::size_t> contributors =
        count == 1   ? std::vector<std::size_t>{2}
        : count == 2 ? std::vector<std::size_t>{0, 2}
                     : std::vector<std::size_t>{0, 1, 2};

    util::Rng rng(31 + count);
    for (int step = 0; step < 4; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      Pushes pushes;
      for (std::size_t w = 0; w < workers.size(); ++w) {
        for (auto& p : worker_models[w].Params()) {
          tensor::FillNormal(*p.grad, rng, 0.0f, 1.0f);
          // Every worker pushes -0.0 in the first three places: their sum
          // from zero is +0.0, a copy of the first push would be -0.0.
          for (std::size_t k = 0; k < 3; ++k) (*p.grad)[k] = -0.0f;
        }
        pushes.push_back(EncodePushes(*workers[w], plan.size()));
      }
      const float lr = 0.05f + 0.01f * static_cast<float>(step);
      server.Step(pushes, contributors, lr);
      reference.Step(pushes, contributors, lr);

      const nn::MomentumSgd velocities = ServerVelocities(server);
      auto fused = fused_model.Params();
      auto unfused = unfused_model.Params();
      for (std::size_t t = 0; t < plan.size(); ++t) {
        const std::string& name = fused[t].name;
        EXPECT_TRUE(SameBits(*fused[t].value, *unfused[t].value)) << name;
        EXPECT_TRUE(SameBits(server.AggregatedGrad(t), reference.agg(t)))
            << name;
        ASSERT_NE(velocities.velocity(name), nullptr) << name;
        EXPECT_TRUE(SameBits(*velocities.velocity(name),
                             *reference.sgd().velocity(name)))
            << name;
        const util::ByteSpan got = server.PullPayload(t);
        const util::ByteBuffer& want = reference.payload(t);
        EXPECT_TRUE(got.size() == want.size() &&
                    std::memcmp(got.data(), want.data(), got.size()) == 0)
            << name;
      }
    }

    // A malformed push from the last contributor throws before any state
    // changes: the model and the server's carried state stay as they were.
    util::ByteBuffer state_before;
    server.SaveState(state_before);
    std::vector<Tensor> model_before;
    for (auto& p : fused_model.Params()) model_before.push_back(*p.value);
    Pushes bad;
    for (auto& worker : workers) {
      bad.push_back(EncodePushes(*worker, plan.size()));
    }
    bad[contributors.back()][plan.size() - 1].AppendU8(0);
    EXPECT_THROW(server.Step(bad, contributors, 0.1f), std::runtime_error);
    util::ByteBuffer state_after;
    server.SaveState(state_after);
    EXPECT_TRUE(state_before == state_after);
    auto params = fused_model.Params();
    for (std::size_t t = 0; t < params.size(); ++t) {
      EXPECT_TRUE(SameBits(*params[t].value, model_before[t]))
          << params[t].name;
    }
  }
}

TEST(PsStepParity, Float32PushesWithNegativeZeroMatchUnfusedSequence) {
  ExpectStepMatchesUnfusedSequence(CodecConfig::Float32());
}

TEST(PsStepParity, ThreeLCPushesMatchUnfusedSequence) {
  ExpectStepMatchesUnfusedSequence(CodecConfig::ThreeLC(1.0f));
}

}  // namespace
}  // namespace threelc::ps
