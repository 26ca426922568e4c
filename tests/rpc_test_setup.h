// Shared harness for the TCP runtime tests (rpc_runtime_test,
// fault_tolerance_test): the small MLP experiment both sides of a run are
// built from, one-call server and worker set-up with their chaos knobs,
// and the in-process reference and bitwise model comparison their parity
// checks use.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>

#include "compress/factory.h"
#include "data/synthetic.h"
#include "nn/model.h"
#include "ps/plan.h"
#include "ps/server.h"
#include "ps/worker.h"
#include "rpc/fault.h"
#include "rpc/runtime.h"
#include "train/experiment.h"
#include "train/model_zoo.h"
#include "train/trainer.h"
#include "util/rng.h"

namespace threelc::rpc {

struct TestSetup {
  train::ExperimentConfig config;
  data::SyntheticData data;
  // Second-stage lossless block codec both sides negotiate at handshake;
  // the fault tests also wrap crash checkpoints with it.
  std::string block_codec = "store";
  // Shared by the server and every worker when set.
  obs::Telemetry* telemetry = nullptr;
};

inline TestSetup MakeTestSetup(int num_workers, std::int64_t steps,
                               const compress::CodecConfig& codec) {
  TestSetup setup;
  setup.config = train::SmallExperiment();
  train::TrainerConfig& tc = setup.config.trainer;
  tc.num_workers = num_workers;
  tc.total_steps = steps;
  tc.batch_size = 16;
  tc.eval_every = 0;
  tc.codec = codec;
  setup.data = data::MakeTeacherDataset(setup.config.data);
  return setup;
}

inline bool ModelsBitwiseEqual(nn::Model& a, nn::Model& b) {
  auto pa = a.Params(), pb = b.Params();
  if (pa.size() != pb.size()) return false;
  for (std::size_t i = 0; i < pa.size(); ++i) {
    if (pa[i].value->byte_size() != pb[i].value->byte_size() ||
        std::memcmp(pa[i].value->data(), pb[i].value->data(),
                    pa[i].value->byte_size()) != 0) {
      return false;
    }
  }
  auto ba = a.Buffers(), bb = b.Buffers();
  if (ba.size() != bb.size()) return false;
  for (std::size_t i = 0; i < ba.size(); ++i) {
    if (ba[i]->byte_size() != bb[i]->byte_size() ||
        std::memcmp(ba[i]->data(), bb[i]->data(), ba[i]->byte_size()) != 0) {
      return false;
    }
  }
  return true;
}

struct WorkerChaos {
  std::int64_t exit_after_step = -1;
  std::string checkpoint_path;
  bool rejoin = false;
  int max_reconnects = 0;
  FaultInjector* fault = nullptr;
  int lease_ms = 0;
  int heartbeat_ms = 0;
};

struct WorkerResult {
  bool ok = false;
  bool simulated_exit = false;
  std::size_t reconnects = 0;
  std::string error;
  // The worker's push residual norm (ps::Worker::ResidualL2) at exit.
  double residual_l2 = 0.0;
};

// One worker lifetime on the calling thread, mirroring
// examples/distributed_training.cpp: with chaos.rejoin the RpcWorker
// restores the full training state from chaos.checkpoint_path (the file a
// previous life's simulated crash wrote) before reconnecting.
inline WorkerResult RunOneWorker(const TestSetup& setup, int worker_id,
                                 int port, const WorkerChaos& chaos = {}) {
  WorkerResult result;
  const train::TrainerConfig& tc = setup.config.trainer;
  nn::Model model =
      train::BuildMlp(setup.config.model, setup.config.model_seed);

  const ps::TensorPlan plan =
      ps::TensorPlan::FromParams(model.Params(), tc.min_compress_elems);
  auto codec = std::shared_ptr<const compress::Compressor>(
      compress::MakeCompressor(tc.codec));
  ps::Worker ps_worker(worker_id, model, plan, codec);

  util::Rng seeder(tc.seed);
  util::Rng rng = seeder.Fork();
  for (int i = 0; i < worker_id; ++i) rng = seeder.Fork();
  data::Sampler sampler(setup.data.train, rng, tc.augment_noise);

  RpcWorkerConfig wc;
  wc.port = port;
  wc.worker_id = worker_id;
  wc.batch_size = tc.batch_size;
  wc.handshake_timeout_ms = 10000;
  wc.pull_timeout_ms = 20000;
  wc.io_timeout_ms = 10000;
  wc.retry.max_attempts = 5;
  wc.retry.initial_backoff_ms = 10;
  wc.checkpoint_path = chaos.checkpoint_path;
  wc.rejoin = chaos.rejoin;
  wc.max_reconnects = chaos.max_reconnects;
  wc.exit_after_step = chaos.exit_after_step;
  wc.fault = chaos.fault;
  wc.block_codec = setup.block_codec;
  wc.lease_ms = chaos.lease_ms;
  wc.heartbeat_ms = chaos.heartbeat_ms;
  wc.telemetry = setup.telemetry;
  RpcWorker worker(wc, ps_worker, plan, codec->name(), std::move(sampler));
  result.ok = worker.Run();
  result.simulated_exit = worker.simulated_exit();
  result.reconnects = worker.reconnects();
  result.error = worker.error();
  result.residual_l2 = ps_worker.ResidualL2();
  return result;
}

struct ServerHarness {
  std::unique_ptr<nn::Model> model;
  std::unique_ptr<ps::TensorPlan> plan;
  std::shared_ptr<const compress::Compressor> codec;
  std::unique_ptr<ps::ParameterServer> ps;
  std::unique_ptr<RpcServer> server;
};

// Server-side chaos/recovery knobs for MakeServer (mirrors WorkerChaos).
struct ServerChaos {
  int port = 0;  // a resumed server must rebind the port workers retry
  int handshake_timeout_ms = 10000;
  std::string checkpoint_path;
  int checkpoint_every = 1;
  std::int64_t exit_after_step = -1;
  int lease_ms = 0;
  int heartbeat_ms = 0;
  util::Fs* fs = nullptr;  // checkpoint syscall seam; not owned
};

inline ServerHarness MakeServer(const TestSetup& setup, int grace_ms = 0,
                                int replay_steps = 8,
                                FaultInjector* fault = nullptr,
                                const ServerChaos& chaos = ServerChaos{}) {
  const train::TrainerConfig& tc = setup.config.trainer;
  ServerHarness h;
  h.model = std::make_unique<nn::Model>(
      train::BuildMlp(setup.config.model, setup.config.model_seed));
  h.plan = std::make_unique<ps::TensorPlan>(
      ps::TensorPlan::FromParams(h.model->Params(), tc.min_compress_elems));
  h.codec = std::shared_ptr<const compress::Compressor>(
      compress::MakeCompressor(tc.codec));
  h.ps = std::make_unique<ps::ParameterServer>(*h.model, *h.plan, h.codec,
                                               tc.optimizer);
  RpcServerConfig sc;
  sc.port = chaos.port;
  sc.num_workers = tc.num_workers;
  sc.total_steps = tc.total_steps;
  sc.lr_max = tc.lr_max;
  sc.lr_min = tc.lr_min;
  sc.handshake_timeout_ms = chaos.handshake_timeout_ms;
  sc.step_timeout_ms = 20000;
  sc.shutdown_timeout_ms = 10000;
  sc.grace_ms = grace_ms;
  sc.replay_steps = replay_steps;
  sc.checkpoint_path = chaos.checkpoint_path;
  sc.checkpoint_every = chaos.checkpoint_every;
  sc.exit_after_step = chaos.exit_after_step;
  sc.fault = fault;
  sc.block_codec = setup.block_codec;
  sc.lease_ms = chaos.lease_ms;
  sc.heartbeat_ms = chaos.heartbeat_ms;
  sc.fs = chaos.fs;
  sc.telemetry = setup.telemetry;
  h.server = std::make_unique<RpcServer>(sc, *h.ps, h.codec->name());
  return h;
}

// The in-process DistributedTrainer's final global model for the same
// setup: the bitwise reference every TCP run is held to.
inline std::unique_ptr<nn::Model> RunInProcessReference(
    const TestSetup& setup) {
  const train::MlpSpec spec = setup.config.model;
  const std::uint64_t model_seed = setup.config.model_seed;
  train::DistributedTrainer trainer(
      setup.config.trainer,
      [spec, model_seed] { return train::BuildMlp(spec, model_seed); },
      setup.data.train, setup.data.test);
  trainer.Run();
  auto model = std::make_unique<nn::Model>(train::BuildMlp(spec, model_seed));
  model->CopyParamsFrom(trainer.global_model());
  model->CopyBuffersFrom(trainer.global_model());
  return model;
}

}  // namespace threelc::rpc
