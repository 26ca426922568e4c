// DistributedTrainer: synchronous data-parallel training of one model over
// N simulated workers and a parameter server, with any state-change codec.
//
// One training step reproduces the paper's §2 sub-steps:
//   forward pass -> backward pass -> gradient push (compressed)
//   -> gradient aggregation + model update (server, momentum SGD)
//   -> model pull (shared compressed deltas) applied to local models.
//
// Workers run on a thread pool; aggregation order is fixed by worker id so
// results are bit-deterministic regardless of scheduling. Traffic and codec
// CPU time are measured per step; wall-clock training time under a given
// network is derived afterwards by train::TimeModel (the same extrapolation
// arithmetic the paper uses in §5.2).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "compress/factory.h"
#include "data/dataset.h"
#include "net/traffic_meter.h"
#include "obs/telemetry.h"
#include "nn/lr_schedule.h"
#include "nn/model.h"
#include "nn/optimizer.h"
#include "ps/plan.h"
#include "ps/server.h"
#include "ps/worker.h"
#include "util/rng.h"

namespace threelc::train {

struct TrainerConfig {
  int num_workers = 10;
  std::int64_t batch_size = 32;  // per worker
  std::int64_t total_steps = 1000;
  // Cosine decay lr_max -> lr_min over total_steps (paper §5.2).
  float lr_max = 0.1f;
  float lr_min = 0.001f;
  // Server-side momentum SGD (the paper's optimizer).
  nn::MomentumOptions optimizer;  // momentum 0.9, weight decay 1e-4
  compress::CodecConfig codec;
  // Tensors smaller than this bypass compression (small-layer path).
  std::int64_t min_compress_elems = 256;
  // Evaluate test accuracy every this many steps (0 = only at the end).
  std::int64_t eval_every = 100;
  std::int64_t eval_batch_size = 256;
  float augment_noise = 0.05f;
  std::uint64_t seed = 7;
  // Run worker compute in parallel on a thread pool.
  bool parallel_workers = true;

  // --- Straggler mitigation (paper §2.1, SyncReplicasOptimizer) ---
  // Number of backup workers: each step the server aggregates only the
  // (num_workers - backup_workers) fastest pushes and discards the rest,
  // advancing the barrier without waiting for stragglers. 0 = plain BSP.
  int backup_workers = 0;
  // Simulated per-worker compute-time variation. Each worker's step time is
  // base * (1 + |N(0, straggler_jitter)|), and with probability
  // straggler_prob a worker is a straggler: base * straggler_slowdown.
  // These multipliers feed StepRecord::compute_multiplier so the time model
  // reflects who the barrier actually waited for.
  double straggler_jitter = 0.0;
  double straggler_prob = 0.0;
  double straggler_slowdown = 5.0;

  // Optional telemetry sink (not owned; must outlive Run). When set, Run
  // emits spans per phase per step (track 0 = server, 1+w = worker w), one
  // structured JSONL step record, and registry metrics; the step records
  // also feed the sink's live-monitoring pieces (health watchdog + flight
  // recorder + HTTP endpoints) when those are configured. Null = zero-cost.
  obs::Telemetry* telemetry = nullptr;
};

struct StepRecord {
  std::int64_t step = 0;
  double loss = 0.0;  // mean worker training loss
  float lr = 0.0f;
  // Traffic summed across workers, split between tensors that went through
  // the codec and small tensors that bypassed it as raw float32.
  std::size_t push_bytes = 0;
  std::size_t pull_bytes = 0;
  std::size_t push_values = 0;
  std::size_t pull_values = 0;
  std::size_t push_bytes_codec = 0;
  std::size_t pull_bytes_codec = 0;
  std::size_t push_values_codec = 0;
  std::size_t pull_values_codec = 0;
  // Codec seconds, already reduced to the critical path of one step:
  // max-over-workers of thread CPU time for the parallel worker stages,
  // plus the server step's decode, aggregate and encode phases.
  double codec_seconds = 0.0;
  // Multiplier on the base compute time that this step's barrier actually
  // waited for (k-th fastest worker under straggler simulation; 1.0 when
  // straggler simulation is off).
  double compute_multiplier = 1.0;
  // Workers whose pushes the server aggregated this step.
  int contributors = 0;
};

struct EvalRecord {
  std::int64_t step = 0;
  double test_accuracy = 0.0;
};

struct TrainResult {
  std::vector<StepRecord> steps;
  std::vector<EvalRecord> evals;
  double final_test_accuracy = 0.0;
  double final_train_loss = 0.0;
  std::int64_t model_parameters = 0;
  int num_workers = 0;
  std::string codec_name;

  std::size_t TotalBytes() const;
  std::size_t TotalValues() const;
  double AverageBitsPerValue() const;
  double AverageCompressionRatio() const;
  double TotalCodecSeconds() const;

  // Same aggregates restricted to codec-processed traffic — the quantities
  // Table 2 and Fig. 9 report (the paper excludes bypassed small layers
  // from its compression accounting).
  std::size_t CodecBytes() const;
  std::size_t CodecValues() const;
  double CodecBitsPerValue() const;
  double CodecCompressionRatio() const;
};

class DistributedTrainer {
 public:
  // `model_factory(seed)` must build architecturally identical models.
  using ModelFactory = std::function<nn::Model()>;

  DistributedTrainer(TrainerConfig config, ModelFactory model_factory,
                     const data::Dataset& train_data,
                     const data::Dataset& test_data);

  // Runs config.total_steps steps and returns the full metric record.
  TrainResult Run();

  // Access to the global model after Run (for examples/tests).
  nn::Model& global_model() { return global_model_; }
  const ps::TensorPlan& plan() const { return plan_; }

 private:
  double EvaluateGlobalModel();

  // Assemble and log one obs::StepTelemetry record from this step's
  // measurements; via Telemetry::LogStep it also feeds the health
  // watchdog and flight recorder. Only called when config_.telemetry is
  // set.
  void EmitStepTelemetry(
      const StepRecord& rec, std::vector<obs::StepTelemetry::Phase> phases_ms,
      const std::vector<std::vector<compress::EncodeStats>>& push_stats,
      const std::vector<compress::EncodeStats>& pull_stats);

  TrainerConfig config_;
  nn::Model global_model_;
  std::vector<nn::Model> worker_models_;
  ps::TensorPlan plan_;
  std::shared_ptr<const compress::Compressor> codec_;
  std::unique_ptr<ps::ParameterServer> server_;
  std::vector<std::unique_ptr<ps::Worker>> workers_;
  std::vector<data::Sampler> samplers_;
  std::vector<data::Batch> eval_batches_;
};

}  // namespace threelc::train
