#include "train/trainer.h"

#include <algorithm>
#include <cmath>

#include "obs/stage_profiler.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace threelc::train {

std::size_t TrainResult::TotalBytes() const {
  std::size_t total = 0;
  for (const auto& s : steps) total += s.push_bytes + s.pull_bytes;
  return total;
}

std::size_t TrainResult::TotalValues() const {
  std::size_t total = 0;
  for (const auto& s : steps) total += s.push_values + s.pull_values;
  return total;
}

double TrainResult::AverageBitsPerValue() const {
  const std::size_t values = TotalValues();
  if (values == 0) return 0.0;
  return static_cast<double>(TotalBytes()) * 8.0 / static_cast<double>(values);
}

double TrainResult::AverageCompressionRatio() const {
  const std::size_t bytes = TotalBytes();
  if (bytes == 0) return 0.0;
  return static_cast<double>(TotalValues() * sizeof(float)) /
         static_cast<double>(bytes);
}

double TrainResult::TotalCodecSeconds() const {
  double total = 0.0;
  for (const auto& s : steps) total += s.codec_seconds;
  return total;
}

std::size_t TrainResult::CodecBytes() const {
  std::size_t total = 0;
  for (const auto& s : steps) total += s.push_bytes_codec + s.pull_bytes_codec;
  return total;
}

std::size_t TrainResult::CodecValues() const {
  std::size_t total = 0;
  for (const auto& s : steps) {
    total += s.push_values_codec + s.pull_values_codec;
  }
  return total;
}

double TrainResult::CodecBitsPerValue() const {
  const std::size_t values = CodecValues();
  if (values == 0) return 0.0;
  return static_cast<double>(CodecBytes()) * 8.0 /
         static_cast<double>(values);
}

double TrainResult::CodecCompressionRatio() const {
  const std::size_t bytes = CodecBytes();
  if (bytes == 0) return 0.0;
  return static_cast<double>(CodecValues() * sizeof(float)) /
         static_cast<double>(bytes);
}

DistributedTrainer::DistributedTrainer(TrainerConfig config,
                                       ModelFactory model_factory,
                                       const data::Dataset& train_data,
                                       const data::Dataset& test_data)
    : config_(std::move(config)), global_model_(model_factory()) {
  THREELC_CHECK(config_.num_workers >= 1);
  THREELC_CHECK(config_.total_steps >= 1);

  plan_ = ps::TensorPlan::FromParams(global_model_.Params(),
                                     config_.min_compress_elems);
  codec_ = std::shared_ptr<const compress::Compressor>(
      compress::MakeCompressor(config_.codec));
  server_ = std::make_unique<ps::ParameterServer>(global_model_, plan_, codec_,
                                                  config_.optimizer);

  util::Rng seeder(config_.seed);
  worker_models_.reserve(static_cast<std::size_t>(config_.num_workers));
  for (int w = 0; w < config_.num_workers; ++w) {
    worker_models_.push_back(model_factory());
    // Workers start from the identical global model (BSP).
    worker_models_.back().CopyParamsFrom(global_model_);
  }
  for (int w = 0; w < config_.num_workers; ++w) {
    workers_.push_back(std::make_unique<ps::Worker>(
        w, worker_models_[static_cast<std::size_t>(w)], plan_, codec_));
    samplers_.emplace_back(train_data, seeder.Fork(), config_.augment_noise);
  }
  eval_batches_ = data::EvalBatches(test_data, config_.eval_batch_size);
}

double DistributedTrainer::EvaluateGlobalModel() {
  // The designated batch-norm worker (worker 0) owns running statistics;
  // copy them onto the global snapshot before evaluating (paper §5.2).
  global_model_.CopyBuffersFrom(worker_models_[0]);
  std::size_t correct = 0, total = 0;
  for (const auto& batch : eval_batches_) {
    tensor::Tensor logits = global_model_.Forward(batch.inputs, false);
    const double acc = nn::Accuracy(logits, batch.labels);
    const std::size_t n = batch.labels.size();
    correct += static_cast<std::size_t>(acc * static_cast<double>(n) + 0.5);
    total += n;
  }
  return total ? static_cast<double>(correct) / static_cast<double>(total)
               : 0.0;
}

void DistributedTrainer::EmitStepTelemetry(
    const StepRecord& rec, std::vector<obs::StepTelemetry::Phase> phases_ms,
    const std::vector<std::vector<compress::EncodeStats>>& push_stats,
    const std::vector<compress::EncodeStats>& pull_stats) {
  obs::Telemetry* tel = config_.telemetry;

  obs::StepTelemetry st;
  st.step = rec.step;
  st.loss = rec.loss;
  st.lr = rec.lr;
  st.push_bytes = rec.push_bytes;
  st.pull_bytes = rec.pull_bytes;
  st.push_values = rec.push_values;
  st.pull_values = rec.pull_values;
  const auto rates = net::PerDirectionBitsPerValue(
      {rec.push_bytes, rec.pull_bytes, rec.push_values, rec.pull_values});
  st.push_bits_per_value = rates.push;
  st.pull_bits_per_value = rates.pull;
  st.codec_seconds = rec.codec_seconds;
  st.contributors = rec.contributors;
  st.phases_ms = std::move(phases_ms);

  if (!push_stats.empty()) {
    st.tensors.reserve(plan_.size());
    for (std::size_t t = 0; t < plan_.size(); ++t) {
      const auto& entry = plan_.entry(t);
      obs::TensorStepTelemetry tt;
      tt.name = entry.name;
      tt.elements = static_cast<std::size_t>(entry.shape.num_elements());
      std::size_t zeros = 0, positives = 0, negatives = 0;
      std::size_t zre_in = 0, zre_out = 0;
      double residual_sum = 0.0;
      std::size_t residual_n = 0;
      for (const auto& worker_row : push_stats) {
        const compress::EncodeStats& s = worker_row[t];
        tt.push_bytes += s.payload_bytes;
        if (s.has_symbols) {
          zeros += s.zeros;
          positives += s.positives;
          negatives += s.negatives;
        }
        if (s.has_zero_run) {
          zre_in += s.zre_bytes_in;
          zre_out += s.zre_bytes_out;
        }
        if (s.has_residual) {
          residual_sum += s.residual_l2;
          ++residual_n;
        }
      }
      const std::size_t symbols = zeros + positives + negatives;
      if (symbols > 0) {
        const auto total = static_cast<double>(symbols);
        tt.zero_frac = static_cast<double>(zeros) / total;
        tt.plus_frac = static_cast<double>(positives) / total;
        tt.minus_frac = static_cast<double>(negatives) / total;
      }
      const compress::EncodeStats* pull =
          t < pull_stats.size() ? &pull_stats[t] : nullptr;
      if (pull != nullptr && pull->has_zero_run) {
        zre_in += pull->zre_bytes_in;
        zre_out += pull->zre_bytes_out;
      }
      if (zre_in > 0) {
        tt.zre_hit_rate =
            1.0 - static_cast<double>(zre_out) / static_cast<double>(zre_in);
      }
      if (residual_n > 0) {
        tt.push_residual_l2 = residual_sum / static_cast<double>(residual_n);
      }
      if (pull != nullptr) {
        tt.pull_bytes = pull->payload_bytes > 0
                            ? pull->payload_bytes
                            : server_->PullPayload(t).size();
        if (pull->has_residual) tt.pull_residual_l2 = pull->residual_l2;
      }
      st.tensors.push_back(std::move(tt));
    }
  }

  tel->LogStep(st);
  if (tel->trace_enabled()) {
    obs::Tracer& tracer = tel->tracer();
    const double now = tracer.NowUs();
    tracer.RecordCounter("loss", 0, now, rec.loss);
    tracer.RecordCounter("push_bytes", 0, now,
                         static_cast<double>(rec.push_bytes));
  }
}

TrainResult DistributedTrainer::Run() {
  const auto num_workers = static_cast<std::size_t>(config_.num_workers);
  const std::size_t num_tensors = plan_.size();
  nn::CosineDecay schedule(config_.lr_max, config_.lr_min, config_.total_steps);

  // --- Telemetry wiring (all null/disabled when config_.telemetry is
  // unset; every hot-path guard is a branch on a cached bool). Tracks:
  // 0 = server, 1+w = worker w.
  obs::Telemetry* tel = config_.telemetry;
  obs::Tracer* tracer =
      tel != nullptr && tel->trace_enabled() ? &tel->tracer() : nullptr;
  obs::StageProfiler* prof = &obs::StageProfiler::Global();
  const bool metrics_on = tel != nullptr && tel->metrics_enabled();
  const bool per_tensor = tel != nullptr && tel->per_tensor_enabled();
  if (tracer != nullptr) {
    tracer->SetTrackName(0, "server");
    for (std::size_t w = 0; w < num_workers; ++w) {
      tracer->SetTrackName(1 + static_cast<int>(w),
                           "worker " + std::to_string(w));
    }
  }
  obs::Counter* m_push_bytes = nullptr;
  obs::Counter* m_pull_bytes = nullptr;
  obs::Counter* m_codec_cpu = nullptr;
  obs::Gauge* m_loss = nullptr;
  obs::Gauge* m_lr = nullptr;
  obs::Gauge* m_push_bpv = nullptr;
  obs::Gauge* m_pull_bpv = nullptr;
  if (tel != nullptr) {
    auto& reg = tel->metrics();
    m_push_bytes = reg.counter("traffic/push_bytes");
    m_pull_bytes = reg.counter("traffic/pull_bytes");
    m_codec_cpu = reg.counter("codec/cpu_seconds");
    m_loss = reg.gauge("train/loss");
    m_lr = reg.gauge("train/lr");
    m_push_bpv = reg.gauge("traffic/push_bits_per_value");
    m_pull_bpv = reg.gauge("traffic/pull_bits_per_value");
  }

  std::unique_ptr<util::ThreadPool> pool;
  if (config_.parallel_workers) {
    pool = std::make_unique<util::ThreadPool>(
        std::min<std::size_t>(num_workers,
                              std::thread::hardware_concurrency()));
  }

  TrainResult result;
  result.codec_name = codec_->name();
  result.model_parameters = global_model_.NumParameters();
  result.num_workers = config_.num_workers;
  result.steps.reserve(static_cast<std::size_t>(config_.total_steps));

  // Straggler simulation (paper §2.1): per-step simulated compute-time
  // multipliers decide which workers the backup-worker barrier waits for.
  THREELC_CHECK_MSG(config_.backup_workers >= 0 &&
                        config_.backup_workers < config_.num_workers,
                    "backup_workers must be in [0, num_workers)");
  const std::size_t quorum =
      num_workers - static_cast<std::size_t>(config_.backup_workers);
  util::Rng straggler_rng(config_.seed ^ 0xBACCu);
  std::vector<double> compute_mult(num_workers, 1.0);
  std::vector<std::size_t> worker_order(num_workers);

  // Push payloads, one buffer per tensor per worker ([w][t], as the RPC
  // server collects them), and per-worker codec seconds for this step.
  std::vector<std::vector<util::ByteBuffer>> push_payloads(
      num_workers, std::vector<util::ByteBuffer>(num_tensors));
  std::vector<double> worker_encode_s(num_workers, 0.0);
  std::vector<double> worker_decode_s(num_workers, 0.0);
  std::vector<double> worker_loss(num_workers, 0.0);

  // Telemetry scratch: per-worker phase slots the worker ScopedStages add
  // into, and per-worker, per-tensor encode stats (each worker writes only
  // its own row, so the parallel stages stay race-free).
  struct WorkerPhaseNs {
    std::uint64_t forward_backward = 0;
    std::uint64_t encode_push = 0;
    std::uint64_t decode_pull = 0;
  };
  std::vector<WorkerPhaseNs> worker_ns(num_workers);
  std::vector<std::vector<compress::EncodeStats>> push_stats;
  std::vector<compress::EncodeStats> pull_stats;
  if (per_tensor) {
    push_stats.assign(num_workers,
                      std::vector<compress::EncodeStats>(num_tensors));
  }

  for (std::int64_t step = 0; step < config_.total_steps; ++step) {
    StepRecord rec;
    rec.step = step;
    rec.lr = schedule.At(step);
    std::fill(worker_ns.begin(), worker_ns.end(), WorkerPhaseNs{});
    const obs::SpanTarget server_span{tracer, 0, step};

    // Draw this step's simulated compute times and pick the quorum: the
    // (num_workers - backup_workers) fastest workers contribute gradients.
    for (std::size_t w = 0; w < num_workers; ++w) {
      double m = 1.0;
      if (config_.straggler_jitter > 0.0) {
        m += std::fabs(straggler_rng.Normal(0.0, config_.straggler_jitter));
      }
      if (config_.straggler_prob > 0.0 &&
          straggler_rng.Bernoulli(config_.straggler_prob)) {
        m *= config_.straggler_slowdown;
      }
      compute_mult[w] = m;
      worker_order[w] = w;
    }
    std::sort(worker_order.begin(), worker_order.end(),
              [&](std::size_t a, std::size_t b) {
                return compute_mult[a] != compute_mult[b]
                           ? compute_mult[a] < compute_mult[b]
                           : a < b;
              });
    std::vector<std::size_t> contributors(worker_order.begin(),
                                          worker_order.begin() + quorum);
    std::sort(contributors.begin(), contributors.end());
    // The barrier waits for the slowest *contributing* worker.
    rec.compute_multiplier = compute_mult[worker_order[quorum - 1]];
    rec.contributors = static_cast<int>(quorum);

    // --- Forward/backward + gradient push encode, per worker (parallel).
    auto compute_and_encode = [&](std::size_t w) {
      const obs::SpanTarget span{tracer, 1 + static_cast<int>(w), step};
      data::Batch batch = [&] {
        obs::ScopedStage stage(prof, "sample_batch", nullptr, span);
        return samplers_[w].Next(config_.batch_size);
      }();
      {
        obs::ScopedStage stage(prof, "forward_backward",
                               &worker_ns[w].forward_backward, span);
        nn::LossResult loss =
            worker_models_[w].TrainStep(batch.inputs, batch.labels);
        worker_loss[w] = loss.loss;
      }
      obs::ScopedStage stage(prof, "encode_push", &worker_ns[w].encode_push,
                             span);
      util::CpuTimer timer;
      for (std::size_t t = 0; t < num_tensors; ++t) {
        compress::EncodeStats* stats =
            per_tensor ? &(push_stats[w][t] = compress::EncodeStats{})
                       : nullptr;
        push_payloads[w][t].Clear();
        workers_[w]->EncodePush(t, push_payloads[w][t], stats);
      }
      worker_encode_s[w] = timer.ElapsedSeconds();
    };
    if (pool) {
      pool->ParallelFor(num_workers, compute_and_encode);
    } else {
      for (std::size_t w = 0; w < num_workers; ++w) compute_and_encode(w);
    }

    // --- Server step over the quorum only: a backup worker's push is
    // never decoded. Its phases nest under server_step, as in the RPC
    // server's step.
    ps::ParameterServer::StepTimings server_ns;
    {
      obs::ScopedStage stage(prof, "server_step", nullptr, server_span);
      server_ns =
          server_->Step(push_payloads, contributors, rec.lr, server_span,
                        per_tensor ? &pull_stats : nullptr);
    }

    // --- Workers decode and apply the shared pull payloads (parallel).
    auto apply_pulls = [&](std::size_t w) {
      obs::ScopedStage stage(prof, "decode_pull", &worker_ns[w].decode_pull,
                             {tracer, 1 + static_cast<int>(w), step});
      util::CpuTimer timer;
      for (std::size_t t = 0; t < num_tensors; ++t) {
        util::ByteReader reader(server_->PullPayload(t));
        workers_[w]->ApplyPull(t, reader);
        THREELC_CHECK_MSG(reader.AtEnd(), "pull payload not fully consumed");
      }
      worker_decode_s[w] = timer.ElapsedSeconds();
    };
    if (pool) {
      pool->ParallelFor(num_workers, apply_pulls);
    } else {
      for (std::size_t w = 0; w < num_workers; ++w) apply_pulls(w);
    }
    for (std::size_t t = 0; t < num_tensors; ++t) {
      // Every worker pushes (a backup worker's push crosses the wire even
      // though the server drops it) and pulls its own copy of the shared
      // payload.
      std::size_t push_bytes = 0;
      for (const auto& row : push_payloads) push_bytes += row[t].size();
      const std::size_t pull_bytes =
          server_->PullPayload(t).size() * num_workers;
      const auto values =
          static_cast<std::size_t>(plan_.entry(t).shape.num_elements()) *
          num_workers;
      rec.push_bytes += push_bytes;
      rec.pull_bytes += pull_bytes;
      rec.push_values += values;
      rec.pull_values += values;
      if (plan_.entry(t).compressed) {
        rec.push_bytes_codec += push_bytes;
        rec.pull_bytes_codec += pull_bytes;
        rec.push_values_codec += values;
        rec.pull_values_codec += values;
      }
    }

    // Critical-path codec time of this step: workers run concurrently on
    // separate machines (max), the server is one machine (sum + once).
    rec.codec_seconds =
        *std::max_element(worker_encode_s.begin(), worker_encode_s.end()) +
        1e-9 * static_cast<double>(server_ns.decode_ns +
                                   server_ns.aggregate_ns +
                                   server_ns.encode_ns) +
        *std::max_element(worker_decode_s.begin(), worker_decode_s.end());

    double loss_sum = 0.0;
    for (double l : worker_loss) loss_sum += l;
    rec.loss = loss_sum / static_cast<double>(num_workers);
    result.steps.push_back(rec);

    if (tel != nullptr) {
      // Critical-path phase times: parallel worker phases reduce by max
      // (the barrier waits for the slowest), server phases are serial.
      const auto max_ms = [&](std::uint64_t WorkerPhaseNs::*phase) {
        std::uint64_t ns = 0;
        for (const WorkerPhaseNs& row : worker_ns) {
          ns = std::max(ns, row.*phase);
        }
        return obs::NsToMs(ns);
      };
      EmitStepTelemetry(
          rec,
          {{"forward_backward", max_ms(&WorkerPhaseNs::forward_backward)},
           {"encode_push", max_ms(&WorkerPhaseNs::encode_push)},
           {"decode", obs::NsToMs(server_ns.decode_ns)},
           {"aggregate", obs::NsToMs(server_ns.aggregate_ns)},
           {"optimize", obs::NsToMs(server_ns.optimize_ns)},
           {"encode", obs::NsToMs(server_ns.encode_ns)},
           {"decode_pull", max_ms(&WorkerPhaseNs::decode_pull)}},
          push_stats, pull_stats);
      if (metrics_on) {
        m_push_bytes->Add(static_cast<double>(rec.push_bytes));
        m_pull_bytes->Add(static_cast<double>(rec.pull_bytes));
        m_codec_cpu->Add(rec.codec_seconds);
        m_loss->Set(rec.loss);
        m_lr->Set(rec.lr);
        const auto rates = net::PerDirectionBitsPerValue(
            {rec.push_bytes, rec.pull_bytes, rec.push_values,
             rec.pull_values});
        m_push_bpv->Set(rates.push);
        m_pull_bpv->Set(rates.pull);
      }
    }

    if (config_.eval_every > 0 && (step + 1) % config_.eval_every == 0) {
      obs::ScopedStage stage(prof, "evaluate", nullptr, server_span);
      result.evals.push_back({step + 1, EvaluateGlobalModel()});
    }
  }

  {
    obs::ScopedStage stage(prof, "evaluate", nullptr, {tracer, 0});
    result.final_test_accuracy = EvaluateGlobalModel();
  }
  if (result.evals.empty() ||
      result.evals.back().step != config_.total_steps) {
    result.evals.push_back({config_.total_steps, result.final_test_accuracy});
  }
  result.final_train_loss = result.steps.back().loss;
  if (tel != nullptr) tel->Flush();
  return result;
}

}  // namespace threelc::train
