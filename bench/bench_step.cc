// Distributed step-latency bench for the perf regression gate.
//
// Runs a real RpcServer + N RpcWorker threads over loopback TCP (the same
// wiring as examples/distributed_training) with server telemetry on, then
// takes the step-latency quantiles from the step log's exact step_wall_ms
// and each phase's mean from the server's step/<phase>_ns histogram
// (total / count, so it equals the step log's mean), and emits a
// machine-readable BENCH_step.json for tools/check_perf.py.
//
// Also enforces the monitoring-overhead budget: with telemetry on, the
// stage-profiler scopes sprinkled through the codec, transport, and server
// step must cost < 2% of a median step. The bound is computed from this
// process's own numbers — measured per-scope cost x scopes actually
// entered per step — so it holds on slow CI machines too. Violation exits
// non-zero, independent of the baseline comparison.
//
// Usage: bench_step [--out=BENCH_step.json] [--steps=40] [--workers=2]
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "compress/factory.h"
#include "data/synthetic.h"
#include "obs/stage_profiler.h"
#include "obs/telemetry.h"
#include "ps/plan.h"
#include "ps/server.h"
#include "ps/worker.h"
#include "rpc/runtime.h"
#include "train/experiment.h"
#include "train/model_zoo.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace threelc;

namespace {

struct Metric {
  std::string key;
  double value = 0.0;
  std::string unit;
  bool higher_is_better = false;
};

void AppendJsonString(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
}

// One worker lifecycle, mirroring tests/rpc_runtime_test.cc (including the
// sampler seeding that makes the run reproducible).
bool RunOneWorker(const train::ExperimentConfig& config,
                  const data::SyntheticData& data, int worker_id, int port,
                  std::string* error) {
  const train::TrainerConfig& tc = config.trainer;
  nn::Model model = train::BuildMlp(config.model, config.model_seed);
  const ps::TensorPlan plan =
      ps::TensorPlan::FromParams(model.Params(), tc.min_compress_elems);
  auto codec = std::shared_ptr<const compress::Compressor>(
      compress::MakeCompressor(tc.codec));
  ps::Worker ps_worker(worker_id, model, plan, codec);

  util::Rng seeder(tc.seed);
  util::Rng rng = seeder.Fork();
  for (int i = 0; i < worker_id; ++i) rng = seeder.Fork();
  data::Sampler sampler(data.train, rng, tc.augment_noise);

  rpc::RpcWorkerConfig wc;
  wc.port = port;
  wc.worker_id = worker_id;
  wc.batch_size = tc.batch_size;
  wc.handshake_timeout_ms = 10000;
  wc.pull_timeout_ms = 60000;
  wc.io_timeout_ms = 10000;
  rpc::RpcWorker worker(wc, ps_worker, plan, codec->name(),
                        std::move(sampler));
  const bool ok = worker.Run();
  if (!ok && error != nullptr) *error = worker.error();
  return ok;
}

// Exact per-step wall times parsed from the telemetry step log — the
// step/total_ns histogram's log2 buckets are too coarse to gate a 10%
// regression.
std::vector<double> ParseStepWallMs(const std::string& path) {
  std::vector<double> out;
  std::ifstream in(path);
  std::string line;
  const std::string key = "\"step_wall_ms\":";
  while (std::getline(in, line)) {
    if (line.find("\"type\":\"step\"") == std::string::npos) continue;
    const std::size_t pos = line.find(key);
    if (pos == std::string::npos) continue;
    out.push_back(std::strtod(line.c_str() + pos + key.size(), nullptr));
  }
  return out;
}

double ExactQuantile(std::vector<double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double idx = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = lo + 1 < sorted.size() ? lo + 1 : lo;
  const double frac = idx - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

// Measured cost (ns) of one ScopedStage enter+exit against `profiler`.
double MeasureScopeNs(obs::StageProfiler& profiler) {
  constexpr int kIters = 200000;
  // Warm-up resolves the stage id and faults the TLS cache in.
  { obs::ScopedStage warm(&profiler, "overhead_probe"); }
  util::WallTimer timer;
  for (int i = 0; i < kIters; ++i) {
    obs::ScopedStage stage(&profiler, "overhead_probe");
  }
  return timer.ElapsedSeconds() * 1e9 / kIters;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const std::string out_path = flags.GetString("out", "BENCH_step.json");
  const std::int64_t steps = flags.GetInt("steps", 40);
  const int num_workers = static_cast<int>(flags.GetInt("workers", 2));
  const std::string metrics_path =
      flags.GetString("metrics-out", "bench_step_metrics.jsonl");

  const char* commit_env = std::getenv("THREELC_COMMIT");
  const std::string commit = commit_env != nullptr ? commit_env : "unknown";

  train::ExperimentConfig config = train::SmallExperiment();
  train::TrainerConfig& tc = config.trainer;
  tc.num_workers = num_workers;
  tc.total_steps = steps;
  tc.batch_size = 16;
  tc.eval_every = 0;
  tc.codec = compress::CodecConfig::ThreeLC(1.00f);
  const data::SyntheticData data = data::MakeTeacherDataset(config.data);

  obs::TelemetryOptions topt;
  topt.metrics_path = metrics_path;
  topt.per_tensor = false;
  obs::Telemetry tel(topt);

  // Count only this run's stage entries (the profiler is process-global
  // and Telemetry construction just enabled it).
  obs::StageProfiler::Global().Reset();

  nn::Model model = train::BuildMlp(config.model, config.model_seed);
  const ps::TensorPlan plan =
      ps::TensorPlan::FromParams(model.Params(), tc.min_compress_elems);
  auto codec = std::shared_ptr<const compress::Compressor>(
      compress::MakeCompressor(tc.codec));
  ps::ParameterServer ps(model, plan, codec, tc.optimizer);

  rpc::RpcServerConfig sc;
  sc.num_workers = tc.num_workers;
  sc.total_steps = tc.total_steps;
  sc.lr_max = tc.lr_max;
  sc.lr_min = tc.lr_min;
  sc.handshake_timeout_ms = 10000;
  sc.step_timeout_ms = 60000;
  sc.shutdown_timeout_ms = 10000;
  sc.telemetry = &tel;
  rpc::RpcServer server(sc, ps, codec->name());
  std::string error;
  if (!server.Listen(&error)) {
    std::cerr << "bench_step: listen failed: " << error << "\n";
    return 1;
  }

  bool server_ok = false;
  std::thread server_thread([&] { server_ok = server.Run(); });
  std::vector<std::thread> workers;
  std::vector<std::string> worker_errors(static_cast<std::size_t>(num_workers));
  std::vector<char> worker_ok(static_cast<std::size_t>(num_workers), 0);
  for (int w = 0; w < num_workers; ++w) {
    workers.emplace_back([&, w] {
      worker_ok[static_cast<std::size_t>(w)] =
          RunOneWorker(config, data, w, server.port(),
                       &worker_errors[static_cast<std::size_t>(w)])
              ? 1
              : 0;
    });
  }
  for (auto& t : workers) t.join();
  server_thread.join();
  if (!server_ok) {
    std::cerr << "bench_step: server failed: " << server.error() << "\n";
    return 1;
  }
  for (int w = 0; w < num_workers; ++w) {
    if (!worker_ok[static_cast<std::size_t>(w)]) {
      std::cerr << "bench_step: worker " << w << " failed: "
                << worker_errors[static_cast<std::size_t>(w)] << "\n";
      return 1;
    }
  }

  // Finish the step log (Flush is idempotent; the Telemetry object and its
  // registry stay readable), then recover exact per-step wall times.
  tel.Flush();
  std::vector<double> wall_ms = ParseStepWallMs(metrics_path);
  if (wall_ms.size() != static_cast<std::size_t>(steps)) {
    std::cerr << "bench_step: expected " << steps << " step records, parsed "
              << wall_ms.size() << " from " << metrics_path << "\n";
    return 1;
  }
  std::sort(wall_ms.begin(), wall_ms.end());
  const double p50 = ExactQuantile(wall_ms, 0.50);
  const double p95 = ExactQuantile(wall_ms, 0.95);
  const double p99 = ExactQuantile(wall_ms, 0.99);

  std::vector<Metric> metrics;
  metrics.push_back({"step_latency_ms/p50", p50, "ms", false});
  metrics.push_back({"step_latency_ms/p95", p95, "ms", false});
  metrics.push_back({"step_latency_ms/p99", p99, "ms", false});
  const char* phases[] = {"step_barrier", "decode",     "aggregate", "optimize",
                          "encode",       "checkpoint", "fan_out"};
  for (const char* phase : phases) {
    const obs::DurationHistogram h =
        tel.metrics().histogram(std::string("step/") + phase + "_ns")->Read();
    metrics.push_back({std::string("phase_mean_ms/") + phase,
                       h.mean_ns() * 1e-6, "ms", false});
  }

  // --- Monitoring-overhead budget ----------------------------------------
  // scopes/step actually entered this run (all threads, both roles) x the
  // measured per-scope delta between profiling on and off, against the
  // median step. Deterministic given the machine, unlike comparing two
  // separately-timed training runs, whose step times vary more than 2% on
  // shared runners.
  std::uint64_t total_scopes = 0;
  for (const obs::StageSample& s : obs::StageProfiler::Global().Snapshot()) {
    total_scopes += s.hist.count;
  }
  const double scopes_per_step =
      static_cast<double>(total_scopes) / static_cast<double>(steps);
  obs::StageProfiler probe_on;
  probe_on.set_enabled(true);
  obs::StageProfiler probe_off;  // disabled: the relaxed-load-only path
  const double on_ns = MeasureScopeNs(probe_on);
  const double off_ns = MeasureScopeNs(probe_off);
  const double delta_ns = on_ns > off_ns ? on_ns - off_ns : 0.0;
  const double overhead_frac =
      p50 > 0.0 ? scopes_per_step * delta_ns / (p50 * 1e6) : 0.0;
  metrics.push_back({"profiler_overhead_frac", overhead_frac, "frac", false});
  std::cerr << "bench_step: p50=" << p50 << "ms p95=" << p95 << "ms p99="
            << p99 << "ms scopes/step=" << scopes_per_step << " scope_on="
            << on_ns << "ns scope_off=" << off_ns << "ns overhead="
            << overhead_frac * 100.0 << "%\n";

  std::string json;
  json += "{\n  \"schema\": \"threelc-bench-v1\",\n  \"bench\": \"step\",\n";
  json += "  \"commit\": ";
  AppendJsonString(json, commit);
  json += ",\n  \"metrics\": {\n";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    json += "    ";
    AppendJsonString(json, m.key);
    json += ": {\"value\": " + std::to_string(m.value) + ", \"unit\": ";
    AppendJsonString(json, m.unit);
    json += ", \"higher_is_better\": ";
    json += m.higher_is_better ? "true" : "false";
    json += "}";
    if (i + 1 < metrics.size()) json += ",";
    json += "\n";
  }
  json += "  }\n}\n";

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "bench_step: cannot open " << out_path << "\n";
    return 1;
  }
  out << json;
  std::cerr << "bench_step: wrote " << out_path << "\n";
  std::remove(metrics_path.c_str());

  if (overhead_frac >= 0.02) {
    std::cerr << "bench_step: FAIL monitoring overhead "
              << overhead_frac * 100.0 << "% >= 2% budget\n";
    return 2;
  }
  return 0;
}
