// Telemetry: the bundle a training run threads through the stack — one
// metrics registry, one span tracer, and one JSONL step logger, configured
// from the shared --trace-out / --metrics-out / --log-level flags.
//
// Step-log JSONL schema (one object per line):
//   {"type":"step","step":N,"loss":..,"lr":..,
//    "push_bytes":..,"pull_bytes":..,"push_values":..,"pull_values":..,
//    "push_bits_per_value":..,"pull_bits_per_value":..,
//    "codec_seconds":..,"step_wall_ms":..,"contributors":..,
//    "phases_ms":{"forward_backward":..,"encode_push":..,...},
//    "tensors":[{"name":"dense0/W","elements":..,"push_bytes":..,
//                "pull_bytes":..,"zero_frac":..,"plus_frac":..,
//                "minus_frac":..,"zre_hit_rate":..,
//                "push_residual_l2":..,"pull_residual_l2":..}, ...]}
// and, at Flush, one summary line:
//   {"type":"summary","metrics":{<MetricsRegistry::ToJsonObject()>}}
// Optional per-tensor fields are omitted when the codec does not produce
// them (e.g. no ternary stage, no error-accumulation buffer).
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace threelc::util {
class Flags;
}

namespace threelc::obs {

class ClusterView;
class FlightRecorder;
class HttpServer;

struct TelemetryOptions {
  std::string trace_path;    // empty = span tracing off
  std::string metrics_path;  // empty = metrics/step-log off
  bool per_tensor = true;    // per-tensor codec stats in the step log
  // Live monitoring: metrics_port >= 0 starts the embedded HTTP server
  // (/metricsz, /healthz, /statusz, /flightz; 0 picks an ephemeral port)
  // and enables the health watchdog + flight recorder. Setting flight_path
  // alone enables watchdog + recorder without the HTTP server. With
  // neither, no socket is ever opened and no monitoring state exists.
  int metrics_port = -1;
  std::string flight_path;   // empty + monitoring on = "flight.jsonl"
  std::size_t flight_capacity = 256;  // ring slots (~last N steps)
  HealthMonitorOptions health;

  // True when any live-monitoring piece (watchdog, recorder, HTTP) is on.
  bool monitoring_enabled() const {
    return metrics_port >= 0 || !flight_path.empty();
  }
};

// Per-tensor codec behaviour for one training step (aggregated over
// workers for the push direction). Fractions < 0 mean "not produced by
// this codec" and are omitted from the JSONL.
struct TensorStepTelemetry {
  std::string name;
  std::size_t elements = 0;
  std::size_t push_bytes = 0;  // summed over workers
  std::size_t pull_bytes = 0;  // the shared payload, once
  double zero_frac = -1.0;     // ternary symbol distribution (push)
  double plus_frac = -1.0;
  double minus_frac = -1.0;
  double zre_hit_rate = -1.0;  // fraction of quartic bytes removed by ZRE
  double push_residual_l2 = -1.0;  // mean over workers' EA buffers
  double pull_residual_l2 = -1.0;  // server's pull EA buffer
};

// One structured record per training step.
struct StepTelemetry {
  std::int64_t step = 0;
  double loss = 0.0;
  double lr = 0.0;
  std::size_t push_bytes = 0;
  std::size_t pull_bytes = 0;
  std::size_t push_values = 0;
  std::size_t pull_values = 0;
  double push_bits_per_value = 0.0;
  double pull_bits_per_value = 0.0;
  double codec_seconds = 0.0;  // critical-path codec time
  int contributors = 0;
  struct Phase {
    const char* name;  // the ScopedStage (and span) name that timed it
    double ms;
  };
  std::vector<Phase> phases_ms;  // critical-path phase wall times
  std::vector<TensorStepTelemetry> tensors;

  // Critical-path wall time of the whole step: the sum of phases_ms.
  double WallMs() const;
};

// Phase slots are filled by ScopedStage in nanoseconds.
inline double NsToMs(std::uint64_t ns) {
  return 1e-6 * static_cast<double>(ns);
}

class Telemetry {
 public:
  // Opens the metrics JSONL immediately (fail-fast on bad paths) and, when
  // options.monitoring_enabled(), brings up the health watchdog, the
  // flight recorder (with SIGSEGV/SIGABRT dump handlers), and — when
  // metrics_port >= 0 — the embedded HTTP server. The trace file is
  // written at Flush. Throws std::runtime_error if a path cannot be
  // opened or the monitoring port cannot be bound.
  explicit Telemetry(TelemetryOptions options);
  ~Telemetry();  // flushes (exceptions swallowed), stops the HTTP server

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  MetricsRegistry& metrics() { return metrics_; }
  Tracer& tracer() { return tracer_; }

  bool metrics_enabled() const { return metrics_.enabled(); }
  bool trace_enabled() const { return tracer_.enabled(); }
  bool per_tensor_enabled() const {
    return options_.per_tensor && metrics_.enabled();
  }

  // Live-monitoring pieces; null when options_.monitoring_enabled() is
  // false (health/flight) or metrics_port < 0 (http).
  HealthMonitor* health() { return health_.get(); }
  FlightRecorder* flight_recorder() { return flight_.get(); }
  HttpServer* http_server() { return http_.get(); }

  // Cluster-wide telemetry aggregation, fed by the RPC server from
  // TELEMETRY frames and barrier observations. Always constructed (the
  // in-process trainer simply never feeds it); served at /clusterz and
  // as threelc_cluster_* families on /metricsz.
  ClusterView* cluster_view() { return cluster_view_.get(); }

  // Seconds since this Telemetry was constructed (served by /statusz).
  double UptimeSeconds() const;

  // Append one step record to the metrics JSONL, record its phases into
  // the step/<phase>_ns and step/total_ns histograms, and feed the flight
  // recorder + health watchdog. Thread-safe.
  void LogStep(const StepTelemetry& step);

  // Serialize one step record (exposed for tests).
  static std::string StepToJson(const StepTelemetry& step);

  // Write the Chrome trace, the metrics summary line, and an on-demand
  // flight-recorder dump, then close the outputs. Idempotent; also runs
  // from the destructor. The HTTP server keeps serving until destruction.
  void Flush();

 private:
  TelemetryOptions options_;
  MetricsRegistry metrics_;
  Tracer tracer_;
  std::chrono::steady_clock::time_point start_;
  std::unique_ptr<HealthMonitor> health_;
  std::unique_ptr<FlightRecorder> flight_;
  std::unique_ptr<ClusterView> cluster_view_;
  std::unique_ptr<HttpServer> http_;
  std::mutex mu_;
  std::ofstream metrics_out_;
  bool flushed_ = false;
};

// --- Flag wiring shared by examples/ and bench/ ---------------------------

// Build TelemetryOptions from --trace-out, --metrics-out, --per-tensor,
// --metrics-port, and --flight-out.
TelemetryOptions TelemetryOptionsFromFlags(const util::Flags& flags);

// Apply --log-level (debug|info|warn|error) to util::SetLogLevel. Returns
// false (and warns) on an unrecognized level name.
bool ApplyLogLevelFlag(const util::Flags& flags);

}  // namespace threelc::obs
