#include "obs/telemetry.h"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "obs/cluster_view.h"
#include "obs/flight_recorder.h"
#include "obs/http_server.h"
#include "obs/json.h"
#include "obs/prometheus.h"
#include "obs/stage_profiler.h"
#include "util/flags.h"
#include "util/logging.h"

namespace threelc::obs {

Telemetry::Telemetry(TelemetryOptions options)
    : options_(std::move(options)), start_(std::chrono::steady_clock::now()) {
  if (!options_.metrics_path.empty()) {
    metrics_out_.open(options_.metrics_path, std::ios::trunc);
    if (!metrics_out_) {
      throw std::runtime_error("Telemetry: cannot open metrics path " +
                               options_.metrics_path);
    }
    metrics_.set_enabled(true);
  }
  if (!options_.trace_path.empty()) {
    // Fail fast before training rather than after: probe writability now.
    std::ofstream probe(options_.trace_path, std::ios::trunc);
    if (!probe) {
      throw std::runtime_error("Telemetry: cannot open trace path " +
                               options_.trace_path);
    }
    tracer_.set_enabled(true);
  }
  // The stage profiler accumulates process-wide (codec, transport, and
  // step-phase scopes have no per-call registry to thread through), so any
  // telemetry that records metrics turns it on. It stays on for the
  // process: the enabled cost is thread-local accumulation only, and
  // another live Telemetry may still be exporting it.
  if (metrics_.enabled() || options_.monitoring_enabled()) {
    StageProfiler::Global().set_enabled(true);
  }
  if (options_.monitoring_enabled()) {
    // The watchdog and the Prometheus endpoint read the registry, so
    // monitoring implies enabled metrics even without a --metrics-out file.
    metrics_.set_enabled(true);
    const std::string flight_path =
        options_.flight_path.empty() ? "flight.jsonl" : options_.flight_path;
    flight_ = std::make_unique<FlightRecorder>(flight_path,
                                               options_.flight_capacity);
    FlightRecorder::InstallSignalHandlers(flight_.get());
    health_ = std::make_unique<HealthMonitor>(options_.health, &metrics_);
    health_->SetEventCallback([this](const HealthEvent& event) {
      flight_->RecordEvent(event);
      // An error-severity event is the black-box trigger: the run may be
      // about to diverge or die, so leave the recording behind now.
      if (event.severity == HealthSeverity::kError) flight_->Dump();
    });
  }
  // Constructed after flight_ so straggler flips land in the recorder
  // when monitoring is on; the view itself is always present so the RPC
  // server can feed it unconditionally.
  cluster_view_ = std::make_unique<ClusterView>(flight_.get());
  if (options_.metrics_port >= 0) {
    http_ = std::make_unique<HttpServer>();
    http_->Handle("/metricsz", [this] {
      std::ostringstream out;
      WritePrometheus(metrics_, out);
      // Stage-profile snapshot: merged on the scraping thread, so the
      // step critical path never pays for the export.
      StageProfiler::Global().WritePrometheus(out);
      // Cluster families are empty (and omitted) until the first worker
      // telemetry record arrives.
      cluster_view_->WritePrometheus(out);
      return HttpResponse{200, "text/plain; version=0.0.4; charset=utf-8",
                          out.str()};
    });
    http_->Handle("/clusterz", [this] {
      return HttpResponse{200, "application/json", cluster_view_->ToJson()};
    });
    http_->Handle("/healthz", [this] {
      const RuntimeState state = health_->runtime_state();
      if (health_->healthy() && state != RuntimeState::kFailed) {
        if (state == RuntimeState::kDegraded) {
          // Alive but running on a reduced worker set: 200 so liveness
          // probes pass, with a body scrapers can alert on.
          std::string body = "degraded\n";
          for (const HealthEvent& event : health_->events()) {
            if (event.detector == "runtime_state") {
              body += event.message + "\n";
            }
          }
          return HttpResponse{200, "text/plain; charset=utf-8", body};
        }
        return HttpResponse{200, "text/plain; charset=utf-8", "ok\n"};
      }
      std::string body =
          state == RuntimeState::kFailed ? "failed\n" : "unhealthy\n";
      for (const HealthEvent& event : health_->events()) {
        body += std::string(HealthSeverityName(event.severity)) + " [" +
                event.detector + "] step " + std::to_string(event.step) +
                ": " + event.message + "\n";
      }
      return HttpResponse{503, "text/plain; charset=utf-8", body};
    });
    http_->Handle("/statusz", [this] {
      return HttpResponse{200, "application/json",
                          health_->StatusJson(UptimeSeconds())};
    });
    http_->Handle("/flightz", [this] {
      return HttpResponse{200, "application/json",
                          "{\"entries\":" + flight_->ToJsonArray() + "}"};
    });
    if (!http_->Start(options_.metrics_port)) {
      throw std::runtime_error(
          "Telemetry: cannot bind monitoring port " +
          std::to_string(options_.metrics_port));
    }
  }
}

Telemetry::~Telemetry() {
  // A failed flush during stack unwinding (disk full, dead NFS mount) must
  // not std::terminate a run that is already throwing.
  try {
    Flush();
  } catch (const std::exception& e) {
    THREELC_LOG(Warn) << "telemetry: flush failed in destructor: "
                      << e.what();
  } catch (...) {
    THREELC_LOG(Warn) << "telemetry: flush failed in destructor";
  }
  if (http_) http_->Stop();
  if (flight_) FlightRecorder::InstallSignalHandlers(nullptr);
}

double Telemetry::UptimeSeconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

double StepTelemetry::WallMs() const {
  double total = 0.0;
  for (const Phase& phase : phases_ms) total += phase.ms;
  return total;
}

std::string Telemetry::StepToJson(const StepTelemetry& s) {
  std::string out;
  out.reserve(256 + s.tensors.size() * 160);
  out += "{\"type\":\"step\",\"step\":";
  AppendJsonNumber(out, static_cast<std::int64_t>(s.step));
  out += ",\"loss\":";
  AppendJsonNumber(out, s.loss);
  out += ",\"lr\":";
  AppendJsonNumber(out, s.lr);
  out += ",\"push_bytes\":";
  AppendJsonNumber(out, static_cast<std::uint64_t>(s.push_bytes));
  out += ",\"pull_bytes\":";
  AppendJsonNumber(out, static_cast<std::uint64_t>(s.pull_bytes));
  out += ",\"push_values\":";
  AppendJsonNumber(out, static_cast<std::uint64_t>(s.push_values));
  out += ",\"pull_values\":";
  AppendJsonNumber(out, static_cast<std::uint64_t>(s.pull_values));
  out += ",\"push_bits_per_value\":";
  AppendJsonNumber(out, s.push_bits_per_value);
  out += ",\"pull_bits_per_value\":";
  AppendJsonNumber(out, s.pull_bits_per_value);
  out += ",\"codec_seconds\":";
  AppendJsonNumber(out, s.codec_seconds);
  out += ",\"step_wall_ms\":";
  AppendJsonNumber(out, s.WallMs());
  out += ",\"contributors\":";
  AppendJsonNumber(out, static_cast<std::int64_t>(s.contributors));
  out += ",\"phases_ms\":{";
  for (std::size_t i = 0; i < s.phases_ms.size(); ++i) {
    if (i) out += ",";
    AppendJsonEscaped(out, s.phases_ms[i].name);
    out += ":";
    AppendJsonNumber(out, s.phases_ms[i].ms);
  }
  out += "}";
  if (!s.tensors.empty()) {
    out += ",\"tensors\":[";
    for (std::size_t i = 0; i < s.tensors.size(); ++i) {
      const TensorStepTelemetry& t = s.tensors[i];
      if (i) out += ",";
      out += "{\"name\":";
      AppendJsonEscaped(out, t.name);
      out += ",\"elements\":";
      AppendJsonNumber(out, static_cast<std::uint64_t>(t.elements));
      out += ",\"push_bytes\":";
      AppendJsonNumber(out, static_cast<std::uint64_t>(t.push_bytes));
      out += ",\"pull_bytes\":";
      AppendJsonNumber(out, static_cast<std::uint64_t>(t.pull_bytes));
      if (t.zero_frac >= 0.0) {
        out += ",\"zero_frac\":";
        AppendJsonNumber(out, t.zero_frac);
        out += ",\"plus_frac\":";
        AppendJsonNumber(out, t.plus_frac);
        out += ",\"minus_frac\":";
        AppendJsonNumber(out, t.minus_frac);
      }
      if (t.zre_hit_rate >= 0.0) {
        out += ",\"zre_hit_rate\":";
        AppendJsonNumber(out, t.zre_hit_rate);
      }
      if (t.push_residual_l2 >= 0.0) {
        out += ",\"push_residual_l2\":";
        AppendJsonNumber(out, t.push_residual_l2);
      }
      if (t.pull_residual_l2 >= 0.0) {
        out += ",\"pull_residual_l2\":";
        AppendJsonNumber(out, t.pull_residual_l2);
      }
      out += "}";
    }
    out += "]";
  }
  out += "}";
  return out;
}

void Telemetry::LogStep(const StepTelemetry& step) {
  // Recorder first, watchdog second: when a detector fires and dumps, the
  // triggering step is already the newest entry in the ring.
  if (flight_) flight_->RecordStep(step);
  if (health_) health_->ObserveStep(step);
  if (!metrics_.enabled()) return;
  // The /metricsz view of the step breakdown, derived here so every
  // caller exports the same families. phases_ms came from ns slots
  // (NsToMs), so rounding recovers each slot's nanoseconds.
  std::uint64_t total_ns = 0;
  for (const StepTelemetry::Phase& phase : step.phases_ms) {
    const auto ns = static_cast<std::uint64_t>(std::llround(phase.ms * 1e6));
    metrics_.histogram(std::string("step/") + phase.name + "_ns")->Add(ns);
    total_ns += ns;
  }
  metrics_.histogram("step/total_ns")->Add(total_ns);
  const std::string line = StepToJson(step);
  std::lock_guard<std::mutex> lock(mu_);
  if (!metrics_out_.is_open()) return;
  metrics_out_ << line << "\n";
}

void Telemetry::Flush() {
  if (flight_) flight_->Dump();  // on-demand black-box snapshot
  std::lock_guard<std::mutex> lock(mu_);
  if (flushed_) return;
  flushed_ = true;
  if (metrics_out_.is_open()) {
    // Fold the profiler totals in once, so the summary line carries the
    // profile/<stage> counters alongside the regular metrics.
    StageProfiler::Global().ExportTo(metrics_);
    metrics_out_ << "{\"type\":\"summary\",\"metrics\":"
                 << metrics_.ToJsonObject() << "}\n";
    metrics_out_.close();
    THREELC_LOG(Info) << "telemetry: wrote step metrics to "
                      << options_.metrics_path;
  }
  if (tracer_.enabled()) {
    std::ofstream trace_out(options_.trace_path, std::ios::trunc);
    if (trace_out) {
      tracer_.WriteChromeTrace(trace_out);
      THREELC_LOG(Info) << "telemetry: wrote " << tracer_.event_count()
                        << " trace events to " << options_.trace_path;
    } else {
      THREELC_LOG(Warn) << "telemetry: cannot write trace to "
                        << options_.trace_path;
    }
  }
}

TelemetryOptions TelemetryOptionsFromFlags(const util::Flags& flags) {
  TelemetryOptions options;
  options.trace_path = flags.GetString("trace-out", "");
  options.metrics_path = flags.GetString("metrics-out", "");
  options.per_tensor = flags.GetBool("per-tensor", true);
  options.metrics_port = flags.GetPort("metrics-port", -1);
  options.flight_path = flags.GetString("flight-out", "");
  return options;
}

bool ApplyLogLevelFlag(const util::Flags& flags) {
  const std::string name = flags.GetString("log-level", "");
  if (name.empty()) return true;
  util::LogLevel level;
  if (!util::ParseLogLevel(name, &level)) {
    THREELC_LOG(Warn) << "unknown --log-level '" << name
                      << "' (want debug|info|warn|error)";
    return false;
  }
  util::SetLogLevel(level);
  return true;
}

}  // namespace threelc::obs
