#include "obs/cluster_view.h"

#include <algorithm>
#include <ostream>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/health.h"
#include "obs/json.h"
#include "obs/prometheus.h"

namespace threelc::obs {

namespace {

const char* const kPhaseNames[ClusterView::kPhases] = {
    "forward_backward", "encode", "push", "pull_wait", "decode"};

// Phase values of one record in the kPhaseNames order.
void PhaseValues(const WorkerStepRecord& r,
                 std::uint64_t (&out)[ClusterView::kPhases]) {
  out[0] = r.forward_backward_ns;
  out[1] = r.encode_ns;
  out[2] = r.push_ns;
  out[3] = r.pull_wait_ns;
  out[4] = r.decode_ns;
}

StragglerCause AttributeCause(const WorkerStepRecord& r) {
  const std::uint64_t compute = r.forward_backward_ns;
  const std::uint64_t encode = r.encode_ns + r.decode_ns;
  const std::uint64_t network = r.push_ns + r.pull_wait_ns;
  if (network >= compute && network >= encode) return StragglerCause::kNetwork;
  if (compute >= encode) return StragglerCause::kCompute;
  return StragglerCause::kEncode;
}

}  // namespace

const char* StragglerCauseName(StragglerCause cause) {
  switch (cause) {
    case StragglerCause::kCompute: return "compute";
    case StragglerCause::kEncode: return "encode";
    case StragglerCause::kNetwork: return "network";
  }
  return "unknown";
}

ClusterView::ClusterView(FlightRecorder* flight) : flight_(flight) {}

void ClusterView::Ingest(int worker_id, const WorkerStepRecord& record) {
  std::lock_guard<std::mutex> lock(mu_);
  WorkerState& w = workers_[worker_id];
  if (static_cast<std::int64_t>(record.step) <= w.last_step) return;
  w.last_step = static_cast<std::int64_t>(record.step);
  ++w.records;
  w.bytes_out += record.bytes_out;
  w.bytes_in += record.bytes_in;
  w.stage1_bytes_out += record.stage1_bytes_out;
  w.stage1_bytes_in += record.stage1_bytes_in;
  w.ea_l2 = record.ea_l2;
  w.rejoins = record.rejoins;
  std::uint64_t values[kPhases];
  PhaseValues(record, values);
  for (int p = 0; p < kPhases; ++p) w.phases[p].Add(values[p]);

  auto it = pending_barriers_.find(record.step);
  if (it != pending_barriers_.end() && it->second.last_worker == worker_id) {
    const StragglerCause cause = AttributeCause(record);
    ++w.straggler_steps;
    ++w.cause_counts[static_cast<int>(cause)];
    w.barrier_wait_ms_sum += it->second.wait_ms;
    pending_barriers_.erase(it);
  }
}

void ClusterView::RecordBarrier(std::uint64_t step, int last_worker,
                                double wait_ms, int contributors) {
  FlightRecorder* dump = nullptr;
  HealthEvent event;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++barriers_observed_;
    pending_barriers_[step] = {last_worker, wait_ms, contributors};
    while (pending_barriers_.size() > kMaxPendingBarriers) {
      pending_barriers_.erase(pending_barriers_.begin());
    }
    if (last_worker != current_straggler_) {
      if (current_straggler_ >= 0) ++straggler_flips_;
      current_straggler_ = last_worker;
      if (flight_ != nullptr) {
        event.severity = HealthSeverity::kWarn;
        event.detector = "cluster_straggler";
        event.step = static_cast<std::int64_t>(step);
        event.message = "straggler is now worker " +
                        std::to_string(last_worker) + " (barrier wait " +
                        std::to_string(wait_ms) + " ms)";
        dump = flight_;
      }
    }
  }
  // Record outside the lock; FlightRecorder has its own synchronization.
  if (dump != nullptr) dump->RecordEvent(event);
}

void ClusterView::RemoveWorker(int worker_id) {
  std::lock_guard<std::mutex> lock(mu_);
  workers_.erase(worker_id);
  last_seen_.erase(worker_id);
  // lease_expiries_by_worker_ is deliberately kept: post-eviction reports
  // need the expiry count to attribute the eviction to a hang.
  if (current_straggler_ == worker_id) current_straggler_ = -1;
  for (auto it = pending_barriers_.begin(); it != pending_barriers_.end();) {
    it = it->second.last_worker == worker_id ? pending_barriers_.erase(it)
                                             : ++it;
  }
}

void ClusterView::RecordLiveness(int worker_id) {
  std::lock_guard<std::mutex> lock(mu_);
  last_seen_[worker_id] = std::chrono::steady_clock::now();
}

void ClusterView::RecordLeaseExpiry(int worker_id) {
  std::lock_guard<std::mutex> lock(mu_);
  ++lease_expiries_by_worker_[worker_id];
}

std::uint64_t ClusterView::lease_expiries() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& [id, n] : lease_expiries_by_worker_) total += n;
  return total;
}

void ClusterView::SetRawBytesPerStep(std::uint64_t push_raw,
                                     std::uint64_t pull_raw) {
  std::lock_guard<std::mutex> lock(mu_);
  raw_push_bytes_per_step_ = push_raw;
  raw_pull_bytes_per_step_ = pull_raw;
}

void ClusterView::SetStorageHealth(const StorageHealth& health) {
  std::lock_guard<std::mutex> lock(mu_);
  have_storage_ = true;
  storage_ = health;
}

std::size_t ClusterView::worker_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return workers_.size();
}

double ClusterView::worker_ea_l2(int worker_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = workers_.find(worker_id);
  return it == workers_.end() ? 0.0 : it->second.ea_l2;
}

std::uint64_t ClusterView::straggler_flips() const {
  std::lock_guard<std::mutex> lock(mu_);
  return straggler_flips_;
}

int ClusterView::current_straggler() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_straggler_;
}

void ClusterView::AppendWorkerJson(std::string& out, int id,
                                   const WorkerState& w) const {
  out += "\"";
  out += std::to_string(id);
  out += "\":{\"last_step\":";
  AppendJsonNumber(out, static_cast<std::int64_t>(w.last_step));
  out += ",\"records\":";
  AppendJsonNumber(out, w.records);
  out += ",\"bytes_out\":";
  AppendJsonNumber(out, w.bytes_out);
  out += ",\"bytes_in\":";
  AppendJsonNumber(out, w.bytes_in);
  out += ",\"stage1_bytes_out\":";
  AppendJsonNumber(out, w.stage1_bytes_out);
  out += ",\"stage1_bytes_in\":";
  AppendJsonNumber(out, w.stage1_bytes_in);
  out += ",\"ea_l2\":";
  AppendJsonNumber(out, w.ea_l2);
  out += ",\"rejoins\":";
  AppendJsonNumber(out, static_cast<std::uint64_t>(w.rejoins));
  out += ",\"phases\":{";
  for (int p = 0; p < kPhases; ++p) {
    if (p > 0) out += ",";
    const DurationHistogram& h = w.phases[p];
    out += "\"";
    out += kPhaseNames[p];
    out += "\":{\"p50_ns\":";
    AppendJsonNumber(out, h.Quantile(0.50));
    out += ",\"p95_ns\":";
    AppendJsonNumber(out, h.Quantile(0.95));
    out += ",\"p99_ns\":";
    AppendJsonNumber(out, h.Quantile(0.99));
    out += ",\"mean_ns\":";
    AppendJsonNumber(out, h.mean_ns());
    out += ",\"total_ns\":";
    AppendJsonNumber(out, h.total_ns);
    out += "}";
  }
  out += "},\"straggler_steps\":";
  AppendJsonNumber(out, w.straggler_steps);
  out += ",\"straggler_causes\":{";
  for (int c = 0; c < 3; ++c) {
    if (c > 0) out += ",";
    out += "\"";
    out += StragglerCauseName(static_cast<StragglerCause>(c));
    out += "\":";
    AppendJsonNumber(out, w.cause_counts[c]);
  }
  out += "},\"barrier_wait_ms_sum\":";
  AppendJsonNumber(out, w.barrier_wait_ms_sum);
  out += ",\"last_heartbeat_age_ms\":";
  const auto seen = last_seen_.find(id);
  if (seen == last_seen_.end()) {
    // Liveness tracking off (lease_ms == 0) or no frame stamped yet.
    AppendJsonNumber(out, static_cast<std::int64_t>(-1));
  } else {
    AppendJsonNumber(out, std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - seen->second)
                              .count());
  }
  out += "}";
}

std::string ClusterView::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  out.reserve(2048);
  out += "{\"workers\":{";
  bool first = true;
  std::uint64_t fleet_records = 0, fleet_out = 0, fleet_in = 0;
  std::uint64_t fleet_stage1_out = 0, fleet_stage1_in = 0;
  DurationHistogram fleet[kPhases];
  for (const auto& [id, w] : workers_) {
    if (!first) out += ",";
    first = false;
    AppendWorkerJson(out, id, w);
    fleet_records += w.records;
    fleet_out += w.bytes_out;
    fleet_in += w.bytes_in;
    fleet_stage1_out += w.stage1_bytes_out;
    fleet_stage1_in += w.stage1_bytes_in;
    for (int p = 0; p < kPhases; ++p) fleet[p].Merge(w.phases[p]);
  }
  out += "},\"fleet\":{\"workers\":";
  AppendJsonNumber(out, static_cast<std::uint64_t>(workers_.size()));
  out += ",\"records\":";
  AppendJsonNumber(out, fleet_records);
  out += ",\"bytes_out\":";
  AppendJsonNumber(out, fleet_out);
  out += ",\"bytes_in\":";
  AppendJsonNumber(out, fleet_in);
  out += ",\"stage1_bytes_out\":";
  AppendJsonNumber(out, fleet_stage1_out);
  out += ",\"stage1_bytes_in\":";
  AppendJsonNumber(out, fleet_stage1_in);
  out += ",\"raw_push_bytes_per_step\":";
  AppendJsonNumber(out, raw_push_bytes_per_step_);
  out += ",\"raw_pull_bytes_per_step\":";
  AppendJsonNumber(out, raw_pull_bytes_per_step_);
  // Ratio = uncompressed bytes the observed records represent / bytes
  // actually moved, per direction. > 1 means compression won. The plain
  // ratio is end-to-end (wire bytes, after any second-stage block codec);
  // the _stage1 variant stops after the tensor codec, so the difference
  // between them is exactly what the block codec bought.
  const auto ratio = [fleet_records](std::uint64_t raw, std::uint64_t got) {
    return got > 0 ? static_cast<double>(raw) *
                         static_cast<double>(fleet_records) /
                         static_cast<double>(got)
                   : 0.0;
  };
  const double push_ratio = ratio(raw_push_bytes_per_step_, fleet_out);
  const double pull_ratio = ratio(raw_pull_bytes_per_step_, fleet_in);
  out += ",\"compression_ratio_push\":";
  AppendJsonNumber(out, push_ratio);
  out += ",\"compression_ratio_pull\":";
  AppendJsonNumber(out, pull_ratio);
  out += ",\"compression_ratio_push_stage1\":";
  AppendJsonNumber(out, ratio(raw_push_bytes_per_step_, fleet_stage1_out));
  out += ",\"compression_ratio_pull_stage1\":";
  AppendJsonNumber(out, ratio(raw_pull_bytes_per_step_, fleet_stage1_in));
  out += ",\"phases\":{";
  for (int p = 0; p < kPhases; ++p) {
    if (p > 0) out += ",";
    out += "\"";
    out += kPhaseNames[p];
    out += "\":{\"p50_ns\":";
    AppendJsonNumber(out, fleet[p].Quantile(0.50));
    out += ",\"p95_ns\":";
    AppendJsonNumber(out, fleet[p].Quantile(0.95));
    out += ",\"p99_ns\":";
    AppendJsonNumber(out, fleet[p].Quantile(0.99));
    out += ",\"total_ns\":";
    AppendJsonNumber(out, fleet[p].total_ns);
    out += "}";
  }
  out += "}},\"straggler\":{\"current\":";
  AppendJsonNumber(out, static_cast<std::int64_t>(current_straggler_));
  out += ",\"flips\":";
  AppendJsonNumber(out, straggler_flips_);
  out += ",\"barriers_observed\":";
  AppendJsonNumber(out, barriers_observed_);
  // Lease expiries are keyed by worker id and survive eviction, so this
  // section can name a worker the "workers" map no longer contains.
  out += "},\"liveness\":{\"lease_expiries\":{";
  bool first_lease = true;
  for (const auto& [id, n] : lease_expiries_by_worker_) {
    if (!first_lease) out += ",";
    first_lease = false;
    out += "\"";
    out += std::to_string(id);
    out += "\":";
    AppendJsonNumber(out, n);
  }
  out += "}}";
  if (have_storage_) {
    out += ",\"storage\":{\"checkpoints\":";
    AppendJsonNumber(out, storage_.checkpoints);
    out += ",\"write_failures\":";
    AppendJsonNumber(out, storage_.write_failures);
    out += ",\"fallbacks\":";
    AppendJsonNumber(out, storage_.fallbacks);
    out += ",\"generations\":";
    AppendJsonNumber(out, storage_.generations);
    out += ",\"last_write_ms\":";
    AppendJsonNumber(out, storage_.last_write_ms);
    out += ",\"degraded\":";
    out += storage_.degraded ? "true" : "false";
    out += "}";
  }
  out += "}";
  return out;
}

void ClusterView::WritePrometheus(std::ostream& out,
                                  const std::string& prefix) const {
  std::lock_guard<std::mutex> lock(mu_);
  // Lease-expiry counters must keep exporting after the last tracked
  // worker was evicted — that is exactly when a scrape wants them.
  if (workers_.empty() && lease_expiries_by_worker_.empty()) return;
  std::string text;
  const std::string base = prefix + "cluster_";
  const auto worker = [](int id) {
    return "worker=\"" + std::to_string(id) + "\"";
  };

  AppendHeader(text, base + "workers", "gauge", "Workers currently tracked");
  AppendSample(text, base + "workers", std::uint64_t{workers_.size()});

  AppendHeader(text, base + "straggler_flips_total", "counter",
               "Times the slowest worker changed");
  AppendSample(text, base + "straggler_flips_total", straggler_flips_);

  AppendHeader(text, base + "worker_records_total", "counter",
               "Telemetry records ingested per worker");
  for (const auto& [id, w] : workers_) {
    AppendSample(text, base + "worker_records_total{" + worker(id) + "}",
                 w.records);
  }

  AppendHeader(text, base + "worker_bytes_total", "counter",
               "Encoded payload bytes per worker");
  for (const auto& [id, w] : workers_) {
    const std::string series = base + "worker_bytes_total{" + worker(id);
    AppendSample(text, series + ",direction=\"out\"}", w.bytes_out);
    AppendSample(text, series + ",direction=\"in\"}", w.bytes_in);
  }

  AppendHeader(text, base + "worker_stage1_bytes_total", "counter",
               "First-stage (pre-block-codec) payload bytes per worker");
  for (const auto& [id, w] : workers_) {
    const std::string series =
        base + "worker_stage1_bytes_total{" + worker(id);
    AppendSample(text, series + ",direction=\"out\"}", w.stage1_bytes_out);
    AppendSample(text, series + ",direction=\"in\"}", w.stage1_bytes_in);
  }

  AppendHeader(text, base + "worker_rejoins", "gauge",
               "Reconnects reported by each worker");
  for (const auto& [id, w] : workers_) {
    AppendSample(text, base + "worker_rejoins{" + worker(id) + "}",
                 std::uint64_t{w.rejoins});
  }

  AppendHeader(text, base + "worker_ea_l2", "gauge",
               "Latest error-accumulation buffer L2 per worker");
  for (const auto& [id, w] : workers_) {
    AppendSample(text, base + "worker_ea_l2{" + worker(id) + "}", w.ea_l2);
  }

  AppendHeader(text, base + "straggler_steps_total", "counter",
               "Steps where the worker was last to the barrier");
  for (const auto& [id, w] : workers_) {
    AppendSample(text, base + "straggler_steps_total{" + worker(id) + "}",
                 w.straggler_steps);
  }

  AppendHeader(text, base + "straggler_cause_total", "counter",
               "Straggler steps attributed per cause");
  for (const auto& [id, w] : workers_) {
    for (int c = 0; c < 3; ++c) {
      if (w.cause_counts[c] == 0) continue;
      AppendSample(text,
                   base + "straggler_cause_total{" + worker(id) +
                       ",cause=\"" +
                       StragglerCauseName(static_cast<StragglerCause>(c)) +
                       "\"}",
                   w.cause_counts[c]);
    }
  }

  AppendHeader(text, base + "phase_ns", "summary",
               "Per-worker step-phase duration distribution (ns)");
  for (const auto& [id, w] : workers_) {
    for (int p = 0; p < kPhases; ++p) {
      AppendSummary(text, base + "phase_ns",
                    worker(id) + ",phase=\"" + kPhaseNames[p] + "\"",
                    w.phases[p], {0.5, 0.95, 0.99});
    }
  }

  if (!last_seen_.empty()) {
    const auto now = std::chrono::steady_clock::now();
    AppendHeader(text, base + "worker_heartbeat_age_ms", "gauge",
                 "Milliseconds since the last frame from each worker");
    for (const auto& [id, when] : last_seen_) {
      AppendSample(
          text, base + "worker_heartbeat_age_ms{" + worker(id) + "}",
          std::chrono::duration<double, std::milli>(now - when).count());
    }
  }

  if (!lease_expiries_by_worker_.empty()) {
    AppendHeader(text, base + "worker_lease_expiries_total", "counter",
                 "Lease expiries (hang/partition detections) per worker; "
                 "survives eviction");
    for (const auto& [id, n] : lease_expiries_by_worker_) {
      AppendSample(text,
                   base + "worker_lease_expiries_total{" + worker(id) + "}",
                   n);
    }
  }
  out << text;
}

}  // namespace threelc::obs
