#include "obs/metrics.h"

#include "obs/json.h"

namespace threelc::obs {

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(name, std::unique_ptr<Counter>(new Counter(
                                     &enabled_))).first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(name, std::unique_ptr<Gauge>(new Gauge(&enabled_)))
             .first;
  }
  return it->second.get();
}

HistogramStat* MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(name, std::unique_ptr<HistogramStat>(
                                new HistogramStat(&enabled_)))
             .first;
  }
  return it->second.get();
}

void MetricsRegistry::AddCounterBatch(const std::string& name, double v,
                                      std::uint64_t n) {
  if (!enabled()) return;
  counter(name)->AddSample(v, n);
}

namespace {

void AppendHistogramFields(std::string& line, const DurationHistogram& h) {
  line += ",\"count\":";
  AppendJsonNumber(line, h.count);
  line += ",\"mean\":";
  AppendJsonNumber(line, h.mean_ns());
  line += ",\"min\":";
  AppendJsonNumber(line, h.min_ns);
  line += ",\"max\":";
  AppendJsonNumber(line, h.max_ns);
  line += ",\"p50\":";
  AppendJsonNumber(line, h.Quantile(0.5));
  line += ",\"p99\":";
  AppendJsonNumber(line, h.Quantile(0.99));
}

}  // namespace

MetricSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    const Counter::Snapshot s = c->Read();
    snap.counters.push_back({name, s.value, s.events});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.push_back({name, g->value(), g->set()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    snap.histograms.push_back({name, h->Read()});
  }
  return snap;
}

std::string MetricsRegistry::ToJsonObject() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{";
  bool first = true;
  auto sep = [&] {
    if (!first) out += ",";
    first = false;
  };
  for (const auto& [name, c] : counters_) {
    const Counter::Snapshot snap = c->Read();
    sep();
    AppendJsonEscaped(out, name);
    out += ":{\"type\":\"counter\",\"value\":";
    AppendJsonNumber(out, snap.value);
    out += ",\"events\":";
    AppendJsonNumber(out, snap.events);
    out += "}";
  }
  for (const auto& [name, g] : gauges_) {
    sep();
    AppendJsonEscaped(out, name);
    out += ":{\"type\":\"gauge\",\"value\":";
    AppendJsonNumber(out, g->value());
    out += "}";
  }
  for (const auto& [name, h] : histograms_) {
    sep();
    AppendJsonEscaped(out, name);
    out += ":{\"type\":\"histogram\"";
    AppendHistogramFields(out, h->Read());
    out += "}";
  }
  out += "}";
  return out;
}

}  // namespace threelc::obs
