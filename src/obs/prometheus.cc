#include "obs/prometheus.h"

#include <cmath>
#include <cstdio>
#include <ostream>

#include "obs/metrics.h"

namespace threelc::obs {

namespace {

bool IsNameChar(char c, bool first) {
  if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
      c == ':') {
    return true;
  }
  return !first && c >= '0' && c <= '9';
}

}  // namespace

void AppendHeader(std::string& out, const std::string& name, const char* type,
                  const std::string& help) {
  out += "# HELP " + name + " " + help + "\n";
  out += "# TYPE " + name + " ";
  out += type;
  out += "\n";
}

void AppendSample(std::string& out, const std::string& series, double v) {
  out += series + " ";
  if (std::isnan(v)) {
    out += "NaN";
  } else if (std::isinf(v)) {
    out += v > 0 ? "+Inf" : "-Inf";
  } else {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    out += buf;
  }
  out += "\n";
}

void AppendSample(std::string& out, const std::string& series,
                  std::uint64_t v) {
  out += series + " " + std::to_string(v) + "\n";
}

void AppendSummary(std::string& out, const std::string& name,
                   const std::string& labels, const DurationHistogram& h,
                   std::initializer_list<double> quantiles) {
  const std::string open = "{" + labels + (labels.empty() ? "" : ",");
  for (const double q : quantiles) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "quantile=\"%g\"}", q);
    AppendSample(out, name + open + buf, h.Quantile(q));
  }
  const std::string suffix = labels.empty() ? "" : "{" + labels + "}";
  AppendSample(out, name + "_sum" + suffix, h.total_ns);
  AppendSample(out, name + "_count" + suffix, h.count);
}

bool IsValidMetricName(const std::string& name) {
  if (name.empty()) return false;
  for (std::size_t i = 0; i < name.size(); ++i) {
    if (!IsNameChar(name[i], i == 0)) return false;
  }
  return true;
}

std::string SanitizeMetricName(const std::string& name) {
  if (name.empty()) return "_";
  std::string out;
  out.reserve(name.size() + 1);
  for (std::size_t i = 0; i < name.size(); ++i) {
    out.push_back(IsNameChar(name[i], /*first=*/false) ? name[i] : '_');
  }
  if (!IsNameChar(out[0], /*first=*/true)) out.insert(out.begin(), '_');
  return out;
}

std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

void WritePrometheus(const MetricsRegistry& registry, std::ostream& out,
                     const std::string& prefix) {
  const MetricSnapshot snap = registry.Snapshot();
  std::string text;
  text.reserve(256 + 160 * (snap.counters.size() + snap.gauges.size() +
                            2 * snap.histograms.size()));
  for (const auto& c : snap.counters) {
    const std::string base = prefix + SanitizeMetricName(c.name);
    AppendHeader(text, base + "_total",
                 "counter", "Accumulated sum of registry counter " + c.name);
    AppendSample(text, base + "_total", c.value);
    AppendHeader(text, base + "_events_total", "counter",
                 "Number of Add() calls on registry counter " + c.name);
    AppendSample(text, base + "_events_total",
                 static_cast<double>(c.events));
  }
  for (const auto& g : snap.gauges) {
    const std::string base = prefix + SanitizeMetricName(g.name);
    AppendHeader(text, base, "gauge", "Registry gauge " + g.name);
    AppendSample(text, base, g.value);
  }
  for (const auto& h : snap.histograms) {
    const std::string base = prefix + SanitizeMetricName(h.name);
    AppendHeader(text, base, "summary", "Registry histogram " + h.name);
    AppendSummary(text, base, "", h.hist, {0.5, 0.9, 0.99});
  }
  out << text;
}

}  // namespace threelc::obs
