// Prometheus text exposition (version 0.0.4) for MetricsRegistry.
//
// The registry's `/`-style metric names ("traffic/push_bytes") are not
// legal Prometheus names, so every exported series goes through
// SanitizeMetricName first: illegal characters become '_', a leading
// digit gets a '_' prefix, and the result is prefixed with "threelc_".
// Sanitization is idempotent (sanitize(sanitize(x)) == sanitize(x)), which
// the round-trip unit test in obs_test relies on.
//
// Mapping:
//   counter   -> <name>_total (sum) and <name>_events_total (event count)
//   gauge     -> <name>
//   histogram -> summary-style series: <name>{quantile="0.5"|"0.9"|"0.99"},
//                <name>_sum, <name>_count (nanoseconds)
// Every series is preceded by # HELP and # TYPE lines.
//
// The Append* helpers below are the one formatter for every /metricsz
// writer: the registry, StageProfiler and ClusterView.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <string>

#include "obs/duration_histogram.h"

namespace threelc::obs {

class MetricsRegistry;

// Rewrite `name` into a legal Prometheus metric name
// ([a-zA-Z_:][a-zA-Z0-9_:]*). Empty input becomes "_".
std::string SanitizeMetricName(const std::string& name);

// True iff `name` already satisfies the Prometheus metric-name grammar.
bool IsValidMetricName(const std::string& name);

// Escape a label value per the exposition format: backslash, double quote,
// and newline are escaped.
std::string EscapeLabelValue(const std::string& value);

// "# HELP <name> <help>" and "# TYPE <name> <type>" lines.
void AppendHeader(std::string& out, const std::string& name, const char* type,
                  const std::string& help);

// One "<series> <value>" line; `series` is the metric name plus any
// {labels}. Doubles print as %.9g (NaN and +-Inf as the format's
// literals), integers exactly.
void AppendSample(std::string& out, const std::string& series, double v);
void AppendSample(std::string& out, const std::string& series,
                  std::uint64_t v);

// The samples of one summary family member: <name>{<labels>,quantile="q"}
// for each q, then <name>_sum (total ns) and <name>_count. `labels` is
// empty or a comma-separated list like worker="0",phase="encode".
void AppendSummary(std::string& out, const std::string& name,
                   const std::string& labels, const DurationHistogram& h,
                   std::initializer_list<double> quantiles);

// Write the full registry in Prometheus text exposition format. `prefix`
// is prepended to every (sanitized) metric name.
void WritePrometheus(const MetricsRegistry& registry, std::ostream& out,
                     const std::string& prefix = "threelc_");

}  // namespace threelc::obs
