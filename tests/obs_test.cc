// Observability layer: the duration histogram, metrics registry semantics
// (enable/disable, seqlock consistency), Prometheus exposition, tracer
// span recording under concurrency, Chrome trace well-formedness, and the
// telemetry step-record schema (including non-finite values) and its
// step/<phase>_ns histograms.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "json_validator.h"
#include "obs/duration_histogram.h"
#include "obs/health.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "obs/stage_profiler.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

namespace threelc::obs {
namespace {

using testutil::JsonValidator;

TEST(JsonValidatorTest, AcceptsAndRejects) {
  EXPECT_TRUE(JsonValidator(R"({"a":[1,2.5,-3e2],"b":"x\ny","c":null})")
                  .Valid());
  EXPECT_FALSE(JsonValidator("{\"a\":}").Valid());
  EXPECT_FALSE(JsonValidator("{\"a\":1").Valid());
  EXPECT_FALSE(JsonValidator("[1,]").Valid());
}

TEST(JsonTest, EscapesControlAndQuotes) {
  std::string out;
  AppendJsonEscaped(out, "a\"b\\c\nd\x01");
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
  std::string num;
  AppendJsonNumber(num, std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(num, "null");  // JSON has no NaN
}

// --- Duration histogram ----------------------------------------------------

// Bucket b holds [2^b, 2^(b+1)) ns and a quantile reports its bucket's
// geometric midpoint: the math behind every duration quantile on
// /metricsz and /clusterz. Merging equals adding both sample streams.
TEST(DurationHistogramTest, Log2BucketsQuantilesAndMerge) {
  EXPECT_EQ(DurationHistogram::Bucket(0), 0);
  EXPECT_EQ(DurationHistogram::Bucket(1), 0);
  EXPECT_EQ(DurationHistogram::Bucket(2), 1);
  EXPECT_EQ(DurationHistogram::Bucket(1023), 9);
  EXPECT_EQ(DurationHistogram::Bucket(1024), 10);
  EXPECT_EQ(DurationHistogram::Bucket(~std::uint64_t{0}), 63);

  DurationHistogram empty;
  EXPECT_EQ(empty.Quantile(0.5), 0.0);
  EXPECT_EQ(empty.mean_ns(), 0.0);

  DurationHistogram a, b, both;
  for (const std::uint64_t ns : {1000, 1500, 3000}) {
    a.Add(ns);
    both.Add(ns);
  }
  for (const std::uint64_t ns : {700, 5'000'000}) {
    b.Add(ns);
    both.Add(ns);
  }
  a.Merge(b);
  a.Merge(empty);
  EXPECT_EQ(a.count, 5u);
  EXPECT_EQ(a.total_ns, 5'006'200u);
  EXPECT_EQ(a.min_ns, 700u);
  EXPECT_EQ(a.max_ns, 5'000'000u);
  for (int i = 0; i < DurationHistogram::kBuckets; ++i) {
    EXPECT_EQ(a.buckets[i], both.buckets[i]) << "bucket " << i;
  }
  empty.Merge(b);
  EXPECT_EQ(empty.min_ns, 700u);
  // 700 and 1000 fill bucket 9, 1500 bucket 10, 5 ms bucket 22.
  EXPECT_DOUBLE_EQ(a.Quantile(0.4), 512.0 * std::sqrt(2.0));
  EXPECT_DOUBLE_EQ(a.Quantile(0.5), 1024.0 * std::sqrt(2.0));
  EXPECT_DOUBLE_EQ(a.Quantile(1.0), 4194304.0 * std::sqrt(2.0));
}

// --- Metrics registry ------------------------------------------------------

TEST(MetricsTest, DisabledMetricsAreNoOps) {
  MetricsRegistry registry;
  ASSERT_FALSE(registry.enabled());
  Counter* c = registry.counter("c");
  Gauge* g = registry.gauge("g");
  HistogramStat* h = registry.histogram("h");
  c->Add(5.0);
  g->Set(3.0);
  h->Add(1000);
  EXPECT_EQ(c->value(), 0.0);
  EXPECT_EQ(c->events(), 0u);
  EXPECT_FALSE(g->set());
  EXPECT_EQ(h->Read().count, 0u);
}

TEST(MetricsTest, HandlesAreStableAndSharedByName) {
  MetricsRegistry registry;
  registry.set_enabled(true);
  Counter* a = registry.counter("same");
  Counter* b = registry.counter("same");
  EXPECT_EQ(a, b);
  a->Add(1.0);
  b->Add(2.0);
  EXPECT_EQ(a->value(), 3.0);
  EXPECT_EQ(a->events(), 2u);
}

TEST(MetricsTest, ConcurrentCounterAddsAreLossless) {
  MetricsRegistry registry;
  registry.set_enabled(true);
  Counter* c = registry.counter("hits");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([c] {
      for (int i = 0; i < kPerThread; ++i) c->Add(1.0);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c->value(), static_cast<double>(kThreads * kPerThread));
  EXPECT_EQ(c->events(), static_cast<std::uint64_t>(kThreads * kPerThread));
}

TEST(MetricsTest, SnapshotPairsAreConsistentUnderConcurrentAdds) {
  // Every Add is (value += 2.0, events += 1); a torn read would break the
  // value == 2 * events invariant. Readers hammer Read() while writers add.
  MetricsRegistry registry;
  registry.set_enabled(true);
  Counter* c = registry.counter("pair");
  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([c, &stop, &violations] {
      while (!stop.load(std::memory_order_relaxed)) {
        const Counter::Snapshot snap = c->Read();
        if (snap.value != 2.0 * static_cast<double>(snap.events)) {
          violations.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([c] {
      for (int i = 0; i < kPerThread; ++i) c->Add(2.0);
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(violations.load(), 0);
  const Counter::Snapshot final_snap = c->Read();
  EXPECT_EQ(final_snap.events,
            static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(final_snap.value, 2.0 * static_cast<double>(kThreads * kPerThread));
}

// --- Prometheus exposition -------------------------------------------------

TEST(PrometheusTest, SanitizeProducesValidNamesAndIsIdempotent) {
  const std::vector<std::string> raw = {
      "traffic/push_bytes", "codec.encode-ms", "9starts_with_digit",
      "already_legal_name", "weird +*)( chars", "", "a:b"};
  for (const std::string& name : raw) {
    const std::string once = SanitizeMetricName(name);
    EXPECT_TRUE(IsValidMetricName(once)) << name << " -> " << once;
    // Round trip: sanitizing a sanitized name must be a no-op, so scrape
    // pipelines that re-normalize names cannot drift.
    EXPECT_EQ(SanitizeMetricName(once), once) << name;
  }
  EXPECT_EQ(SanitizeMetricName("traffic/push_bytes"), "traffic_push_bytes");
  EXPECT_EQ(SanitizeMetricName("9x"), "_9x");
  EXPECT_FALSE(IsValidMetricName(""));
  EXPECT_FALSE(IsValidMetricName("has space"));
  EXPECT_FALSE(IsValidMetricName("9leading"));
  EXPECT_TRUE(IsValidMetricName("a:b_c123"));
}

TEST(PrometheusTest, EscapeLabelValue) {
  EXPECT_EQ(EscapeLabelValue("plain"), "plain");
  EXPECT_EQ(EscapeLabelValue("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

TEST(PrometheusTest, WritePrometheusExposesAllMetricKinds) {
  MetricsRegistry registry;
  registry.set_enabled(true);
  registry.counter("traffic/push_bytes")->Add(128.0);
  registry.gauge("train/loss")->Set(0.25);
  HistogramStat* h = registry.histogram("step_ns");
  for (std::uint64_t i = 1; i <= 10; ++i) h->Add(1000 * i);

  std::ostringstream out;
  WritePrometheus(registry, out);
  const std::string text = out.str();

  EXPECT_NE(text.find("# TYPE threelc_traffic_push_bytes_total counter"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("threelc_traffic_push_bytes_total 128"),
            std::string::npos);
  EXPECT_NE(text.find("threelc_traffic_push_bytes_events_total 1"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE threelc_train_loss gauge"), std::string::npos);
  EXPECT_NE(text.find("threelc_train_loss 0.25"), std::string::npos);
  EXPECT_NE(text.find("# TYPE threelc_step_ns summary"), std::string::npos);
  EXPECT_NE(text.find("threelc_step_ns{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("threelc_step_ns_sum 55000\n"), std::string::npos);
  EXPECT_NE(text.find("threelc_step_ns_count 10\n"), std::string::npos);

  // Every exposed series name obeys the grammar (round-trip property over
  // the real registry contents, not just hand-picked strings).
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t name_end = line.find_first_of(" {");
    ASSERT_NE(name_end, std::string::npos) << line;
    EXPECT_TRUE(IsValidMetricName(line.substr(0, name_end))) << line;
  }
}

TEST(PrometheusTest, NonFiniteValuesUseExpositionLiterals) {
  MetricsRegistry registry;
  registry.set_enabled(true);
  registry.gauge("bad/nan")->Set(std::numeric_limits<double>::quiet_NaN());
  registry.gauge("bad/inf")->Set(std::numeric_limits<double>::infinity());
  std::ostringstream out;
  WritePrometheus(registry, out);
  EXPECT_NE(out.str().find("threelc_bad_nan NaN"), std::string::npos);
  EXPECT_NE(out.str().find("threelc_bad_inf +Inf"), std::string::npos);
}

// --- Tracer ----------------------------------------------------------------

TEST(TracerTest, DisabledTracerRecordsNothing) {
  Tracer tracer;
  { ScopedStage stage(nullptr, "ignored", nullptr, {&tracer, 0}); }
  { ScopedStage stage(nullptr, "null tracer is fine too", nullptr, {}); }
  tracer.RecordSpan("direct", 0, 0.0, 1.0);
  EXPECT_EQ(tracer.event_count(), 0u);
}

TEST(TracerTest, ConcurrentSpansAllRecorded) {
  Tracer tracer;
  tracer.set_enabled(true);
  constexpr int kThreads = 6;
  constexpr int kSpans = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer, t] {
      for (int i = 0; i < kSpans; ++i) {
        ScopedStage stage(nullptr, "work", nullptr, {&tracer, 1 + t});
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(tracer.event_count(),
            static_cast<std::size_t>(kThreads * kSpans));
  for (const TraceEvent& e : tracer.snapshot()) {
    EXPECT_GE(e.dur_us, 0.0);
    EXPECT_GE(e.ts_us, 0.0);
  }
}

TEST(TracerTest, ChromeTraceIsValidJsonWithTrackNames) {
  Tracer tracer;
  tracer.set_enabled(true);
  tracer.SetTrackName(0, "server");
  tracer.SetTrackName(1, "worker 0");
  tracer.RecordSpan("encode \"quoted\"", 1, 10.0, 5.0);
  tracer.RecordSpan("optimize", 0, 20.0, 2.5);
  tracer.RecordCounter("loss", 0, 22.5, 0.75);

  std::ostringstream out;
  tracer.WriteChromeTrace(out);
  const std::string trace = out.str();
  EXPECT_TRUE(JsonValidator(trace).Valid()) << trace;
  EXPECT_NE(trace.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(trace.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(trace.find("\"worker 0\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"C\""), std::string::npos);
}

// --- Telemetry step records ------------------------------------------------

StepTelemetry MakeStep() {
  StepTelemetry s;
  s.step = 3;
  s.loss = 1.5;
  s.lr = 0.1;
  s.push_bytes = 1000;
  s.pull_bytes = 2000;
  s.push_values = 4000;
  s.pull_values = 4000;
  s.push_bits_per_value = 2.0;
  s.pull_bits_per_value = 4.0;
  s.codec_seconds = 0.001;
  s.contributors = 4;
  s.phases_ms = {{"forward_backward", 2.0}, {"encode_push", 0.5}};
  TensorStepTelemetry t;
  t.name = "dense0/W";
  t.elements = 2048;
  t.push_bytes = 600;
  t.pull_bytes = 150;
  t.zero_frac = 0.5;
  t.plus_frac = 0.25;
  t.minus_frac = 0.25;
  t.zre_hit_rate = 0.4;
  t.push_residual_l2 = 0.01;
  t.pull_residual_l2 = 0.02;
  s.tensors.push_back(t);
  return s;
}

TEST(TelemetryTest, StepToJsonHasRequiredKeysAndParses) {
  const std::string json = Telemetry::StepToJson(MakeStep());
  EXPECT_TRUE(JsonValidator(json).Valid()) << json;
  for (const char* key :
       {"\"type\":\"step\"", "\"step\":3", "\"loss\":", "\"lr\":",
        "\"push_bytes\":", "\"pull_bytes\":", "\"push_bits_per_value\":",
        "\"codec_seconds\":", "\"contributors\":", "\"phases_ms\":",
        "\"forward_backward\":", "\"tensors\":", "\"zre_hit_rate\":",
        "\"push_residual_l2\":", "\"zero_frac\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " missing";
  }
}

TEST(TelemetryTest, OptionalTensorFieldsOmittedWhenAbsent) {
  StepTelemetry s = MakeStep();
  s.tensors[0].zero_frac = -1.0;
  s.tensors[0].plus_frac = -1.0;
  s.tensors[0].minus_frac = -1.0;
  s.tensors[0].zre_hit_rate = -1.0;
  s.tensors[0].push_residual_l2 = -1.0;
  s.tensors[0].pull_residual_l2 = -1.0;
  const std::string json = Telemetry::StepToJson(s);
  EXPECT_TRUE(JsonValidator(json).Valid()) << json;
  EXPECT_EQ(json.find("zero_frac"), std::string::npos);
  EXPECT_EQ(json.find("zre_hit_rate"), std::string::npos);
  EXPECT_EQ(json.find("residual_l2"), std::string::npos);
}

TEST(TelemetryTest, StepLogRoundTrip) {
  const std::string path = ::testing::TempDir() + "obs_test_metrics.jsonl";
  {
    TelemetryOptions options;
    options.metrics_path = path;
    Telemetry telemetry(options);
    EXPECT_TRUE(telemetry.metrics_enabled());
    EXPECT_FALSE(telemetry.trace_enabled());
    telemetry.metrics().counter("traffic/push_bytes")->Add(1000.0);
    telemetry.LogStep(MakeStep());
    telemetry.Flush();
    telemetry.Flush();  // idempotent
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  std::remove(path.c_str());
  ASSERT_EQ(lines.size(), 2u);  // one step + one summary
  for (const std::string& l : lines) {
    EXPECT_TRUE(JsonValidator(l).Valid()) << l;
  }
  EXPECT_NE(lines[0].find("\"type\":\"step\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"type\":\"summary\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"traffic/push_bytes\""), std::string::npos);
}

// A loopback step's phases are fractions of a millisecond; the exposed
// step/<phase>_ns and step/total_ns medians must keep that scale.
TEST(TelemetryTest, SubMillisecondPhaseQuantilesKeepTheirScale) {
  const std::string path = ::testing::TempDir() + "obs_test_subms.jsonl";
  TelemetryOptions options;
  options.metrics_path = path;
  Telemetry telemetry(options);
  std::map<std::string, std::vector<double>> phase_ms;
  for (int i = 0; i < 27; ++i) {
    StepTelemetry s = MakeStep();
    s.step = i;
    s.phases_ms = {{"decode", 0.05 + 0.025 * i}, {"encode", 0.7 - 0.02 * i}};
    for (const StepTelemetry::Phase& p : s.phases_ms) {
      phase_ms[p.name].push_back(p.ms);
    }
    phase_ms["total"].push_back(s.WallMs());
    telemetry.LogStep(s);
  }
  std::ostringstream out;
  WritePrometheus(telemetry.metrics(), out);
  const std::string text = out.str();
  for (auto& [name, values] : phase_ms) {
    std::sort(values.begin(), values.end());
    const double median_ns = values[values.size() / 2] * 1e6;
    const std::string needle =
        "threelc_step_" + name + "_ns{quantile=\"0.5\"} ";
    const std::size_t pos = text.find(needle);
    ASSERT_NE(pos, std::string::npos) << needle << "\n" << text;
    const double p50_ns = std::atof(text.c_str() + pos + needle.size());
    EXPECT_GE(p50_ns, median_ns / 2.0) << name;
    EXPECT_LE(p50_ns, median_ns * 2.0) << name;
  }
  telemetry.Flush();
  std::remove(path.c_str());
}

TEST(TelemetryTest, StepToJsonWithNonFiniteValuesStaysParseable) {
  // A diverging run is exactly when the step log matters most, so NaN/Inf
  // must not corrupt the JSONL (they serialize as null).
  StepTelemetry s = MakeStep();
  s.loss = std::numeric_limits<double>::quiet_NaN();
  s.push_bits_per_value = std::numeric_limits<double>::infinity();
  s.tensors[0].push_residual_l2 = std::numeric_limits<double>::quiet_NaN();
  s.tensors[0].pull_residual_l2 = -std::numeric_limits<double>::infinity();
  const std::string json = Telemetry::StepToJson(s);
  EXPECT_TRUE(JsonValidator(json).Valid()) << json;
  EXPECT_NE(json.find("\"loss\":null"), std::string::npos) << json;
  EXPECT_EQ(json.find("nan"), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);

  // And the watchdog classifies the same record as an error.
  HealthMonitor monitor{HealthMonitorOptions{}};
  monitor.ObserveStep(s);
  EXPECT_FALSE(monitor.healthy());
  ASSERT_GE(monitor.event_count(), 1u);
  bool saw_nonfinite_loss = false;
  for (const HealthEvent& e : monitor.events()) {
    EXPECT_EQ(HealthSeverityName(e.severity), std::string("error"));
    if (e.detector == "nonfinite_loss") saw_nonfinite_loss = true;
  }
  EXPECT_TRUE(saw_nonfinite_loss);
}

TEST(TelemetryTest, BadPathThrows) {
  TelemetryOptions options;
  options.metrics_path = "/nonexistent-dir-xyz/metrics.jsonl";
  EXPECT_THROW(Telemetry telemetry(options), std::runtime_error);
}

}  // namespace
}  // namespace threelc::obs
