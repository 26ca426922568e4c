// StageProfiler: hierarchy paths, cross-thread merge, snapshot semantics,
// log2-histogram quantiles, registry export, and the disabled no-op path;
// ScopedStage's per-step slot and trace-span sinks.
#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/stage_profiler.h"
#include "obs/trace.h"

namespace threelc::obs {
namespace {

const StageSample* Find(const std::vector<StageSample>& samples,
                        const std::string& path) {
  for (const StageSample& s : samples) {
    if (s.path == path) return &s;
  }
  return nullptr;
}

TEST(StageProfilerTest, DisabledRecordsNothing) {
  StageProfiler profiler;
  {
    ScopedStage outer(&profiler, "outer");
    ScopedStage inner(&profiler, "inner");
  }
  EXPECT_TRUE(profiler.Snapshot().empty());
  EXPECT_EQ(profiler.stage_count(), 0u);
}

TEST(StageProfilerTest, NullProfilerIsSafe) {
  ScopedStage stage(nullptr, "whatever");  // must not crash
}

TEST(StageProfilerTest, NestingBuildsFullPaths) {
  StageProfiler profiler;
  profiler.set_enabled(true);
  {
    ScopedStage step(&profiler, "step");
    { ScopedStage decode(&profiler, "decode"); }
    { ScopedStage encode(&profiler, "encode"); }
  }
  auto samples = profiler.Snapshot();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_NE(Find(samples, "step"), nullptr);
  EXPECT_NE(Find(samples, "step/decode"), nullptr);
  EXPECT_NE(Find(samples, "step/encode"), nullptr);
  // Sorted by path.
  EXPECT_EQ(samples[0].path, "step");
  EXPECT_EQ(samples[1].path, "step/decode");
  EXPECT_EQ(samples[2].path, "step/encode");
}

TEST(StageProfilerTest, SameLeafUnderDifferentParentsIsDistinct) {
  StageProfiler profiler;
  profiler.set_enabled(true);
  {
    ScopedStage push(&profiler, "push");
    ScopedStage codec(&profiler, "3lc");
  }
  {
    ScopedStage pull(&profiler, "pull");
    ScopedStage codec(&profiler, "3lc");
  }
  auto samples = profiler.Snapshot();
  const StageSample* a = Find(samples, "push/3lc");
  const StageSample* b = Find(samples, "pull/3lc");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->hist.count, 1u);
  EXPECT_EQ(b->hist.count, 1u);
}

TEST(StageProfilerTest, CountsAreExactAndBoundsOrdered) {
  StageProfiler profiler;
  profiler.set_enabled(true);
  constexpr int kIters = 1000;
  for (int i = 0; i < kIters; ++i) {
    ScopedStage stage(&profiler, "work");
  }
  auto samples = profiler.Snapshot();
  const StageSample* s = Find(samples, "work");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->hist.count, static_cast<std::uint64_t>(kIters));
  EXPECT_LE(s->hist.min_ns, s->hist.max_ns);
  EXPECT_GE(s->hist.total_ns, s->hist.min_ns * kIters);
  EXPECT_LE(s->hist.total_ns, s->hist.max_ns * kIters);
}

TEST(StageProfilerTest, MergesAcrossThreads) {
  StageProfiler profiler;
  profiler.set_enabled(true);
  constexpr int kThreads = 4;
  constexpr int kIters = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&profiler] {
      for (int i = 0; i < kIters; ++i) {
        ScopedStage outer(&profiler, "outer");
        ScopedStage inner(&profiler, "inner");
      }
    });
  }
  for (auto& t : threads) t.join();
  auto samples = profiler.Snapshot();
  const StageSample* outer = Find(samples, "outer");
  const StageSample* inner = Find(samples, "outer/inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  // Exact: every thread's accumulator is merged, no sampling.
  EXPECT_EQ(outer->hist.count, static_cast<std::uint64_t>(kThreads * kIters));
  EXPECT_EQ(inner->hist.count, static_cast<std::uint64_t>(kThreads * kIters));
  // One shared path table: the same (parent, name) resolves to one stage
  // id across threads.
  EXPECT_EQ(profiler.stage_count(), 2u);
  // Histogram counts survive the merge: quantiles come from the merged
  // buckets, so they must be populated and ordered.
  EXPECT_GT(inner->hist.Quantile(0.5), 0.0);
  EXPECT_LE(inner->hist.Quantile(0.5), inner->hist.Quantile(0.9));
  EXPECT_LE(inner->hist.Quantile(0.9), inner->hist.Quantile(0.99));
}

TEST(StageProfilerTest, SingleSampleQuantilesCollapse) {
  StageProfiler profiler;
  profiler.set_enabled(true);
  { ScopedStage stage(&profiler, "once"); }
  auto samples = profiler.Snapshot();
  const StageSample* s = Find(samples, "once");
  ASSERT_NE(s, nullptr);
  ASSERT_EQ(s->hist.count, 1u);
  // All quantiles land in the single occupied log2 bucket.
  EXPECT_DOUBLE_EQ(s->hist.Quantile(0.5), s->hist.Quantile(0.9));
  EXPECT_DOUBLE_EQ(s->hist.Quantile(0.9), s->hist.Quantile(0.99));
  // And the bucket brackets the exact recorded duration within the log2
  // histogram's <=50% relative error envelope (bucket [2^b, 2^(b+1))
  // reported as its geometric mid).
  EXPECT_GE(s->hist.Quantile(0.5) * 2.0, static_cast<double>(s->hist.min_ns));
  EXPECT_LE(s->hist.Quantile(0.5) / 2.0, static_cast<double>(s->hist.max_ns));
}

TEST(StageProfilerTest, ResetZeroesButKeepsStages) {
  StageProfiler profiler;
  profiler.set_enabled(true);
  { ScopedStage stage(&profiler, "work"); }
  EXPECT_EQ(profiler.Snapshot().size(), 1u);
  profiler.Reset();
  // Zero-count stages are omitted from snapshots; the path stays known.
  EXPECT_TRUE(profiler.Snapshot().empty());
  EXPECT_EQ(profiler.stage_count(), 1u);
  { ScopedStage stage(&profiler, "work"); }
  auto samples = profiler.Snapshot();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].hist.count, 1u);
}

TEST(StageProfilerTest, ExportToRegistryAsBatchCounters) {
  StageProfiler profiler;
  profiler.set_enabled(true);
  constexpr int kIters = 10;
  for (int i = 0; i < kIters; ++i) {
    ScopedStage stage(&profiler, "work");
  }
  MetricsRegistry registry;
  registry.set_enabled(true);
  profiler.ExportTo(registry);
  auto snap = registry.Snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].name, "profile/work");
  EXPECT_EQ(snap.counters[0].events, static_cast<std::uint64_t>(kIters));
  const auto samples = profiler.Snapshot();
  const StageSample* s = Find(samples, "work");
  ASSERT_NE(s, nullptr);
  EXPECT_NEAR(snap.counters[0].value,
              static_cast<double>(s->hist.total_ns) * 1e-9, 1e-12);
}

TEST(StageProfilerTest, WritePrometheusEmitsStageFamilies) {
  StageProfiler profiler;
  profiler.set_enabled(true);
  {
    ScopedStage outer(&profiler, "step");
    ScopedStage inner(&profiler, "decode");
  }
  std::ostringstream out;
  profiler.WritePrometheus(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("threelc_stage_step_seconds_total"), std::string::npos);
  EXPECT_NE(text.find("threelc_stage_step_decode_seconds_total"),
            std::string::npos);
  EXPECT_NE(text.find("threelc_stage_step_decode_count_total"),
            std::string::npos);
  EXPECT_NE(text.find("quantile=\"0.5\""), std::string::npos);
  // Families are declared exactly once each (tools/check_prometheus.py
  // fails the CI scrape otherwise).
  EXPECT_EQ(text.find("# TYPE threelc_stage_step_seconds_total"),
            text.rfind("# TYPE threelc_stage_step_seconds_total"));
}

// With the profiler and tracer off the slot still fills (how a spawned
// worker with no Telemetry gets its TELEMETRY phase numbers), and sums.
TEST(StageProfilerTest, SlotFillsWithEveryOtherSinkOff) {
  StageProfiler profiler;  // disabled
  Tracer tracer;           // disabled
  std::uint64_t slot_ns = 0;
  for (int i = 0; i < 2; ++i) {
    ScopedStage stage(&profiler, "phase", &slot_ns, {&tracer, 1, 7});
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  EXPECT_GE(slot_ns, 100'000u);
  EXPECT_TRUE(profiler.Snapshot().empty());
  EXPECT_EQ(tracer.event_count(), 0u);
}

// One clock pair, three sinks: the slot, the profiler stage and the span
// (named after the leaf, stamped with the step) carry the same duration.
TEST(StageProfilerTest, AllSinksRecordTheSameDuration) {
  StageProfiler profiler;
  profiler.set_enabled(true);
  Tracer tracer;
  tracer.set_enabled(true);
  std::uint64_t slot_ns = 0;
  {
    ScopedStage step(&profiler, "step");
    ScopedStage phase(&profiler, "decode", &slot_ns, {&tracer, 2, 41});
  }
  const auto samples = profiler.Snapshot();
  const StageSample* s = Find(samples, "step/decode");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->hist.total_ns, slot_ns);
  const std::vector<TraceEvent> events = tracer.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "decode");
  EXPECT_EQ(events[0].track, 2);
  EXPECT_EQ(events[0].step, 41);
  EXPECT_DOUBLE_EQ(events[0].dur_us, static_cast<double>(slot_ns) * 1e-3);
}

}  // namespace
}  // namespace threelc::obs
