// Hierarchical stage profiler, fed by ScopedStage — the one phase timer
// of the stack (codec stages, transport frame handling, and the server,
// worker and trainer step phases). Each scope's single pair of
// steady_clock reads feeds the profiler, a step-stamped trace span and a
// per-step slot (see ScopedStage), so those views agree to the nanosecond.
//
// Design rules, mirroring MetricsRegistry:
//  - Compiled in everywhere, disabled by default. A ScopedStage with every
//    sink off costs one relaxed atomic load and a predictable branch
//    (bench_kernels measures this as BM_StageScopeDisabled).
//  - An enabled ScopedStage accumulates into thread-local, single-writer
//    slots: two steady_clock reads plus a handful of relaxed stores, no
//    locks and no allocation on the steady-state path. The only locking
//    happens the first time a thread sees a new (parent, name) pair.
//  - Stages are hierarchical: a ScopedStage opened while another is live
//    on the same thread becomes its child, and the stage's identity is the
//    full path ("server_step/encode/3lc_encode/quantize"). The same leaf
//    name under different parents is a different stage, which is how one
//    codec instrumentation serves both the push and pull directions.
//  - Snapshot() merges every thread's accumulators outside the hot path
//    (the scraping thread pays the cost, not the step loop). Counts and
//    totals may be torn by in-flight recordings — profiling tolerance, not
//    ledger accuracy.
//  - Each stage keeps exact count/total/min/max plus 64 log2(ns) buckets,
//    and Snapshot() hands them out as a DurationHistogram.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/duration_histogram.h"
#include "obs/trace.h"

namespace threelc::obs {

class MetricsRegistry;

// One stage, merged across threads, as of a Snapshot() call.
struct StageSample {
  std::string path;  // "parent/child/leaf"
  DurationHistogram hist;
};

class StageProfiler {
 public:
  // Distinct hierarchical stage paths per profiler. Fixed so per-thread
  // accumulator arrays never reallocate under a concurrent Snapshot().
  static constexpr int kMaxStages = 256;

  StageProfiler();
  ~StageProfiler();
  StageProfiler(const StageProfiler&) = delete;
  StageProfiler& operator=(const StageProfiler&) = delete;

  // Process-wide profiler; what Telemetry enables and /metricsz serves.
  static StageProfiler& Global();

  void set_enabled(bool enabled) { enabled_.store(enabled); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Merge every thread's accumulators into per-path samples, sorted by
  // path. Stages with zero recordings are omitted.
  std::vector<StageSample> Snapshot() const;

  // Record the current totals into `registry` as one counter per stage:
  //   profile/<path>  (value = total seconds, events = count)
  // Totals are cumulative, so call this once per registry (e.g. at
  // Telemetry::Flush) — repeated exports double-count.
  void ExportTo(MetricsRegistry& registry) const;

  // Prometheus text exposition of the current snapshot:
  //   <prefix>stage_<path>_seconds_total / _count_total  (counters)
  //   <prefix>stage_<path>_ns{quantile=...} + _sum/_count (summary)
  void WritePrometheus(std::ostream& out,
                       const std::string& prefix = "threelc_") const;

  // Zero every accumulator, keeping registered stages and thread slots.
  // Test/bench helper; not safe against concurrent recording threads.
  void Reset();

  std::size_t stage_count() const;

 private:
  friend class ScopedStage;

  // Single-writer accumulator: only the owning thread stores, any thread
  // may load (Snapshot). Everything relaxed — the values are statistics.
  struct StageAccum {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> total_ns{0};
    std::atomic<std::uint64_t> min_ns{~std::uint64_t{0}};
    std::atomic<std::uint64_t> max_ns{0};
    std::atomic<std::uint32_t> hist[DurationHistogram::kBuckets] = {};
    DurationHistogram Load() const;
  };

  struct ThreadState {
    ThreadState() : accums(new StageAccum[kMaxStages]) {}
    std::unique_ptr<StageAccum[]> accums;
    // Owner-thread-only state below.
    int current = -1;  // innermost live stage id (-1 = top level)
    struct ChildEdge {
      int parent;
      const char* name;  // pointer identity: stage names are literals
      int id;
    };
    std::vector<ChildEdge> children;  // tiny; linear scan beats hashing
    void Record(int id, std::uint64_t ns);
  };

  ThreadState* GetThreadState();
  int ResolveChild(ThreadState& ts, int parent, const char* name);

  std::atomic<bool> enabled_{false};
  const std::uint64_t instance_id_;  // unique forever; keys the TLS cache
  mutable std::mutex mu_;  // guards paths_/ids_/threads_ structure
  std::vector<std::string> paths_;  // index = stage id
  std::vector<std::unique_ptr<ThreadState>> threads_;
};

// Where a ScopedStage's span goes: `tracer` (null or disabled = no span),
// the logical track (0 = server, 1 + w = worker w), and the training step
// stamped into the span (-1 = untagged).
struct SpanTarget {
  Tracer* tracer = nullptr;
  int track = 0;
  std::int64_t step = -1;
};

// RAII phase timer. One pair of steady_clock reads feeds up to three sinks:
//  - the profiler stage, when `profiler` is enabled;
//  - a span named `name` on `span`, when its tracer is enabled;
//  - `*slot_ns`, always, when non-null: the caller-owned per-step record
//    (phases_ms, the worker TELEMETRY frame). Slots are summed, so a scope
//    entered once per tensor adds up.
// With every sink off the clock is never read.
class ScopedStage {
 public:
  // `name` must be a string literal (or otherwise outlive the profiler):
  // the per-thread child cache keys on pointer identity.
  ScopedStage(StageProfiler* profiler, const char* name,
              std::uint64_t* slot_ns = nullptr, const SpanTarget& span = {})
      : name_(name), slot_(slot_ns) {
    if (profiler != nullptr && profiler->enabled()) {
      ts_ = profiler->GetThreadState();
      parent_ = ts_->current;
      id_ = profiler->ResolveChild(*ts_, parent_, name);
      ts_->current = id_;
    }
    if (span.tracer != nullptr && span.tracer->enabled()) span_ = span;
    if (timed()) start_ = std::chrono::steady_clock::now();
  }

  ScopedStage(const ScopedStage&) = delete;
  ScopedStage& operator=(const ScopedStage&) = delete;

  ~ScopedStage() {
    if (!timed()) return;
    const auto elapsed = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now() - start_)
                             .count();
    const std::uint64_t ns =
        elapsed > 0 ? static_cast<std::uint64_t>(elapsed) : 0;
    if (slot_ != nullptr) *slot_ += ns;
    if (ts_ != nullptr) {
      ts_->Record(id_, ns);
      ts_->current = parent_;
    }
    if (span_.tracer != nullptr) {
      span_.tracer->RecordSpan(name_, span_.track, span_.tracer->ToUs(start_),
                               static_cast<double>(ns) * 1e-3, span_.step);
    }
  }

 private:
  bool timed() const {
    return ts_ != nullptr || slot_ != nullptr || span_.tracer != nullptr;
  }

  StageProfiler::ThreadState* ts_ = nullptr;
  int parent_ = -1;
  int id_ = -1;
  const char* name_;
  std::uint64_t* slot_;
  SpanTarget span_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace threelc::obs
