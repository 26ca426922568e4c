// Metrics registry: named counters, gauges, and histograms cheap enough
// for per-tensor hot paths.
//
// Design rules:
//  - Compiled in everywhere, disabled by default. A disabled metric costs
//    one relaxed atomic load and a predictable branch — no allocation, no
//    locking (bench_kernels measures this as BM_MetricsCounterDisabled).
//  - Handles returned by counter()/gauge()/histogram() are stable for the
//    registry's lifetime; call sites look them up once and keep the pointer.
//  - Counters and gauges are lock-free so worker threads on the pool can
//    record concurrently; histograms take a mutex (per-phase cadence, not
//    per-value hot paths).
//  - Histograms are durations: one DurationHistogram (log2 ns buckets) each.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/duration_histogram.h"

namespace threelc::obs {

class MetricsRegistry;

// Monotonically increasing sum (bytes, events, seconds).
//
// `sum_` and `events_` always move together, and exporters must never see
// one without the other (a value/events pair torn mid-Add misreports the
// per-event average). A seqlock guards the pair: writers serialize on the
// odd/even sequence word, readers retry while a write is in flight. The
// disabled fast path is unchanged — one relaxed load and a branch.
class Counter {
 public:
  struct Snapshot {
    double value = 0.0;
    std::uint64_t events = 0;
  };

  void Add(double v = 1.0) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    AddSample(v, 1);
  }

  // Consistent (value, events) pair: both sides of the same set of
  // completed Add() calls.
  Snapshot Read() const {
    for (;;) {
      const std::uint64_t before = seq_.load(std::memory_order_acquire);
      if (before & 1u) continue;  // writer in flight
      Snapshot snap{sum_.load(std::memory_order_relaxed),
                    events_.load(std::memory_order_relaxed)};
      std::atomic_thread_fence(std::memory_order_acquire);
      if (seq_.load(std::memory_order_relaxed) == before) return snap;
    }
  }

  double value() const { return Read().value; }
  std::uint64_t events() const { return Read().events; }

 private:
  friend class MetricsRegistry;
  explicit Counter(const std::atomic<bool>* enabled) : enabled_(enabled) {}

  void AddSample(double v, std::uint64_t n) {
    std::uint64_t s = seq_.load(std::memory_order_relaxed);
    for (;;) {
      while (s & 1u) s = seq_.load(std::memory_order_relaxed);
      if (seq_.compare_exchange_weak(s, s + 1, std::memory_order_acquire,
                                     std::memory_order_relaxed)) {
        break;
      }
    }
    // Exclusive writer between the odd and even sequence stores; the pair
    // stays atomic<> only so concurrent readers are race-free.
    sum_.store(sum_.load(std::memory_order_relaxed) + v,
               std::memory_order_relaxed);
    events_.store(events_.load(std::memory_order_relaxed) + n,
                  std::memory_order_relaxed);
    seq_.store(s + 2, std::memory_order_release);
  }

  const std::atomic<bool>* enabled_;
  std::atomic<std::uint64_t> seq_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<std::uint64_t> events_{0};
};

// Last-written value (loss, learning rate, queue depth).
class Gauge {
 public:
  void Set(double v) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    value_.store(v, std::memory_order_relaxed);
    set_.store(true, std::memory_order_relaxed);
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  bool set() const { return set_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  explicit Gauge(const std::atomic<bool>* enabled) : enabled_(enabled) {}
  const std::atomic<bool>* enabled_;
  std::atomic<double> value_{0.0};
  std::atomic<bool> set_{false};
};

// Duration distribution: one DurationHistogram behind a mutex.
class HistogramStat {
 public:
  void Add(std::uint64_t ns) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    std::lock_guard<std::mutex> lock(mu_);
    hist_.Add(ns);
  }
  DurationHistogram Read() const {
    std::lock_guard<std::mutex> lock(mu_);
    return hist_;
  }

 private:
  friend class MetricsRegistry;
  explicit HistogramStat(const std::atomic<bool>* enabled)
      : enabled_(enabled) {}

  const std::atomic<bool>* enabled_;
  mutable std::mutex mu_;
  DurationHistogram hist_;
};

// Point-in-time copy of every registered metric, safe to format outside
// the registry lock. Counters come through Counter::Read(), so the
// (value, events) pairs are internally consistent.
struct MetricSnapshot {
  struct CounterSample {
    std::string name;
    double value = 0.0;
    std::uint64_t events = 0;
  };
  struct GaugeSample {
    std::string name;
    double value = 0.0;
    bool set = false;
  };
  struct HistogramSample {
    std::string name;
    DurationHistogram hist;
  };
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Process-wide registry for call sites without an obvious owner.
  static MetricsRegistry& Global();

  void set_enabled(bool enabled) { enabled_.store(enabled); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Find-or-create by name. Pointers remain valid for the registry's
  // lifetime.
  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  HistogramStat* histogram(const std::string& name);

  // Record a pre-aggregated batch on counter `name` in one consistent
  // write: value += v, events += n. Used by exporters that fold an
  // external accumulator (e.g. StageProfiler) into the registry without
  // replaying every sample. Respects the enabled flag like Add().
  void AddCounterBatch(const std::string& name, double v, std::uint64_t n);

  // Copy every metric out for export (Prometheus exposition, /statusz).
  MetricSnapshot Snapshot() const;

  // All metrics as one JSON object (embedded in the step log's summary).
  std::string ToJsonObject() const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;  // guards the maps; metric values self-synchronize
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<HistogramStat>> histograms_;
};

}  // namespace threelc::obs
