// DurationHistogram: the one duration distribution of the stack. The stage
// profiler's snapshots, ClusterView's per-worker phases and the registry's
// step/<phase>_ns histograms are all this type, so a quantile is computed
// with the same math on /metricsz, /clusterz and the step-log summary, and
// merging two histograms equals building one from both sample streams.
//
// Exact count/total/min/max plus 64 log2(ns) buckets: bucket b holds
// durations in [2^b, 2^(b+1)) ns (0 and 1 ns both land in bucket 0), which
// covers 1 ns to 2^64 ns with <=50% relative error — enough to tell a 2 us
// quartic pack from a 2 ms fan-out stall, at any step size.
//
// A plain value: callers that share one across threads lock around it
// (MetricsRegistry, ClusterView) or keep their own atomics and merge into
// it (StageProfiler).
#pragma once

#include <algorithm>
#include <cstdint>

namespace threelc::obs {

struct DurationHistogram {
  static constexpr int kBuckets = 64;

  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t min_ns = 0;  // 0 while empty
  std::uint64_t max_ns = 0;
  std::uint64_t buckets[kBuckets] = {};

  static int Bucket(std::uint64_t ns) {
    return ns <= 1 ? 0 : 63 - __builtin_clzll(ns);
  }

  void Add(std::uint64_t ns) {
    min_ns = count == 0 ? ns : std::min(min_ns, ns);
    max_ns = std::max(max_ns, ns);
    ++count;
    total_ns += ns;
    ++buckets[Bucket(ns)];
  }

  void Merge(const DurationHistogram& other) {
    if (other.count == 0) return;
    min_ns = count == 0 ? other.min_ns : std::min(min_ns, other.min_ns);
    max_ns = std::max(max_ns, other.max_ns);
    count += other.count;
    total_ns += other.total_ns;
    for (int b = 0; b < kBuckets; ++b) buckets[b] += other.buckets[b];
  }

  // Geometric midpoint of the bucket where the cumulative count first
  // reaches q * count (exact to within the bucket's +-50% width); 0 while
  // empty.
  double Quantile(double q) const {
    if (count == 0) return 0.0;
    const double target = q * static_cast<double>(count);
    std::uint64_t cum = 0;
    int b = 0;
    for (; b < kBuckets - 1; ++b) {
      cum += buckets[b];
      if (static_cast<double>(cum) >= target && cum > 0) break;
    }
    return static_cast<double>(std::uint64_t{1} << b) * 1.4142135623730951;
  }

  double mean_ns() const {
    return count > 0 ? static_cast<double>(total_ns) /
                           static_cast<double>(count)
                     : 0.0;
  }
};

}  // namespace threelc::obs
