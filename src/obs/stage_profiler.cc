#include "obs/stage_profiler.h"

#include <algorithm>
#include <map>
#include <ostream>

#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "util/logging.h"

namespace threelc::obs {

namespace {

std::atomic<std::uint64_t> g_next_instance_id{1};

}  // namespace

void StageProfiler::ThreadState::Record(int id, std::uint64_t ns) {
  StageAccum& a = accums[id];
  // Single writer: plain load+store (relaxed) is race-free against the
  // concurrent relaxed loads Snapshot performs.
  a.count.store(a.count.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
  a.total_ns.store(a.total_ns.load(std::memory_order_relaxed) + ns,
                   std::memory_order_relaxed);
  if (ns < a.min_ns.load(std::memory_order_relaxed)) {
    a.min_ns.store(ns, std::memory_order_relaxed);
  }
  if (ns > a.max_ns.load(std::memory_order_relaxed)) {
    a.max_ns.store(ns, std::memory_order_relaxed);
  }
  std::atomic<std::uint32_t>& bucket = a.hist[DurationHistogram::Bucket(ns)];
  bucket.store(bucket.load(std::memory_order_relaxed) + 1,
               std::memory_order_relaxed);
}

StageProfiler::StageProfiler()
    : instance_id_(g_next_instance_id.fetch_add(1)) {}

StageProfiler::~StageProfiler() = default;

StageProfiler& StageProfiler::Global() {
  static StageProfiler* profiler = new StageProfiler();
  return *profiler;
}

StageProfiler::ThreadState* StageProfiler::GetThreadState() {
  // Cache keyed by instance id, not pointer: ids are never reused, so a
  // stale entry for a destroyed profiler can never match a new one.
  struct CacheEntry {
    std::uint64_t instance;
    ThreadState* state;
  };
  thread_local std::vector<CacheEntry> cache;
  for (const CacheEntry& e : cache) {
    if (e.instance == instance_id_) return e.state;
  }
  auto owned = std::make_unique<ThreadState>();
  ThreadState* state = owned.get();
  {
    std::lock_guard<std::mutex> lock(mu_);
    threads_.push_back(std::move(owned));
  }
  cache.push_back({instance_id_, state});
  return state;
}

int StageProfiler::ResolveChild(ThreadState& ts, int parent,
                                const char* name) {
  for (const ThreadState::ChildEdge& e : ts.children) {
    if (e.parent == parent && e.name == name) return e.id;
  }
  std::string path;
  int id = -1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    path = parent < 0 ? std::string(name)
                      : paths_[static_cast<std::size_t>(parent)] + "/" + name;
    for (std::size_t i = 0; i < paths_.size(); ++i) {
      if (paths_[i] == path) {
        id = static_cast<int>(i);
        break;
      }
    }
    if (id < 0) {
      THREELC_CHECK_MSG(paths_.size() < kMaxStages,
                        "StageProfiler: too many distinct stage paths");
      id = static_cast<int>(paths_.size());
      paths_.push_back(std::move(path));
    }
  }
  ts.children.push_back({parent, name, id});
  return id;
}

DurationHistogram StageProfiler::StageAccum::Load() const {
  DurationHistogram h;
  h.count = count.load(std::memory_order_relaxed);
  if (h.count == 0) return h;
  h.total_ns = total_ns.load(std::memory_order_relaxed);
  h.min_ns = min_ns.load(std::memory_order_relaxed);
  h.max_ns = max_ns.load(std::memory_order_relaxed);
  for (int b = 0; b < DurationHistogram::kBuckets; ++b) {
    h.buckets[b] = hist[b].load(std::memory_order_relaxed);
  }
  return h;
}

std::vector<StageSample> StageProfiler::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<StageSample> samples;
  samples.reserve(paths_.size());
  for (std::size_t id = 0; id < paths_.size(); ++id) {
    StageSample s;
    s.path = paths_[id];
    for (const auto& thread : threads_) s.hist.Merge(thread->accums[id].Load());
    if (s.hist.count == 0) continue;
    samples.push_back(std::move(s));
  }
  std::sort(samples.begin(), samples.end(),
            [](const StageSample& a, const StageSample& b) {
              return a.path < b.path;
            });
  return samples;
}

void StageProfiler::ExportTo(MetricsRegistry& registry) const {
  for (const StageSample& s : Snapshot()) {
    registry.AddCounterBatch("profile/" + s.path,
                             static_cast<double>(s.hist.total_ns) * 1e-9,
                             s.hist.count);
  }
}

void StageProfiler::WritePrometheus(std::ostream& out,
                                    const std::string& prefix) const {
  std::string text;
  for (const StageSample& s : Snapshot()) {
    const std::string base = prefix + "stage_" + SanitizeMetricName(s.path);
    AppendHeader(text, base + "_seconds_total", "counter",
                 "Total time in stage " + s.path);
    AppendSample(text, base + "_seconds_total",
                 static_cast<double>(s.hist.total_ns) * 1e-9);
    AppendHeader(text, base + "_count_total", "counter",
                 "Entries into stage " + s.path);
    AppendSample(text, base + "_count_total", s.hist.count);
    AppendHeader(text, base + "_ns", "summary",
                 "Stage duration distribution (ns)");
    AppendSummary(text, base + "_ns", "", s.hist, {0.5, 0.9, 0.99});
  }
  out << text;
}

void StageProfiler::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& thread : threads_) {
    for (int id = 0; id < kMaxStages; ++id) {
      StageAccum& a = thread->accums[id];
      a.count.store(0, std::memory_order_relaxed);
      a.total_ns.store(0, std::memory_order_relaxed);
      a.min_ns.store(~std::uint64_t{0}, std::memory_order_relaxed);
      a.max_ns.store(0, std::memory_order_relaxed);
      for (int b = 0; b < DurationHistogram::kBuckets; ++b) {
        a.hist[b].store(0, std::memory_order_relaxed);
      }
    }
  }
}

std::size_t StageProfiler::stage_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return paths_.size();
}

}  // namespace threelc::obs
