// Span tracer with Chrome trace-event export.
//
// Spans are recorded on logical *tracks* — the simulated machines of the
// parameter-server architecture (track 0 = server, 1+w = worker w) — rather
// than host threads, because the thread pool multiplexes many simulated
// workers onto few host threads and a per-host-thread view would scramble
// the picture the paper's timeline reasons about.
//
// WriteChromeTrace emits the JSON trace-event format ("X" complete events
// plus thread_name metadata) loadable in about:tracing and Perfetto.
//
// Spans come from obs::ScopedStage (stage_profiler.h), the one phase timer:
// a scope given a SpanTarget on an enabled tracer records its duration
// here, named after its stage. Cost: a null or disabled tracer is one
// branch; an enabled span is one short mutex-guarded vector push_back per
// scope.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace threelc::obs {

struct TraceEvent {
  std::string name;
  int track = 0;
  double ts_us = 0.0;   // since tracer construction
  double dur_us = 0.0;
  // Logical training step the span belongs to, or -1 when unknown. Stamped
  // into the Chrome JSON as args.step so tools/merge_traces.py can align
  // server and worker traces from different processes on one timeline.
  std::int64_t step = -1;
};

class Tracer {
 public:
  Tracer() : origin_(std::chrono::steady_clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void set_enabled(bool enabled) { enabled_.store(enabled); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Microseconds from tracer construction to `t`, or to now.
  double ToUs(std::chrono::steady_clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }
  double NowUs() const { return ToUs(std::chrono::steady_clock::now()); }

  // Label a track ("server", "worker 0"); shown as the thread name.
  void SetTrackName(int track, std::string name);

  // Record one completed span. Thread-safe; no-op when disabled. `step`
  // tags the span with a logical training step (-1 = untagged).
  void RecordSpan(std::string name, int track, double ts_us, double dur_us,
                  std::int64_t step = -1);

  // Instantaneous counter sample attached to the trace ("i" would lose the
  // value, so these export as counter events "C").
  void RecordCounter(std::string name, int track, double ts_us, double value);

  std::size_t event_count() const;
  std::vector<TraceEvent> snapshot() const;

  // Full trace-event JSON: {"traceEvents":[...],"displayTimeUnit":"ms"}.
  void WriteChromeTrace(std::ostream& out) const;

 private:
  struct CounterEvent {
    std::string name;
    int track;
    double ts_us;
    double value;
  };

  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
  std::vector<CounterEvent> counters_;
  std::map<int, std::string> track_names_;
};

}  // namespace threelc::obs
