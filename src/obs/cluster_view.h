// Cluster-wide telemetry aggregation for the distributed runtime.
//
// Workers ship one compact record per completed step over the wire (the
// TELEMETRY frame, rpc/frame.h); the server feeds those records plus its
// own barrier observations into one ClusterView. The view answers the
// questions a single process's /metricsz cannot: which worker is slow,
// why a step's barrier was long, and how compute / encode / network time
// is distributed across the fleet.
//
// Each worker phase is a DurationHistogram, the stage profiler's log2(ns)
// layout, so a per-worker histogram merged at the server is bit-identical
// to the histogram the worker would have built locally — merge exactness
// is unit-tested, not assumed.
//
// Straggler attribution: the server calls RecordBarrier after each step
// barrier with the last-arriving worker and the fleet's arrival spread.
// The worker's telemetry record for that step arrives after the barrier
// (it is sent once the step's pulls were applied); when it lands, the
// barrier wait is attributed to the record's dominant phase group —
// compute (forward_backward), encode (encode + decode), or network
// (push + pull_wait). Straggler flips (a different worker becoming the
// slowest) are recorded to the flight recorder so a post-hoc dump shows
// when cluster behavior changed.
//
// Thread-safety: all methods lock one mutex. Ingest runs on the server's
// event loop once per worker per step with a ~70-byte record — far off
// any hot path; the HTTP scrape thread pays for JSON/Prometheus assembly.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>

#include "obs/duration_histogram.h"

namespace threelc::obs {

class FlightRecorder;

// Phase groups a barrier wait can be attributed to.
enum class StragglerCause : std::uint8_t { kCompute = 0, kEncode, kNetwork };
const char* StragglerCauseName(StragglerCause cause);

// One worker's per-step telemetry record, as carried by a TELEMETRY frame
// (rpc::EncodeTelemetry / DecodeTelemetry).
struct WorkerStepRecord {
  std::uint64_t step = 0;
  std::uint64_t forward_backward_ns = 0;  // sampler + TrainStep
  std::uint64_t encode_ns = 0;            // EncodePush over all tensors
  std::uint64_t push_ns = 0;              // send + flush of PUSH/STEP_STATS
  std::uint64_t pull_wait_ns = 0;         // blocking wait for all pulls
  std::uint64_t decode_ns = 0;            // ApplyPull over all tensors
  std::uint64_t bytes_out = 0;            // wire push payload bytes
  std::uint64_t bytes_in = 0;             // wire pull payload bytes
  // First-stage (pre-block-codec) payload bytes; equal to bytes_out/in
  // when no second-stage block codec is negotiated.
  std::uint64_t stage1_bytes_out = 0;
  std::uint64_t stage1_bytes_in = 0;
  double ea_l2 = 0.0;         // error-accumulation buffer L2
  std::uint32_t rejoins = 0;  // reconnects so far this process
};

class ClusterView {
 public:
  static constexpr int kPhases = 5;  // fb, encode, push, pull_wait, decode
  // Barrier observations waiting for the straggler's telemetry record.
  // Bounded: a worker that never ships telemetry (old protocol, crashed
  // mid-step) must not grow this map forever.
  static constexpr std::size_t kMaxPendingBarriers = 64;

  // `flight` may be null; straggler flips are then only counted, not
  // recorded. The recorder must outlive the view.
  explicit ClusterView(FlightRecorder* flight = nullptr);

  // Feed one worker record. Duplicate or out-of-order records (step <=
  // the worker's last ingested step) are dropped — rejoin replay can
  // legitimately resend a step's record.
  void Ingest(int worker_id, const WorkerStepRecord& record);

  // Feed one barrier observation: `last_worker` was the last contributor
  // to complete step `step`, arriving `wait_ms` after the first.
  void RecordBarrier(std::uint64_t step, int last_worker, double wait_ms,
                     int contributors);

  // Drop a worker's state entirely (eviction). Its traffic and straggler
  // counts leave the per-worker families; fleet totals keep history, and
  // so do lease-expiry counts (the eviction's cause must stay visible
  // after the eviction removed the worker).
  void RemoveWorker(int worker_id);

  // Liveness (protocol v6 leases). RecordLiveness stamps "a frame from
  // this worker arrived now"; /clusterz reports the age of each worker's
  // stamp as last_heartbeat_age_ms. RecordLeaseExpiry counts a server-side
  // lease expiry against the worker — the signal that lets a run report
  // say "worker N (hung)" rather than just "worker N was slowest".
  void RecordLiveness(int worker_id);
  void RecordLeaseExpiry(int worker_id);
  std::uint64_t lease_expiries() const;

  // Uncompressed bytes a worker would move per step in each direction
  // (model size x 4 bytes); enables per-direction compression ratios.
  void SetRawBytesPerStep(std::uint64_t push_raw, std::uint64_t pull_raw);

  // Server checkpoint storage health, refreshed after every write attempt
  // and resume (see rpc::RpcServer). Surfaces on /clusterz as a
  // "storage" section; run_report.py renders it alongside the
  // checkpoint-stage latency from the step log.
  struct StorageHealth {
    std::uint64_t checkpoints = 0;      // successful generation writes
    std::uint64_t write_failures = 0;   // failed write attempts
    std::uint64_t fallbacks = 0;        // bad generations skipped on resume
    std::uint64_t generations = 0;      // generations currently on disk
    double last_write_ms = 0.0;         // latency of the last good write
    bool degraded = false;              // writes currently failing
  };
  void SetStorageHealth(const StorageHealth& health);

  // The /clusterz payload: per-worker phase quantiles, traffic, straggler
  // attribution, fleet-wide merged view.
  std::string ToJson() const;

  // threelc_cluster_* families appended to the /metricsz exposition.
  // HELP/TYPE once per family; one labeled sample per worker (and per
  // phase/cause where applicable).
  void WritePrometheus(std::ostream& out,
                       const std::string& prefix = "threelc_") const;

  std::size_t worker_count() const;
  std::uint64_t straggler_flips() const;
  int current_straggler() const;

 private:
  struct WorkerState {
    std::int64_t last_step = -1;
    std::uint64_t records = 0;
    std::uint64_t bytes_out = 0;
    std::uint64_t bytes_in = 0;
    std::uint64_t stage1_bytes_out = 0;
    std::uint64_t stage1_bytes_in = 0;
    double ea_l2 = 0.0;       // latest
    std::uint32_t rejoins = 0;  // latest
    DurationHistogram phases[kPhases];
    std::uint64_t straggler_steps = 0;
    std::uint64_t cause_counts[3] = {};  // indexed by StragglerCause
    double barrier_wait_ms_sum = 0.0;
  };

  struct PendingBarrier {
    int last_worker = -1;
    double wait_ms = 0.0;
    int contributors = 0;
  };

  void AppendWorkerJson(std::string& out, int id,
                        const WorkerState& w) const;

  FlightRecorder* const flight_;
  mutable std::mutex mu_;
  std::map<int, WorkerState> workers_;
  // Liveness stamps leave with the worker (RemoveWorker); lease-expiry
  // counts outlive it.
  std::map<int, std::chrono::steady_clock::time_point> last_seen_;
  std::map<int, std::uint64_t> lease_expiries_by_worker_;
  std::map<std::uint64_t, PendingBarrier> pending_barriers_;
  std::uint64_t barriers_observed_ = 0;
  int current_straggler_ = -1;
  std::uint64_t straggler_flips_ = 0;
  std::uint64_t raw_push_bytes_per_step_ = 0;
  std::uint64_t raw_pull_bytes_per_step_ = 0;
  // Present in /clusterz only once the server reported it (old snapshots
  // and worker-side views carry no "storage" section).
  bool have_storage_ = false;
  StorageHealth storage_;
};

}  // namespace threelc::obs
