// ClusterView tests: per-worker histogram merge exactness against the
// shared DurationHistogram bucket math, straggler attribution on a synthetic
// skewed fleet, duplicate-step dedup, eviction pruning, and the
// pending-barrier bound.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "obs/cluster_view.h"
#include "obs/duration_histogram.h"
#include "util/rng.h"

namespace threelc::obs {
namespace {

// Matches obs::AppendJsonNumber's double formatting, so quantile needles
// compare against the exact JSON text.
std::string G9(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

WorkerStepRecord MakeRecord(std::uint64_t step) {
  WorkerStepRecord r;
  r.step = step;
  r.forward_backward_ns = 1'000'000;
  r.encode_ns = 200'000;
  r.push_ns = 80'000;
  r.pull_wait_ns = 500'000;
  r.decode_ns = 120'000;
  r.bytes_out = 1000;
  r.bytes_in = 900;
  r.ea_l2 = 0.5;
  r.rejoins = 0;
  return r;
}

// The server-side merged histogram must be bit-identical to one built
// locally from the same samples with the shared bucket math: quantiles
// of a reference DurationHistogram must match the p50/p95/p99 the view
// reports in its JSON.
TEST(ClusterView, HistogramMergeMatchesReferenceBucketMath) {
  ClusterView view;
  util::Rng rng(0xC1);
  DurationHistogram ref;
  for (std::uint64_t step = 0; step < 500; ++step) {
    WorkerStepRecord r = MakeRecord(step);
    // Spread forward_backward over ~5 decades so many buckets fill.
    r.forward_backward_ns = 1'000 + rng.Next() % 100'000'000;
    ref.Add(r.forward_backward_ns);
    view.Ingest(0, r);
  }
  const double want_p50 = ref.Quantile(0.50);
  const double want_p99 = ref.Quantile(0.99);
  const std::string json = view.ToJson();
  // The worker's forward_backward phase carries exactly those quantiles.
  const std::string p50_needle = "\"p50_ns\":" + G9(want_p50);
  const std::string p99_needle = "\"p99_ns\":" + G9(want_p99);
  EXPECT_NE(json.find(p50_needle), std::string::npos) << json;
  EXPECT_NE(json.find(p99_needle), std::string::npos) << json;
}

// Two workers' histograms merged into the fleet view must equal a single
// histogram built from the concatenated samples.
TEST(ClusterView, FleetMergeIsExact) {
  ClusterView view;
  util::Rng rng(0xC2);
  DurationHistogram ref;
  for (int w = 0; w < 2; ++w) {
    for (std::uint64_t step = 0; step < 300; ++step) {
      WorkerStepRecord r = MakeRecord(step);
      r.encode_ns = 500 + rng.Next() % 10'000'000;
      ref.Add(r.encode_ns);
      view.Ingest(w, r);
    }
  }
  const double want_p95 = ref.Quantile(0.95);
  const std::string json = view.ToJson();
  // The fleet block is the last "encode" occurrence in the JSON.
  const std::size_t fleet = json.rfind("\"encode\"");
  ASSERT_NE(fleet, std::string::npos);
  const std::string tail = json.substr(fleet);
  EXPECT_NE(tail.find("\"p95_ns\":" + G9(want_p95)), std::string::npos)
      << tail;
}

TEST(ClusterView, DuplicateAndOutOfOrderStepsAreDropped) {
  ClusterView view;
  view.Ingest(1, MakeRecord(5));
  view.Ingest(1, MakeRecord(5));  // duplicate (rejoin replay)
  view.Ingest(1, MakeRecord(3));  // out of order
  view.Ingest(1, MakeRecord(6));
  const std::string json = view.ToJson();
  EXPECT_NE(json.find("\"records\":2"), std::string::npos) << json;
}

// Synthetic skewed fleet: worker 2 is consistently last to the barrier
// with a dominant pull_wait (network) phase. The view must name it as the
// current straggler and attribute its waits to "network".
TEST(ClusterView, StragglerAttributionOnSkewedFleet) {
  ClusterView view;
  for (std::uint64_t step = 0; step < 20; ++step) {
    view.RecordBarrier(step, /*last_worker=*/2, /*wait_ms=*/40.0,
                       /*contributors=*/3);
    for (int w = 0; w < 3; ++w) {
      WorkerStepRecord r = MakeRecord(step);
      if (w == 2) {
        // Network-bound: push + pull_wait dwarf compute and codec time.
        r.pull_wait_ns = 60'000'000;
        r.push_ns = 5'000'000;
      }
      view.Ingest(w, r);
    }
  }
  EXPECT_EQ(view.current_straggler(), 2);
  // First RecordBarrier set the straggler from "none"; no flips after.
  EXPECT_EQ(view.straggler_flips(), 0u);
  const std::string json = view.ToJson();
  EXPECT_NE(json.find("\"straggler_steps\":20"), std::string::npos) << json;
  EXPECT_NE(json.find("\"network\":20"), std::string::npos) << json;
  EXPECT_NE(json.find("\"current\":2"), std::string::npos) << json;

  std::ostringstream prom;
  view.WritePrometheus(prom);
  const std::string text = prom.str();
  EXPECT_NE(text.find("threelc_cluster_straggler_cause_total{worker=\"2\","
                      "cause=\"network\"} 20"),
            std::string::npos)
      << text;
}

// A compute-bound straggler must be attributed to "compute", and a flip
// from one straggler to another must be counted.
TEST(ClusterView, StragglerFlipAndComputeAttribution) {
  ClusterView view;
  view.RecordBarrier(0, /*last_worker=*/0, 10.0, 2);
  WorkerStepRecord slow = MakeRecord(0);
  slow.forward_backward_ns = 90'000'000;  // compute dominates
  view.Ingest(0, slow);
  EXPECT_EQ(view.current_straggler(), 0);

  view.RecordBarrier(1, /*last_worker=*/1, 12.0, 2);
  EXPECT_EQ(view.current_straggler(), 1);
  EXPECT_EQ(view.straggler_flips(), 1u);

  const std::string json = view.ToJson();
  EXPECT_NE(json.find("\"compute\":1"), std::string::npos) << json;
}

TEST(ClusterView, RemoveWorkerPrunesAllState) {
  ClusterView view;
  for (std::uint64_t step = 0; step < 4; ++step) {
    view.RecordBarrier(step, /*last_worker=*/1, 5.0, 2);
    view.Ingest(0, MakeRecord(step));
    view.Ingest(1, MakeRecord(step));
  }
  EXPECT_EQ(view.worker_count(), 2u);
  EXPECT_EQ(view.current_straggler(), 1);
  view.RemoveWorker(1);
  EXPECT_EQ(view.worker_count(), 1u);
  EXPECT_EQ(view.current_straggler(), -1);
  const std::string json = view.ToJson();
  EXPECT_EQ(json.find("\"1\":{"), std::string::npos) << json;
  std::ostringstream prom;
  view.WritePrometheus(prom);
  EXPECT_EQ(prom.str().find("worker=\"1\""), std::string::npos);
}

// Barriers whose straggler never ships a telemetry record (crashed, old
// protocol) must not accumulate without bound.
TEST(ClusterView, PendingBarriersAreBounded) {
  ClusterView view;
  for (std::uint64_t step = 0; step < 1000; ++step) {
    view.RecordBarrier(step, /*last_worker=*/0, 1.0, 2);
  }
  // The worker's record for an old, pruned step attributes nothing; a
  // record for a recent step still works.
  view.Ingest(0, MakeRecord(999));
  const std::string json = view.ToJson();
  EXPECT_NE(json.find("\"straggler_steps\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"barriers_observed\":1000"), std::string::npos)
      << json;
}

// Compression ratio: raw bytes per step over the fleet mean encoded bytes.
TEST(ClusterView, CompressionRatioUsesRawDenominator) {
  ClusterView view;
  view.SetRawBytesPerStep(/*push_raw=*/4000, /*pull_raw=*/4000);
  WorkerStepRecord r = MakeRecord(0);
  r.bytes_out = 1000;  // 4x push compression
  r.bytes_in = 2000;   // 2x pull compression
  view.Ingest(0, r);
  const std::string json = view.ToJson();
  EXPECT_NE(json.find("\"compression_ratio_push\":4"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"compression_ratio_pull\":2"), std::string::npos)
      << json;
}

// The Prometheus exposition must be empty with no workers (quickstart
// /metricsz unchanged) and well-formed with workers: HELP/TYPE exactly
// once per family.
TEST(ClusterView, PrometheusFamiliesDeclaredOnce) {
  ClusterView view;
  std::ostringstream empty;
  view.WritePrometheus(empty);
  EXPECT_TRUE(empty.str().empty());

  for (int w = 0; w < 3; ++w) view.Ingest(w, MakeRecord(1));
  view.RecordBarrier(2, 1, 3.0, 3);
  std::ostringstream out;
  view.WritePrometheus(out);
  const std::string text = out.str();
  const std::vector<std::string> families = {
      "threelc_cluster_workers",
      "threelc_cluster_worker_records_total",
      "threelc_cluster_worker_bytes_total",
      "threelc_cluster_phase_ns",
  };
  for (const std::string& family : families) {
    const std::string help = "# HELP " + family + " ";
    std::size_t count = 0;
    for (std::size_t pos = text.find(help); pos != std::string::npos;
         pos = text.find(help, pos + 1)) {
      ++count;
    }
    EXPECT_EQ(count, 1u) << family << "\n" << text;
  }
}

}  // namespace
}  // namespace threelc::obs
