#!/usr/bin/env python3
"""Tests for the perf/trace/exposition tools (no third-party deps).

Run directly or via ctest: python3 tests/tools_test.py

Covers:
  - merge_traces.py round-trip: synthetic server + worker traces with a
    known clock skew come back on one timeline with the skew recovered;
    a rejoined rank (two traces, unrelated clocks) gets an independent
    offset per incarnation with distinct track names,
  - check_perf.py: passes on identical runs, fails (exit 1) when any
    metric regresses >10% in its harmful direction — latency up or
    throughput down — and ignores improvements; --update-baseline copies,
  - check_prometheus.py: accepts a well-formed exposition, rejects empty
    input, duplicate family declarations, duplicate series, and (with
    --max-workers) unbounded worker-label cardinality in cluster families,
  - run_report.py: joins a /clusterz snapshot with a server step log and
    names the straggler with its dominant cause.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

TOOLS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                     "tools")


def run_tool(name, args, stdin_text=None):
    return subprocess.run(
        [sys.executable, os.path.join(TOOLS, name)] + args,
        input=stdin_text, capture_output=True, text=True)


def span(name, tid, ts, dur, step=None):
    e = {"name": name, "cat": "train", "ph": "X", "pid": 0, "tid": tid,
         "ts": ts, "dur": dur}
    if step is not None:
        e["args"] = {"step": step}
    return e


class MergeTracesTest(unittest.TestCase):
    # Worker clock starts 5000us behind the server's: a worker push that
    # lands at server time T has worker-local end T - 5000.
    OFFSET_US = 5000.0

    def make_traces(self):
        server, worker = [], []
        server.append({"name": "thread_name", "ph": "M", "pid": 0, "tid": 0,
                       "args": {"name": "server"}})
        worker.append({"name": "thread_name", "ph": "M", "pid": 0, "tid": 1,
                       "args": {"name": "worker-0"}})
        for s in range(5):
            barrier_end = 10000.0 + 2000.0 * s
            server.append(span("step_barrier", 0, barrier_end - 500.0,
                               500.0, step=s))
            push_end = barrier_end - self.OFFSET_US
            worker.append(span("push", 1, push_end - 300.0, 300.0,
                               step=s))
            worker.append(span("forward_backward", 1, push_end - 1500.0,
                               1000.0, step=s))
        return ({"displayTimeUnit": "ms", "traceEvents": server},
                {"displayTimeUnit": "ms", "traceEvents": worker})

    def test_round_trip_recovers_skew(self):
        server, worker = self.make_traces()
        with tempfile.TemporaryDirectory() as tmp:
            spath = os.path.join(tmp, "server.json")
            wpath = os.path.join(tmp, "worker0.json")
            mpath = os.path.join(tmp, "merged.json")
            with open(spath, "w") as f:
                json.dump(server, f)
            with open(wpath, "w") as f:
                json.dump(worker, f)
            r = run_tool("merge_traces.py",
                         [spath, wpath, "-o", mpath, "--report"])
            self.assertEqual(r.returncode, 0, r.stderr)
            with open(mpath) as f:
                merged = json.load(f)
        events = merged["traceEvents"]
        # Every input event survives, plus 2 process_name metadata records.
        in_count = (len(server["traceEvents"]) + len(worker["traceEvents"]))
        self.assertEqual(len(events), in_count + 2)
        roles = {e["args"]["name"] for e in events
                 if e.get("name") == "process_name"}
        self.assertEqual(roles, {"server", "worker-0"})
        # Worker events moved to pid 1 and shifted onto the server clock.
        server_barriers = {e["args"]["step"]: e["ts"] + e["dur"]
                           for e in events
                           if e.get("name") == "step_barrier"}
        worker_pushes = {e["args"]["step"]: e["ts"] + e["dur"]
                         for e in events if e.get("name") == "push"}
        for s in range(5):
            self.assertAlmostEqual(server_barriers[s], worker_pushes[s],
                                   delta=1.0)
        for e in events:
            if e.get("name") in ("push", "forward_backward"):
                self.assertEqual(e["pid"], 1)

    def test_rejoined_rank_gets_independent_offsets(self):
        # Worker rank 0 runs steps 0-1, dies, rejoins with a NEW process
        # whose clock is wildly different, and runs steps 3-4. Each
        # incarnation must be aligned with its own offset; the rejoin must
        # not clobber (or inherit) the first connection's offset.
        first_skew, second_skew = 5000.0, 250000.0
        server, first, second = [], [], []
        for s in range(5):
            barrier_end = 10000.0 + 2000.0 * s
            server.append(span("step_barrier", 0, barrier_end - 500.0,
                               500.0, step=s))
            if s < 2:
                first.append(span("push", 1,
                                  barrier_end - first_skew - 300.0, 300.0,
                                  step=s))
            elif s >= 3:
                second.append(span("push", 1,
                                   barrier_end - second_skew - 300.0, 300.0,
                                   step=s))
        with tempfile.TemporaryDirectory() as tmp:
            spath = os.path.join(tmp, "server.json")
            p1 = os.path.join(tmp, "w0_run1.json")
            p2 = os.path.join(tmp, "w0_rejoin.json")
            mpath = os.path.join(tmp, "merged.json")
            for path, events in ((spath, server), (p1, first), (p2, second)):
                with open(path, "w") as f:
                    json.dump({"traceEvents": events}, f)
            r = run_tool("merge_traces.py",
                         [spath, f"0={p1}", f"0={p2}", "-o", mpath,
                          "--report"])
            self.assertEqual(r.returncode, 0, r.stderr)
            self.assertIn("worker-0 (", r.stdout)      # first incarnation
            self.assertIn("(rejoin 1)", r.stdout)      # second incarnation
            with open(mpath) as f:
                merged = json.load(f)
        events = merged["traceEvents"]
        roles = {e["args"]["name"]: e["pid"] for e in events
                 if e.get("name") == "process_name"}
        self.assertEqual(set(roles),
                         {"server", "worker-0", "worker-0 (rejoin 1)"})
        self.assertNotEqual(roles["worker-0"], roles["worker-0 (rejoin 1)"])
        # Both incarnations landed on the server clock: every push end
        # matches its barrier end despite the two unrelated skews.
        barriers = {e["args"]["step"]: e["ts"] + e["dur"] for e in events
                    if e.get("name") == "step_barrier"}
        pushes = {e["args"]["step"]: e["ts"] + e["dur"] for e in events
                  if e.get("name") == "push"}
        for s in (0, 1, 3, 4):
            self.assertAlmostEqual(barriers[s], pushes[s], delta=1.0,
                                   msg=f"step {s}")

    def test_no_common_steps_warns_but_merges(self):
        server, _ = self.make_traces()
        orphan = {"traceEvents": [span("forward_backward", 1, 0.0, 100.0)]}
        with tempfile.TemporaryDirectory() as tmp:
            spath = os.path.join(tmp, "server.json")
            wpath = os.path.join(tmp, "worker0.json")
            mpath = os.path.join(tmp, "merged.json")
            with open(spath, "w") as f:
                json.dump(server, f)
            with open(wpath, "w") as f:
                json.dump(orphan, f)
            r = run_tool("merge_traces.py", [spath, wpath, "-o", mpath])
            self.assertEqual(r.returncode, 0, r.stderr)
            self.assertIn("no step-stamped spans", r.stderr)


def bench_file(values):
    return {"schema": "threelc-bench-v1", "bench": "codec", "commit": "test",
            "metrics": {
                "encode_gbps/3lc": {"value": values[0], "unit": "GB/s",
                                    "higher_is_better": True},
                "step_latency_ms/p50": {"value": values[1], "unit": "ms",
                                        "higher_is_better": False},
            }}


class CheckPerfTest(unittest.TestCase):
    def run_pair(self, base_values, cur_values, extra=None):
        with tempfile.TemporaryDirectory() as tmp:
            bpath = os.path.join(tmp, "base.json")
            cpath = os.path.join(tmp, "cur.json")
            with open(bpath, "w") as f:
                json.dump(bench_file(base_values), f)
            with open(cpath, "w") as f:
                json.dump(bench_file(cur_values), f)
            return run_tool("check_perf.py",
                            ["--baseline", bpath, "--current", cpath]
                            + (extra or []))

    def test_identical_passes(self):
        r = self.run_pair([2.0, 5.0], [2.0, 5.0])
        self.assertEqual(r.returncode, 0, r.stderr)

    def test_small_regression_within_budget_passes(self):
        r = self.run_pair([2.0, 5.0], [1.9, 5.3])  # -5% / +6%
        self.assertEqual(r.returncode, 0, r.stderr)

    def test_throughput_drop_fails(self):
        r = self.run_pair([2.0, 5.0], [1.6, 5.0])  # -20% GB/s
        self.assertEqual(r.returncode, 1)
        self.assertIn("encode_gbps/3lc", r.stderr)

    def test_latency_rise_fails(self):
        r = self.run_pair([2.0, 5.0], [2.0, 6.0])  # +20% ms
        self.assertEqual(r.returncode, 1)
        self.assertIn("step_latency_ms/p50", r.stderr)

    def test_improvement_passes(self):
        r = self.run_pair([2.0, 5.0], [3.0, 2.0])
        self.assertEqual(r.returncode, 0, r.stderr)

    def test_missing_metric_fails(self):
        with tempfile.TemporaryDirectory() as tmp:
            bpath = os.path.join(tmp, "base.json")
            cpath = os.path.join(tmp, "cur.json")
            with open(bpath, "w") as f:
                json.dump(bench_file([2.0, 5.0]), f)
            cur = bench_file([2.0, 5.0])
            del cur["metrics"]["step_latency_ms/p50"]
            with open(cpath, "w") as f:
                json.dump(cur, f)
            r = run_tool("check_perf.py",
                         ["--baseline", bpath, "--current", cpath])
        self.assertEqual(r.returncode, 1)
        self.assertIn("missing", r.stderr)

    def test_custom_threshold(self):
        r = self.run_pair([2.0, 5.0], [1.6, 5.0], ["--threshold", "0.30"])
        self.assertEqual(r.returncode, 0, r.stderr)

    def test_update_baseline_copies(self):
        with tempfile.TemporaryDirectory() as tmp:
            bpath = os.path.join(tmp, "base.json")
            cpath = os.path.join(tmp, "cur.json")
            with open(bpath, "w") as f:
                json.dump(bench_file([2.0, 5.0]), f)
            with open(cpath, "w") as f:
                json.dump(bench_file([4.0, 3.0]), f)
            r = run_tool("check_perf.py",
                         ["--baseline", bpath, "--current", cpath,
                          "--update-baseline"])
            self.assertEqual(r.returncode, 0, r.stderr)
            with open(bpath) as f:
                self.assertEqual(
                    json.load(f)["metrics"]["encode_gbps/3lc"]["value"], 4.0)


GOOD_EXPOSITION = """\
# HELP threelc_rpc_wire_bytes_total total
# TYPE threelc_rpc_wire_bytes_total counter
threelc_rpc_wire_bytes_total 123
# HELP threelc_step_ms step
# TYPE threelc_step_ms summary
threelc_step_ms{quantile="0.5"} 2.5
threelc_step_ms{quantile="0.99"} 4.0
threelc_step_ms_sum 100
threelc_step_ms_count 40
"""


class CheckPrometheusTest(unittest.TestCase):
    def check(self, text):
        return run_tool("check_prometheus.py", [], stdin_text=text)

    def test_good_exposition_passes(self):
        r = self.check(GOOD_EXPOSITION)
        self.assertEqual(r.returncode, 0, r.stderr)

    def test_empty_exposition_fails(self):
        r = self.check("")
        self.assertEqual(r.returncode, 1)
        self.assertIn("no samples", r.stderr)

    def test_duplicate_family_fails(self):
        dup = GOOD_EXPOSITION + (
            "# HELP threelc_rpc_wire_bytes_total again\n"
            "# TYPE threelc_rpc_wire_bytes_total counter\n"
            "threelc_rpc_wire_bytes_total 456\n")
        r = self.check(dup)
        self.assertEqual(r.returncode, 1)
        self.assertIn("duplicate", r.stderr)

    def test_duplicate_series_fails(self):
        dup = GOOD_EXPOSITION + "threelc_rpc_wire_bytes_total 456\n"
        r = self.check(dup)
        self.assertEqual(r.returncode, 1)
        self.assertIn("duplicate series", r.stderr)

    def test_distinct_labels_are_not_duplicates(self):
        extra = GOOD_EXPOSITION + 'threelc_step_ms{quantile="0.9"} 3.0\n'
        r = self.check(extra)
        self.assertEqual(r.returncode, 0, r.stderr)

    CLUSTER = GOOD_EXPOSITION + (
        "# HELP threelc_cluster_worker_records_total records\n"
        "# TYPE threelc_cluster_worker_records_total counter\n"
        'threelc_cluster_worker_records_total{worker="0"} 10\n'
        'threelc_cluster_worker_records_total{worker="1"} 10\n'
        'threelc_cluster_worker_records_total{worker="2"} 10\n')

    def test_cluster_cardinality_within_bound_passes(self):
        r = run_tool("check_prometheus.py", ["--max-workers", "3"],
                     stdin_text=self.CLUSTER)
        self.assertEqual(r.returncode, 0, r.stderr)

    def test_cluster_cardinality_over_bound_fails(self):
        r = run_tool("check_prometheus.py", ["--max-workers", "2"],
                     stdin_text=self.CLUSTER)
        self.assertEqual(r.returncode, 1)
        self.assertIn("worker labels", r.stderr)
        self.assertIn("threelc_cluster_worker_records_total", r.stderr)

    def test_non_cluster_families_ignore_worker_bound(self):
        labeled = GOOD_EXPOSITION + (
            "# HELP threelc_other labeled\n"
            "# TYPE threelc_other gauge\n"
            'threelc_other{worker="0"} 1\n'
            'threelc_other{worker="1"} 1\n')
        r = run_tool("check_prometheus.py", ["--max-workers", "1"],
                     stdin_text=labeled)
        self.assertEqual(r.returncode, 0, r.stderr)


def clusterz_snapshot():
    def phases(scale):
        return {name: {"p50_ns": 1e6 * scale, "p95_ns": 2e6 * scale,
                       "p99_ns": 3e6 * scale, "mean_ns": 1e6 * scale,
                       "total_ns": 2e7 * scale}
                for name in ("forward_backward", "encode", "push",
                             "pull_wait", "decode")}

    def worker(slow, causes, scale=1.0):
        return {"last_step": 19, "records": 20, "bytes_out": 20000,
                "bytes_in": 18000, "ea_l2": 0.5, "rejoins": 0,
                "phases": phases(scale), "straggler_steps": slow,
                "straggler_causes": causes,
                "barrier_wait_ms_sum": 40.0 * slow}

    return {
        "workers": {
            "0": worker(0, {"compute": 0, "encode": 0, "network": 0}),
            "1": worker(18, {"compute": 1, "encode": 0, "network": 17},
                        scale=4.0),
            "2": worker(1, {"compute": 1, "encode": 0, "network": 0}),
        },
        "fleet": {"workers": 3, "records": 60, "bytes_out": 60000,
                  "bytes_in": 54000, "raw_push_bytes_per_step": 4000,
                  "raw_pull_bytes_per_step": 4000,
                  "compression_ratio_push": 4.0,
                  "compression_ratio_pull": 4.4, "phases": phases(1.0)},
        "straggler": {"current": 1, "flips": 3, "barriers_observed": 20},
    }


class RunReportTest(unittest.TestCase):
    def test_report_names_straggler_and_cause(self):
        steps = [{"type": "step", "step": s, "loss": 1.0 / (s + 1),
                  "step_wall_ms": 5.0 + s, "contributors": 3}
                 for s in range(20)]
        with tempfile.TemporaryDirectory() as tmp:
            cpath = os.path.join(tmp, "clusterz.json")
            lpath = os.path.join(tmp, "metrics.jsonl")
            with open(cpath, "w") as f:
                json.dump(clusterz_snapshot(), f)
            with open(lpath, "w") as f:
                for s in steps:
                    f.write(json.dumps(s) + "\n")
                f.write('{"type":"summary","metrics":{}}\n')
            r = run_tool("run_report.py",
                         ["--clusterz", cpath, "--server-log", lpath])
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("steps logged: 20", r.stdout)
        self.assertIn("straggler: worker 1", r.stdout)
        self.assertIn("dominant cause: network", r.stdout)
        self.assertIn("compression ratio: push 4.00x", r.stdout)
        # Every worker appears in the phase table.
        for wid in ("0", "1", "2"):
            self.assertIn(f"\n{wid:>6}  forward_backward", r.stdout)

    def test_report_without_server_log(self):
        with tempfile.TemporaryDirectory() as tmp:
            cpath = os.path.join(tmp, "clusterz.json")
            opath = os.path.join(tmp, "report.txt")
            with open(cpath, "w") as f:
                json.dump(clusterz_snapshot(), f)
            r = run_tool("run_report.py",
                         ["--clusterz", cpath, "-o", opath])
            self.assertEqual(r.returncode, 0, r.stderr)
            with open(opath) as f:
                report = f.read()
        self.assertIn("straggler: worker 1", report)
        self.assertNotIn("steps logged", report)

    def test_hung_straggler_is_tagged(self):
        # The named straggler's lease expired mid-run: the straggler line
        # must carry the "hung" tag and the liveness table must show the
        # per-worker heartbeat age and expiry counts.
        snap = clusterz_snapshot()
        for wid, w in snap["workers"].items():
            w["last_heartbeat_age_ms"] = 40 if wid != "1" else 900
        snap["liveness"] = {"lease_expiries": {"1": 2}}
        with tempfile.TemporaryDirectory() as tmp:
            cpath = os.path.join(tmp, "clusterz.json")
            with open(cpath, "w") as f:
                json.dump(snap, f)
            r = run_tool("run_report.py", ["--clusterz", cpath])
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("straggler: worker 1 (hung; ", r.stdout)
        self.assertIn("-- liveness --", r.stdout)
        self.assertIn("900", r.stdout)

    def test_lease_evicted_worker_is_named_after_removal(self):
        # Worker 1 was lease-evicted: gone from the workers map, but its
        # expiry count survives in the liveness section — the report must
        # still name it and mark it evicted.
        snap = clusterz_snapshot()
        del snap["workers"]["1"]
        for w in snap["workers"].values():
            w["straggler_steps"] = 0
            w["straggler_causes"] = {"compute": 0, "encode": 0,
                                     "network": 0}
            w["last_heartbeat_age_ms"] = 40
        snap["straggler"] = {"current": -1, "flips": 0,
                             "barriers_observed": 20}
        snap["liveness"] = {"lease_expiries": {"1": 1}}
        with tempfile.TemporaryDirectory() as tmp:
            cpath = os.path.join(tmp, "clusterz.json")
            with open(cpath, "w") as f:
                json.dump(snap, f)
            r = run_tool("run_report.py", ["--clusterz", cpath])
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("straggler: worker 1 (hung; 1 lease expiries, "
                      "evicted)", r.stdout)
        self.assertIn("(hung; evicted)", r.stdout)

    def test_rejects_non_clusterz_json(self):
        with tempfile.TemporaryDirectory() as tmp:
            cpath = os.path.join(tmp, "bogus.json")
            with open(cpath, "w") as f:
                json.dump({"hello": 1}, f)
            r = run_tool("run_report.py", ["--clusterz", cpath])
        self.assertEqual(r.returncode, 1)
        self.assertIn("not a /clusterz snapshot", r.stderr)

    def test_storage_section_joins_health_and_stage_latency(self):
        # A snapshot with a "storage" section plus a step log whose
        # phases_ms carries the checkpoint stage: the report must join
        # both into one storage section (counters from /clusterz, p50/p95
        # from the log).
        snap = clusterz_snapshot()
        snap["storage"] = {"checkpoints": 9, "write_failures": 2,
                           "fallbacks": 1, "generations": 2,
                           "last_write_ms": 3.25, "degraded": False}
        steps = [{"type": "step", "step": s, "loss": 1.0, "contributors": 3,
                  "step_wall_ms": 5.0,
                  "phases_ms": {"step_barrier": 1.0,
                                "checkpoint": 4.0 if s % 2 == 0 else 0.0}}
                 for s in range(10)]
        with tempfile.TemporaryDirectory() as tmp:
            cpath = os.path.join(tmp, "clusterz.json")
            lpath = os.path.join(tmp, "metrics.jsonl")
            with open(cpath, "w") as f:
                json.dump(snap, f)
            with open(lpath, "w") as f:
                for s in steps:
                    f.write(json.dumps(s) + "\n")
            r = run_tool("run_report.py",
                         ["--clusterz", cpath, "--server-log", lpath])
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("-- storage (server checkpoints) --", r.stdout)
        self.assertIn("state: healthy", r.stdout)
        self.assertIn("checkpoints written: 9  write failures: 2  "
                      "fallbacks: 1", r.stdout)
        self.assertIn("generations on disk: 2", r.stdout)
        self.assertIn("last write: 3.25 ms", r.stdout)
        self.assertIn("checkpoint stage ms over 10 steps (5 with a write)",
                      r.stdout)
        self.assertIn("p95 4.00", r.stdout)

    def test_degraded_storage_is_flagged(self):
        # degraded=true (writes currently failing) must be unmissable in
        # the report, even without a step log.
        snap = clusterz_snapshot()
        snap["storage"] = {"checkpoints": 3, "write_failures": 12,
                           "fallbacks": 0, "generations": 1,
                           "last_write_ms": 2.0, "degraded": True}
        with tempfile.TemporaryDirectory() as tmp:
            cpath = os.path.join(tmp, "clusterz.json")
            with open(cpath, "w") as f:
                json.dump(snap, f)
            r = run_tool("run_report.py", ["--clusterz", cpath])
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("state: DEGRADED (writes failing; recovery at risk)",
                      r.stdout)
        self.assertIn("write failures: 12", r.stdout)

    def test_no_storage_section_without_storage_data(self):
        # Old snapshots (no "storage") and logs without a checkpoint phase
        # must not grow an empty storage section.
        steps = [{"type": "step", "step": s, "loss": 1.0, "contributors": 3,
                  "step_wall_ms": 5.0, "phases_ms": {"step_barrier": 1.0}}
                 for s in range(5)]
        with tempfile.TemporaryDirectory() as tmp:
            cpath = os.path.join(tmp, "clusterz.json")
            lpath = os.path.join(tmp, "metrics.jsonl")
            with open(cpath, "w") as f:
                json.dump(clusterz_snapshot(), f)
            with open(lpath, "w") as f:
                for s in steps:
                    f.write(json.dumps(s) + "\n")
            r = run_tool("run_report.py",
                         ["--clusterz", cpath, "--server-log", lpath])
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertNotIn("-- storage", r.stdout)


if __name__ == "__main__":
    unittest.main()
