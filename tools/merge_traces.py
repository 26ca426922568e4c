#!/usr/bin/env python3
"""Merge per-process chrome traces from a distributed run onto one timeline.

Each process in the TCP runtime (one server, N workers) writes its own
chrome trace with timestamps relative to its own start, so loading them
individually shows unrelated clocks. This tool merges them into a single
chrome://tracing / Perfetto file with one pid per process and worker
timelines shifted onto the server's clock.

Alignment uses the step ids stamped into the spans (the "args":{"step":N}
field every step-phase obs::ScopedStage writes; a span is named after its
stage, the same name the step JSONL phases_ms and /clusterz use): for
every step both sides see, the server's step_barrier span ends when the
last push of that step arrived, and a worker's push span ends when its
push was flushed. The per-trace offset is the median over common steps of
(server_barrier_end - worker_push_end), which is robust to stragglers and
needs no synchronized clocks.

A worker that crashes and rejoins mid-run restarts with a fresh process
and a fresh clock, so it leaves TWO trace files for the same rank. Each
file is an incarnation with its own independent offset — aligning the
rejoined trace must never reuse (or overwrite) the first connection's
offset, since the two processes' clocks are unrelated. Pass multiple
traces for one rank with the RANK=PATH form; incarnations are numbered in
argument order and each gets its own pid and a "worker-R (rejoin K)"
track name.

Usage:
  merge_traces.py server_trace.json worker0.json [worker1.json ...] \
      -o merged.json [--report]
  merge_traces.py server.json 0=w0_run1.json 1=w1.json 0=w0_rejoin.json \
      -o merged.json
"""

import argparse
import json
import statistics
import sys


def load_events(path):
    with open(path) as f:
        data = json.load(f)
    events = data["traceEvents"] if isinstance(data, dict) else data
    if not isinstance(events, list):
        raise ValueError(f"{path}: no traceEvents array")
    return events


def span_ends_by_step(events, name):
    """step id -> end timestamp (ts + dur) for complete spans named `name`."""
    ends = {}
    for e in events:
        if e.get("ph") != "X" or e.get("name") != name:
            continue
        step = e.get("args", {}).get("step")
        if step is None:
            continue
        ends[step] = e["ts"] + e.get("dur", 0)
    return ends


def worker_offset_us(server_events, worker_events):
    """Shift to add to worker timestamps; None when no common steps."""
    server_ends = span_ends_by_step(server_events, "step_barrier")
    worker_ends = span_ends_by_step(worker_events, "push")
    common = sorted(set(server_ends) & set(worker_ends))
    if not common:
        return None, 0
    deltas = [server_ends[s] - worker_ends[s] for s in common]
    return statistics.median(deltas), len(common)


def parse_worker_arg(arg, position):
    """`RANK=PATH` -> (rank, path); bare PATH -> (position, path)."""
    rank_part, sep, path_part = arg.partition("=")
    if sep and rank_part.isdigit():
        return int(rank_part), path_part
    return position, arg


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("traces", nargs="+",
                    help="server trace first, then one trace per worker "
                         "incarnation (PATH, or RANK=PATH when a rank "
                         "rejoined and left several traces)")
    ap.add_argument("-o", "--out", required=True)
    ap.add_argument("--report", action="store_true",
                    help="print per-incarnation offsets and common-step "
                         "counts")
    args = ap.parse_args()

    try:
        server_events = load_events(args.traces[0])
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as e:
        print(f"merge_traces: {e}", file=sys.stderr)
        return 1

    merged = []

    def add_process(pid, role, events, shift_us):
        merged.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 0, "args": {"name": role}})
        for e in events:
            e = dict(e)
            e["pid"] = pid
            if "ts" in e:
                e["ts"] = e["ts"] + shift_us
            merged.append(e)

    add_process(0, "server", server_events, 0.0)

    # (rank, incarnation) -> offset. A rank appears once per process that
    # ever held it; each incarnation's clock is aligned independently, so
    # a rejoin can never clobber the first connection's offset.
    incarnations = {}
    for position, arg in enumerate(args.traces[1:]):
        rank, path = parse_worker_arg(arg, position)
        incarnation = incarnations.setdefault(rank, 0)
        incarnations[rank] = incarnation + 1
        try:
            worker_events = load_events(path)
        except (OSError, ValueError, KeyError, json.JSONDecodeError) as e:
            print(f"merge_traces: {e}", file=sys.stderr)
            return 1
        offset, common = worker_offset_us(server_events, worker_events)
        if offset is None:
            print(f"merge_traces: warning: {path} shares no step-stamped "
                  f"spans with the server trace; leaving its clock unshifted",
                  file=sys.stderr)
            offset = 0.0
        role = f"worker-{rank}"
        if incarnation > 0:
            role += f" (rejoin {incarnation})"
        if args.report:
            print(f"merge_traces: {role} ({path}): offset "
                  f"{offset:+.1f} us from {common} common steps")
        add_process(1 + position, role, worker_events, offset)

    with open(args.out, "w") as f:
        json.dump({"displayTimeUnit": "ms", "traceEvents": merged}, f)
    print(f"merge_traces: wrote {args.out} ({len(merged)} events, "
          f"{len(args.traces)} processes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
