#!/usr/bin/env python3
"""The repository benchmark: end-to-end 3LC training on four workloads.

Builds bench_e2e from source, runs its sessions, checks their outputs and
prints every metric with its unit. See README.md for the workloads, the
metrics and what each layer metric should move.

  python3 bench/e2e/run.py --workload lan-3lc --seed 1 --seconds 20 --trace 0
  python3 bench/e2e/run.py                        # every workload, both modes
  python3 bench/e2e/run.py --runs 10 --out A.json # seeds 1..10, for compare.py
  python3 bench/e2e/run.py --smoke                # 30 steps each, checks only

The last line of stdout is one JSON object: correct, attempted, failed
(steps) and metrics ({name: {value, unit}}); end-to-end metrics with
--trace 0, per-layer metrics with --trace 1. Exits 1 when a check fails.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
HERE = Path(__file__).resolve().parent

# Steps per session and the nominal seconds one session takes on a 4-core
# x86 host (set-up included), from which the number of sessions in a run
# follows. The count depends only on --seconds, never on a measurement, so
# the same seed always trains the same sessions and the quality metrics
# repeat bit for bit.
# "relayed": every session crosses the relay, which counts socket bytes.
WORKLOADS = {
    "lan-3lc": {"steps": 150, "session_s": 3.9, "relayed": False},
    "lan-f32": {"steps": 150, "session_s": 4.1, "relayed": False},
    "wan-3lc": {"steps": 70, "session_s": 6.0, "relayed": True},
    "durable-3lc": {"steps": 70, "session_s": 4.6, "relayed": False},
}
SMOKE_STEPS = 30
RATE_TOLERANCE = 0.05
DEADLINE_S = 170.0  # the whole run, build excluded

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def units(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "e2e"


def build():
    """Configure (once) and build bench_e2e; returns its path or None."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    steps = []
    if not any((out / f).exists() for f in ("build.ninja", "Makefile")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(out), *gen,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(out), "--target", "bench_e2e",
                  "-j", jobs])
    with open(log, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                              timeout=840).returncode != 0:
                f.flush()
                tail = log.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                print(f"run.py: build failed (log: {log})", file=sys.stderr)
                return None
    return out / "bench_e2e"


class Runner:
    def __init__(self, binary, deadline):
        self.binary = binary
        self.deadline = deadline
        self.state_dir = build_dir() / "state"
        self.trace_dir = build_dir() / "traces"

    def session(self, workload, seed, steps, traced=False, relay=False,
                trace_out=None):
        """Runs one bench_e2e process; returns its JSON result or None."""
        cmd = [str(self.binary), "--workload", workload, "--seed", str(seed),
               "--steps", str(steps), "--state-dir", str(self.state_dir)]
        if traced:
            cmd.append("--traced")
        if relay:
            cmd.append("--relay")
        if trace_out:
            self.trace_dir.mkdir(parents=True, exist_ok=True)
            cmd += ["--trace-out", str(trace_out)]
        self.state_dir.mkdir(parents=True, exist_ok=True)
        left = self.deadline - time.monotonic() if self.deadline else None
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=None if left is None else max(left, 1))
        except subprocess.TimeoutExpired:
            print(f"run.py: {workload} seed {seed} timed out", file=sys.stderr)
            return None
        lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
        if not lines:
            print(proc.stderr[-2000:], file=sys.stderr)
            print(f"run.py: {workload} seed {seed} exited "
                  f"{proc.returncode} without a result", file=sys.stderr)
            return None
        result = json.loads(lines[-1])
        for error in result["errors"]:
            print(f"run.py: {workload} seed {seed}: {error}", file=sys.stderr)
        return result


def session_count(workload, seconds):
    """Sessions that fit in `seconds`, the relay-count session included."""
    return max(2, int(seconds / WORKLOADS[workload]["session_s"]))


class Tally:
    """Steps attempted and failed, plus the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, result, steps, label):
        self.attempted += steps
        if result is None:
            self.failed += steps
            self.problems.append(f"{label}: no result")
            return False
        bad = list(result["errors"])
        if result["steps_completed"] != steps:
            bad.append(f"{result['steps_completed']} of {steps} steps done")
        target = result["link_mbps"]
        if target and not bad:
            # The emulated link must run at its configured rate while busy.
            rate = result["layers"]["link.achieved_mbps"]
            if abs(rate - target) > RATE_TOLERANCE * target:
                bad.append(f"link ran at {rate:.2f} Mbps, not "
                           f"{target:g} +-{RATE_TOLERANCE:.0%}")
        if bad:
            self.failed += steps
            self.problems += [f"{label}: {b}" for b in bad]
            return False
        self.failed += steps - result["steps_completed"]
        return True

    def same_model(self, a, b, steps, label):
        """b must have trained bit-for-bit the model a trained."""
        if a is None or b is None:
            return
        if a["server_params_fnv"] != b["server_params_fnv"]:
            self.failed += steps
            self.problems.append(f"{label}: final server parameters differ")


def run_untraced(runner, workload, seed, seconds, smoke=False):
    """--trace 0: the end-to-end metrics."""
    steps = SMOKE_STEPS if smoke else WORKLOADS[workload]["steps"]
    # A direct workload spends one session counting socket bytes (below).
    direct = not WORKLOADS[workload]["relayed"]
    sessions = 1 if smoke else session_count(workload, seconds) - direct
    tally = Tally()
    timed = []
    for i in range(sessions):
        r = runner.session(workload, seed * 100 + i, steps)
        if tally.add(r, steps, f"{workload} session {i}"):
            timed.append(r)
    if not timed:
        return tally, {}
    relayed = [r for r in timed if r["relay"]]
    if direct:
        # Count the socket bytes in one more session through the unshaped
        # relay, which must train the same model bit for bit.
        counted = runner.session(workload, timed[0]["seed"], steps, relay=True)
        if tally.add(counted, steps, f"{workload} relay session"):
            tally.same_model(timed[0], counted, steps,
                             f"{workload} relay session")
            relayed.append(counted)
    periods = [p for r in timed for p in r["periods_ms"]]
    metrics = {
        "samples_per_s": sum(r["timed_samples"] for r in timed)
        / sum(r["timed_wall_s"] for r in timed),
        "step_ms_p50": statistics.median(periods),
        "step_ms_p95": statistics.quantiles(periods, n=20,
                                            method="inclusive")[18],
        "setup_s": statistics.median(r["setup_s"] for r in timed),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
        "test_accuracy": statistics.fmean(r["test_accuracy"] for r in timed),
        "test_loss": statistics.fmean(r["test_loss"] for r in timed),
        "step_ok_frac": 1.0 - tally.failed / tally.attempted,
    }
    if relayed:
        metrics["wire_bytes_per_step"] = statistics.fmean(
            r["wire_bytes_per_step"] for r in relayed)
    return tally, metrics


def run_traced(runner, workload, seed, seconds, smoke=False):
    """--trace 1: per-layer metrics from traced sessions, each paired with
    an untraced session of the same inputs."""
    steps = SMOKE_STEPS if smoke else WORKLOADS[workload]["steps"]
    pairs = 1 if smoke else max(1, session_count(workload, seconds) // 2)
    tally = Tally()
    plain_sps, traced_sps, layers = [], [], []
    for i in range(pairs):
        sub = seed * 100 + i
        trace_out = runner.trace_dir / f"{workload}-seed{seed}.json" \
            if i == 0 else None
        plain = runner.session(workload, sub, steps)
        traced = runner.session(workload, sub, steps, traced=True,
                                trace_out=trace_out)
        ok = tally.add(plain, steps, f"{workload} untraced {i}")
        ok = tally.add(traced, steps, f"{workload} traced {i}") and ok
        if not ok:
            continue
        tally.same_model(plain, traced, steps, f"{workload} traced {i}")
        plain_sps.append(plain["timed_samples"] / plain["timed_wall_s"])
        traced_sps.append(traced["timed_samples"] / traced["timed_wall_s"])
        layers.append(traced["layers"])
    if not layers:
        return tally, {}
    metrics = {k: statistics.fmean(l[k] for l in layers) for k in layers[0]}
    untraced = statistics.fmean(plain_sps)
    metrics["trace.overhead_frac"] = \
        (untraced - statistics.fmean(traced_sps)) / untraced
    return tally, metrics


def report(tally, metrics, unit_of):
    for name in sorted(metrics):
        print(f"  {name:32s} {metrics[name]:>16.6g} {unit_of.get(name, '')}")
    for problem in tally.problems:
        print(f"  CHECK FAILED {problem}")
    correct = not tally.problems and bool(metrics) and \
        all(name in metrics for name in unit_of)
    return correct, {name: {"value": metrics[name],
                            "unit": unit_of.get(name, "")}
                     for name in sorted(metrics)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--runs", type=int, default=0,
                    help="untraced runs with seeds seed..seed+runs-1")
    ap.add_argument("--out", help="with --runs: write every value here")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--binary", help="use this bench_e2e; skip the build")
    args = ap.parse_args()

    binary = Path(args.binary) if args.binary else build()
    if binary is None:
        return 1
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    if args.trace is not None:
        modes = [args.trace]
    else:
        modes = [1] if args.smoke else [0, 1]
    e2e_units, layer_units = units("end_to_end"), units("per_layer")

    if args.runs:
        values = {}
        runner = Runner(binary, None)
        ok = True
        for w in workloads:
            for seed in range(args.seed, args.seed + args.runs):
                tally, metrics = run_untraced(runner, w, seed, args.seconds)
                ok = ok and not tally.problems
                for problem in tally.problems:
                    print(f"  CHECK FAILED {problem}")
                print(f"{w} seed {seed}: " + ", ".join(
                    f"{k}={v:.6g}" for k, v in sorted(metrics.items())))
                for k, v in metrics.items():
                    values.setdefault(w, {}).setdefault(k, []).append(v)
        if args.out:
            Path(args.out).write_text(json.dumps(
                {"seeds": [args.seed, args.seed + args.runs - 1],
                 "seconds": args.seconds, "workloads": values}, indent=1))
        return 0 if ok else 1

    runner = Runner(binary, time.monotonic() + DEADLINE_S
                    if args.workload else None)
    attempted = failed = 0
    all_correct = True
    result_metrics = {}
    for w in workloads:
        for mode in modes:
            print(f"{w} --trace {mode}:")
            run = run_traced if mode else run_untraced
            tally, metrics = run(runner, w, args.seed, args.seconds,
                                 smoke=args.smoke)
            correct, named = report(tally, metrics,
                                    layer_units if mode else e2e_units)
            all_correct = all_correct and correct
            attempted += tally.attempted
            failed += tally.failed
            prefix = "" if len(workloads) * len(modes) == 1 else f"{w}/"
            result_metrics.update({prefix + k: v for k, v in named.items()})
    print(json.dumps({"correct": all_correct, "attempted": attempted,
                      "failed": failed, "metrics": result_metrics}))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
