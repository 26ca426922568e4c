#!/usr/bin/env python3
"""Seeded chaos sweep over the multi-process training example.

Each seed deterministically derives one fault scenario — a transport-level
injection schedule (corrupt / close / delay / stall / one-way partition),
a worker kill + restart, or a SIGSTOP drill (the spawn harness freezes a
worker mid-run and SIGCONTs it later) — and runs
examples/distributed_training in --spawn mode against it with heartbeats
and leases on. A seed is green only if the run:

  - terminates within --deadline-s (a hang is the one unforgivable
    outcome this sweep exists to catch),
  - exits 0 with "clean shutdown" in the log,
  - ends bitwise identical to the fault-free run ("BITWISE IDENTICAL",
    asserted whenever the scenario keeps all workers alive to the end),
  - shows no sanitizer report.

Same seed, same schedule, same verdict — a red seed is a repro command,
not a flake. Run the in-process edition first (fault_tolerance_test's
ChaosSweepSeededSchedulesTerminateCleanly); this sweep adds real
processes, real sockets, and real signals on top.

With --disk the sweep targets the storage stack instead of the wire:
each seed derives one disk-fault drill (full disk, media-error write,
failing fsync, torn rename at the power-loss point, or a corrupt-newest
generation forcing a fallback resume) against the server's checkpoint
path in a per-seed temp directory. Green additionally requires the
mode's own evidence in the log (a surviving degraded write, a fallback,
a resume) — a drill that silently never fired is red, not lucky.

Usage:
  chaos_sweep.py --binary build/examples/distributed_training \
      [--seeds 25] [--start-seed 1] [--workers 3] [--steps 20]
      [--deadline-s 120] [--base-port 15400] [--disk] [-v]

Exit codes: 0 when every seed is green, 1 otherwise. stdlib only.
"""

import argparse
import random
import subprocess
import sys
import tempfile

# Transport-level faults a worker can take mid-run and still finish with
# bitwise parity: corruption is retried, close reconnects, delay is just
# late, stall and partition are lease-detected and rejoined.
FAULT_MENU = [
    "corrupt:push@{step}",
    "close:push@{step}",
    "delay50:pull@{step}",
    "stall:push@{step}",
    "partition:tx@{step}",
    "partition:rx@{step}",
    "partition:both@{step}",
]


def derive_scenario(seed, workers, steps):
    """Map a seed to one scenario: (mode, extra_argv, description).

    Modes: "inject" (transport fault schedule on one worker), "kill"
    (simulated crash + restart), "sigstop" (spawn-harness freeze drill).
    """
    rng = random.Random(seed)
    victim = rng.randrange(1, workers)  # worker 0 carries the slowdown
    step = rng.randrange(1, max(2, steps // 2))
    mode = rng.choice(["inject", "inject", "inject", "kill", "sigstop"])
    if mode == "inject":
        n_faults = rng.choice([1, 1, 2])
        specs = []
        for _ in range(n_faults):
            at = rng.randrange(1, max(2, steps // 2))
            specs.append(rng.choice(FAULT_MENU).format(step=at))
        spec = ";".join(specs)
        return mode, ["--inject", spec, "--inject-worker", str(victim),
                      "--inject-seed", str(seed)], f"{spec} on w{victim}"
    if mode == "kill":
        return mode, ["--kill-worker", str(victim), "--kill-step",
                      str(step), "--restart-killed"], \
            f"kill w{victim}@{step} + restart"
    # sigstop: freeze the victim mid-run; a delay injection on worker 0
    # slows the step loop so the drill lands before the run finishes.
    return mode, ["--sigstop-worker", f"{victim}@{step}",
                  "--sigcont-after-ms", "3000",
                  "--inject", "delay100:push@any#*", "--inject-worker",
                  "0"], f"SIGSTOP w{victim}@{step}, SIGCONT after 3 s"


def derive_disk_scenario(seed, steps, ckpt_dir):
    """Map a seed to one storage-fault drill.

    Returns (mode, extra_argv, expected_log_substrings, description).
    The fault specs use the util::FaultFs grammar (ACTION:OP@CALL[#OCC]);
    occurrence indices are kept small so the fault always lands within
    the run's checkpoint traffic regardless of --steps.
    """
    rng = random.Random(seed)
    mode = ["enospc", "eio", "fsyncfail", "torn",
            "fallback"][seed % 5]
    ckpt = f"{ckpt_dir}/dt_server.sckpt"
    if mode == "fallback":
        # Die at step `at`'s first PULL send (after its checkpoint, before
        # the fan-out), corrupt the newest generation while the server is
        # down, and require the resume to fall back past it.
        at = rng.randrange(2, max(3, steps // 2))
        return mode, ["--inject-server", f"killserver:pull@{at}",
                      "--server-checkpoint", ckpt,
                      "--corrupt-newest-on-resume", "--state-dir",
                      ckpt_dir], ["fell back", "resumed from checkpoint"], \
            f"corrupt newest generation on resume after killserver:pull@{at}"
    if mode == "torn":
        # Swallow one rename: the server dies at the power-loss point and
        # must resume from the previous intact generation.
        occ = rng.randrange(1, max(2, steps // 4))
        spec = f"torn:rename@any#{occ}"
        expect = ["injected torn checkpoint write", "resumed from checkpoint"]
    elif mode == "enospc":
        # The disk stays full: every checkpoint write fails, training
        # must keep going degraded and still finish bitwise identical.
        spec = "enospc:write@any#*"
        expect = ["checkpoint write failed"]
    elif mode == "eio":
        occ = rng.randrange(0, 8)
        spec = f"eio:write@any#{occ}"
        expect = ["checkpoint write failed"]
    else:  # fsyncfail
        occ = rng.randrange(0, 8)
        spec = f"fsyncfail:fsync@any#{occ}"
        expect = ["checkpoint write failed"]
    return mode, ["--server-checkpoint", ckpt, "--fs-fault", spec,
                  "--inject-seed", str(seed)], expect, spec


def run_seed(args, seed, ckpt_dir=None):
    if args.disk:
        mode, extra, expect, desc = derive_disk_scenario(
            seed, args.steps, ckpt_dir)
    else:
        mode, extra, desc = derive_scenario(seed, args.workers, args.steps)
        expect = []
    port = args.base_port + (seed % 1000)
    cmd = [args.binary, "--spawn", str(args.workers), "--steps",
           str(args.steps), "--codec", "3lc", "--port", str(port),
           "--seed", str(seed), "--compare", "--grace-ms", "30000",
           "--lease-ms", "800", "--heartbeat-ms", "200",
           "--max-reconnects", "5"] + extra
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=args.deadline_s)
    except subprocess.TimeoutExpired:
        return False, f"HUNG after {args.deadline_s}s [{mode}: {desc}]", cmd
    log = proc.stdout + proc.stderr
    problems = []
    if proc.returncode != 0:
        problems.append(f"exit {proc.returncode}")
    if "clean shutdown" not in log:
        problems.append("no clean shutdown")
    if "BITWISE IDENTICAL" not in log:
        problems.append("no bitwise parity")
    for marker in ("AddressSanitizer", "LeakSanitizer", "runtime error:"):
        if marker in log:
            problems.append(f"sanitizer: {marker}")
    if mode == "sigstop" and "drill: SIGSTOP" not in log:
        problems.append("drill never fired")
    for needle in expect:
        if needle not in log:
            problems.append(f"missing '{needle}'")
    if problems:
        return False, f"{', '.join(problems)} [{mode}: {desc}]", cmd
    return True, f"ok [{mode}: {desc}]", cmd


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--binary", required=True,
                    help="path to the distributed_training example")
    ap.add_argument("--seeds", type=int, default=25,
                    help="number of seeds to sweep (default 25)")
    ap.add_argument("--start-seed", type=int, default=1)
    ap.add_argument("--workers", type=int, default=3)
    ap.add_argument("--steps", type=int, default=20)
    ap.add_argument("--deadline-s", type=int, default=120,
                    help="per-seed wall deadline; overrun == hang == red")
    ap.add_argument("--base-port", type=int, default=15400,
                    help="each seed listens on base-port + seed %% 1000")
    ap.add_argument("--disk", action="store_true",
                    help="sweep storage-fault drills (checkpoint path) "
                         "instead of wire faults")
    ap.add_argument("-v", "--verbose", action="store_true",
                    help="print the repro command for every seed")
    args = ap.parse_args()

    green = 0
    failures = []
    for seed in range(args.start_seed, args.start_seed + args.seeds):
        if args.disk:
            with tempfile.TemporaryDirectory(prefix="chaos_disk_") as d:
                ok, verdict, cmd = run_seed(args, seed, ckpt_dir=d)
        else:
            ok, verdict, cmd = run_seed(args, seed)
        line = f"seed {seed:>4}: {'GREEN' if ok else 'RED'}  {verdict}"
        print(line, flush=True)
        if args.verbose or not ok:
            print(f"  repro: {' '.join(cmd)}", flush=True)
        if ok:
            green += 1
        else:
            failures.append(seed)

    total = args.seeds
    print(f"{green}/{total} seeds green")
    if failures:
        print(f"chaos_sweep: red seeds: "
              f"{', '.join(str(s) for s in failures)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
