#!/usr/bin/env python3
"""Fleet benchmark runner: builds the Release harness, runs one workload, and
prints the result as one JSON object on the last stdout line.

    python3 fleetbench/run.py --workload compute_fleet --seed 7 --seconds 30 --trace 0

--trace 0 reports the end-to-end metrics (setup_s, run_s, sim_minsn_per_s,
board_mcycles_per_s, peak_rss_mib); --trace 1 makes the traced run and reports
the per-layer metrics, writing its spans as a Chrome trace-event file under
.bench_build/fleetbench-out/. Every run checks the simulated results; see
fleetbench/README.md.
"""
import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "fleetbench"
OUT_DIR = ROOT / ".bench_build" / "fleetbench-out"
BINARY = BUILD_DIR / "fleet_bench"
FINGERPRINTS = HERE / "fingerprints.json"
WORKLOADS = ("compute_fleet", "beacon_mesh", "ota_campaign")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the Release harness; returns False on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"fleetbench: no repository sources under {ROOT / 'src'}; nothing to build")
        return False
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "fleet_bench", "-j", jobs])
    # One build at a time per checkout.
    with open(BUILD_DIR.parent / "fleetbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
            if done.returncode != 0:
                log(f"fleetbench: build step failed: {' '.join(cmd)}")
                return False
    return BINARY.is_file()


def load_fingerprints():
    with open(FINGERPRINTS) as f:
        return json.load(f)


def run_harness(args, timeout=RUN_TIMEOUT_S):
    """Runs the harness; returns (stdout lines, parsed last-line JSON) or raises."""
    done = subprocess.run([str(BINARY)] + [str(a) for a in args], stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True, timeout=timeout)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"harness exited {done.returncode}")
    return lines[:-1], json.loads(lines[-1])


def source_digest():
    """sha256 over the library and benchmark sources: a revision stamp that
    also works in checkouts that are not git repositories."""
    h = hashlib.sha256()
    for top in ("src", "fleetbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def git_revision():
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def harness_args(workload, seed, seconds, trace, prints, trace_out=None):
    """The harness checks --expect only at the seed the fingerprints were
    recorded at, and replays that seed's tiny configuration against --canary."""
    recorded = prints[workload]
    args = ["--workload", workload, "--seed", seed, "--seconds", seconds, "--trace", trace,
            "--canary", recorded["tiny"], "--expect", recorded["full"]]
    if trace_out is not None:
        args += ["--trace-out", trace_out]
    return args


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    opts = parser.parse_args()

    if not build():
        return 2
    prints = load_fingerprints()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{opts.workload}-seed{opts.seed}-trace{opts.trace}"
    trace_out = str(OUT_DIR / f"{stem}.trace.json") if opts.trace else None
    try:
        lines, result = run_harness(harness_args(opts.workload, opts.seed, opts.seconds,
                                                 opts.trace, prints, trace_out))
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as err:
        log(f"fleetbench: {err}")
        return 1
    for line in lines:
        print(line)

    provenance = {
        "build_type": result["build"]["type"],
        "build_flags": result["build"]["flags"].strip(),
        "compiler": result["build"]["compiler"],
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "fleet_threads": result["threads"],
        "seed": opts.seed,
        "workload": opts.workload,
        "params": result["params"],
        "reps": result["reps"],
        "traced_reps": result["traced_reps"],
        "setups": result["setups"],
        "host_loop_ms": result["host_loop_ms"],
        "fingerprint": result["fingerprint"],
        "errors": result["errors"],
    }
    record = dict(provenance, correct=result["correct"], attempted=result["attempted"],
                  failed=result["failed"], metrics=result["metrics"],
                  trace_file=trace_out, time=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()))
    with open(OUT_DIR / f"{stem}.json", "w") as f:
        json.dump(record, f, indent=1)
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
