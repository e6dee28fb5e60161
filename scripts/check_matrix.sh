#!/usr/bin/env sh
# Builds and tests the supported configuration matrix, all four CMake presets:
#   default   — TOCK_TRACE=ON
#   trace-off — TOCK_TRACE=OFF (observability compiled out; must impose zero
#               cost and zero behavior change when absent)
#   sanitize  — the full tier-1 suite (fault soak included) under ASan+UBSan
#   tsan      — the concurrent fleet, radio, OTA and telemetry tests under TSan
# plus the CLI smokes and the fleet benchmark's fingerprint self-test.
# For default and trace-off it sweeps the scheduler dimension: the full suite under the
# default round-robin policy, then again under the cooperative policy via the
# TOCK_SCHED_POLICY override (board/sim_board.cc). The cooperative leg excludes
# the tests that *require* preemption or round-robin behavior by construction:
#   - KernelTest.InfiniteLoopCannotStarveNeighbor: the claim under test IS
#     preemptive isolation; cooperative mode intentionally lacks it (the
#     matching cooperative starvation test lives in extension_test.cc);
#   - AsyncLoader.* / LoaderCorruption.BitFlippedSignature…: spinning apps
#     starve the loader's deferred verification without a SysTick;
#   - FaultPolicy.AppBreakResetsAndPeerGrantsSurviveRestart and fault_soak:
#     CPU-bound victims/peers rely on preemption for mutual progress;
#   - Profiler.GoldenChromeTraceTwoApps: the golden export is recorded under
#     round-robin (non-default policies add the tockSched sidecar).
# Usage: scripts/check_matrix.sh [extra ctest args...]
set -eu

cd "$(dirname "$0")/.."

COOP_EXCLUDE='KernelTest.InfiniteLoopCannotStarveNeighbor|AsyncLoader\.|LoaderCorruption.BitFlippedSignatureFailsTheAuthenticityStep|FaultPolicy.AppBreakResetsAndPeerGrantsSurviveRestart|Profiler.GoldenChromeTraceTwoApps|^fault_soak$'

for preset in default trace-off; do
  echo "==== preset: $preset, policy: round-robin (default) ===="
  cmake --preset "$preset"
  cmake --build --preset "$preset" -j "$(nproc)"
  ctest --preset "$preset" "$@"

  echo "==== preset: $preset, policy: cooperative ===="
  TOCK_SCHED_POLICY=cooperative ctest --preset "$preset" -E "$COOP_EXCLUDE" "$@"
done

echo "==== fleet smoke: sharded multi-board run via the CLI driver ===="
./build/src/tools/fleet --boards=4 --threads=2 --cycles=200000 >/dev/null
./build/src/tools/fleet --boards=4 --threads=1 --cycles=200000 --radio=off >/dev/null
# Scale-out knobs: static sharding and the host-RSS report must run clean
# through the CLI.
./build/src/tools/fleet --boards=64 --threads=2 --cycles=200000 --radio=off --report-rss >/dev/null
./build/src/tools/fleet --boards=4 --threads=2 --cycles=200000 --steal=off >/dev/null

echo "==== telemetry smoke: fleet publishes to shm, tap attaches post-mortem ===="
# --telemetry-keep leaves the region behind so the tap can attach after the
# run, exactly like inspecting a crashed fleet. The tap must exit 0 and see
# every board's event stream.
TELEM_NAME="tock-matrix-$$"
./build/src/tools/fleet --boards=4 --threads=2 --cycles=2000000 \
  --telemetry="$TELEM_NAME" --telemetry-keep >/dev/null
./build/src/tools/tap --shm="$TELEM_NAME" --max-events=2 >/dev/null
rm -f "/dev/shm/$TELEM_NAME"

echo "==== OTA smoke: lossy multi-threaded signed-app push must converge ===="
# Exit code reflects convergence: the driver returns 1 unless every subscriber
# runs the verified update despite 10% drop + duplication + reordering +
# corruption (every fault kind the medium tallies on links a unicast frame does
# not reach).
./build/src/tools/fleet --ota --boards=9 --threads=4 --cycles=120000000 \
  --drop=100 --dup=20 --reorder=20 --corrupt=10 >/dev/null

echo "==== fleetbench self-test: recorded simulated state reproduces ===="
# Every workload's tiny fingerprint must reproduce, traced and untraced, and a
# perturbed fingerprint must be rejected: a change that moves simulated state
# fails here (builds the Release harness under .bench_build/).
python3 fleetbench/selftest.py

echo "==== preset: sanitize — full tier-1 suite under ASan+UBSan ===="
cmake --preset sanitize
cmake --build --preset sanitize -j "$(nproc)"
ctest --preset sanitize "$@"

echo "==== preset: tsan — fleet sharding + radio mailbox + lossy OTA + live telemetry under ThreadSanitizer ===="
# 'Fleet' also selects the FleetHostInvariance sweep, whose legs run 4-thread
# fleets with live telemetry attached.
cmake --preset tsan
cmake --build --preset tsan -j "$(nproc)"
ctest --preset tsan -R 'Fleet|RadioHw|RadioFaults|Ota|Telemetry|SpscRing|Superblock|MidRunFlash|Paged' "$@"

echo "==== matrix OK (trace on/off, round-robin + cooperative, fleet + OTA + telemetry, fleetbench fingerprints, asan+ubsan, tsan) ===="
