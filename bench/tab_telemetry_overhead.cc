// Telemetry transport overhead: the live shm publisher (kernel/telemetry.h)
// claims to be zero-perturbation and near-zero host cost. This bench proves
// both claims on the two-app hot-path workload whose simulated counts
// Integration.HotPathWorkloadMatchesPinnedEngineCounts (tests/integration_test.cc)
// pins:
//
//   * identical simulation: telemetry off, on-with-no-reader, and on-with-a-
//     draining-reader must retire the same instruction count, the same syscall
//     mix, and end on the same cycle — divergence is a hard failure, because
//     it would mean attaching a tap changes what the fleet computes;
//   * cheap host: the drained run's simulated-instructions-per-wall-second
//     should be within ~2% of the telemetry-off figure. Push is a fixed
//     handful of atomic stores, and the reader runs on its own host thread —
//     the writer never blocks on it (util/spsc_ring.h).
//
// The syscall-heavy app makes every simulated iteration emit trace events
// (syscalls, upcalls, context switches), so the event rate through the ring is
// the realistic worst case for a chatty board, not an idle one.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include <unistd.h>

#include "bench_json.h"
#include "board/sim_board.h"
#include "kernel/telemetry.h"

namespace {

// Compute-bound: a tight ALU/branch loop preempted by SysTick.
const char* kComputeApp = R"(
_start:
    li s0, 0
    li s1, 1
    li s2, 0x1234
loop:
    add s0, s0, s1
    xor s3, s0, s2
    slli s4, s3, 3
    srli s5, s3, 5
    or s6, s4, s5
    sub s7, s6, s0
    sltu s8, s0, s7
    andi s9, s7, 255
    add s2, s2, s8
    j loop
)";

// Syscall-heavy: command + yield-wait-for against the async temperature
// driver; every iteration crosses the trap boundary twice and delivers one
// upcall — a steady stream of trace events into the telemetry ring.
const char* kSyscallApp = R"(
_start:
loop:
    li a0, 0x60000
    li a1, 1
    li a2, 0
    li a3, 0
    li a4, 2
    ecall
    li a0, 2
    li a1, 0x60000
    li a2, 0
    li a4, 0
    ecall
    mv s2, a1
    j loop
)";

constexpr uint64_t kSimCycles = 20'000'000;

enum class Leg { kOff, kOnUndrained, kOnDrained };

struct RunResult {
  bool ok = false;
  uint64_t instructions = 0;
  uint64_t syscalls = 0;
  uint64_t upcalls = 0;
  uint64_t end_cycles = 0;
  uint64_t events_emitted = 0;
  uint64_t events_drained = 0;
  double wall_ns = 0.0;
};

RunResult RunWorkload(Leg leg) {
  std::string shm_path;
  tock::TelemetryRegion region;
  tock::BoardConfig config;
  if (leg != Leg::kOff) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "/tmp/tock_bench_telemetry_%d.shm",
                  static_cast<int>(getpid()));
    shm_path = buf;
    std::string error;
    if (!region.Create({shm_path, /*board_count=*/1, /*ring_capacity=*/4096},
                       tock::TelemetryConfig{}, &error)) {
      std::fprintf(stderr, "telemetry region failed: %s\n", error.c_str());
      return {};
    }
    config.telemetry = region.board(0);
  }
  tock::SimBoard board(config);

  tock::AppSpec compute;
  compute.name = "compute";
  compute.source = kComputeApp;
  compute.include_runtime = false;
  tock::AppSpec syscalls;
  syscalls.name = "syscalls";
  syscalls.source = kSyscallApp;
  syscalls.include_runtime = false;
  if (board.installer().Install(compute) == 0 ||
      board.installer().Install(syscalls) == 0 || board.Boot() != 2) {
    std::fprintf(stderr, "setup failed: %s\n", board.installer().error().c_str());
    return {};
  }

  // The drained leg attaches an in-process tap on its own thread — the same
  // lock-free protocol tools/tap uses out-of-process, minus the mmap.
  std::atomic<bool> done{false};
  std::atomic<uint64_t> drained{0};
  std::thread reader;
  if (leg == Leg::kOnDrained) {
    reader = std::thread([&] {
      tock::TelemetryTap tap;
      std::string error;
      if (!tap.Attach(region.base(), region.size(), &error)) {
        return;
      }
      tock::SpscReader* events = tap.events(0);
      uint64_t words[tock::kTelemetryRecordWords];
      uint64_t gap = 0;
      uint64_t count = 0;
      while (!done.load(std::memory_order_acquire)) {
        while (events->PollNext(words, &gap) ==
               tock::SpscReader::Poll::kRecord) {
          ++count;
        }
        // Poll at tools/tap's cadence: drain, then sleep. A reader that
        // busy-spins on the head cursor steals a core and bounces the
        // writer's cache line for no benefit — at this workload's event rate
        // the 4096-record ring holds ~100ms of slack, so a tap-like poll
        // period drains losslessly with ~20 wakeups a second.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
      while (events->PollNext(words, &gap) == tock::SpscReader::Poll::kRecord) {
        ++count;  // final drain after the run stops
      }
      drained.store(count, std::memory_order_release);
    });
  }

  auto start = std::chrono::steady_clock::now();
  board.Run(kSimCycles);
  auto stop = std::chrono::steady_clock::now();
  if (reader.joinable()) {
    done.store(true, std::memory_order_release);
    reader.join();
  }

  RunResult r;
  r.ok = true;
  r.instructions = board.kernel().instructions_retired();
  r.syscalls = board.kernel().stats().SyscallsTotal();
  r.upcalls = board.kernel().stats().upcalls_delivered;
  r.end_cycles = board.mcu().CyclesNow();
  r.events_emitted = board.kernel().stats().telemetry_events_emitted;
  r.events_drained = drained.load();
  r.wall_ns = std::chrono::duration<double, std::nano>(stop - start).count();
  return r;
}

const char* LegName(Leg leg) {
  switch (leg) {
    case Leg::kOff: return "off";
    case Leg::kOnUndrained: return "on, no reader";
    case Leg::kOnDrained: return "on, drained";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  tock::bench::BenchReporter reporter("tab_telemetry_overhead", &argc, argv);

  std::printf("==== Telemetry transport overhead: off vs on vs on+drained ====\n\n");

  const Leg legs[] = {Leg::kOff, Leg::kOnUndrained, Leg::kOnDrained};
  RunResult results[3];
  // Best-of-3 wall time per leg: the simulation is deterministic (every rep
  // must produce identical counts — checked below), so the fastest rep is the
  // least host-noise-contaminated measurement of the same work.
  constexpr int kReps = 3;
  for (int i = 0; i < 3; ++i) {
    for (int rep = 0; rep < kReps; ++rep) {
      RunResult r = RunWorkload(legs[i]);
      if (!r.ok) {
        return 1;
      }
      if (rep > 0 && r.instructions != results[i].instructions) {
        std::fprintf(stderr, "FAIL: leg '%s' not deterministic across reps\n",
                     LegName(legs[i]));
        return 1;
      }
      if (rep == 0 || r.wall_ns < results[i].wall_ns) {
        results[i] = r;
      }
    }
  }
  const RunResult& off = results[0];

  // The zero-perturbation contract, enforced: any simulated divergence between
  // the legs is a bug in the transport, not a benchmark result.
  for (int i = 1; i < 3; ++i) {
    const RunResult& r = results[i];
    if (r.instructions != off.instructions || r.syscalls != off.syscalls ||
        r.upcalls != off.upcalls || r.end_cycles != off.end_cycles) {
      std::fprintf(stderr,
                   "FAIL: leg '%s' diverged from telemetry-off\n"
                   "  insns   %llu vs %llu\n  syscalls %llu vs %llu\n"
                   "  upcalls %llu vs %llu\n  cycles  %llu vs %llu\n",
                   LegName(legs[i]),
                   (unsigned long long)r.instructions, (unsigned long long)off.instructions,
                   (unsigned long long)r.syscalls, (unsigned long long)off.syscalls,
                   (unsigned long long)r.upcalls, (unsigned long long)off.upcalls,
                   (unsigned long long)r.end_cycles, (unsigned long long)off.end_cycles);
      return 1;
    }
  }

  std::printf("  %-24s %15s %15s %15s\n", "metric", "off", "on (no reader)",
              "on (drained)");
  std::printf("  %-24s %15s %15s %15s\n", "------", "---", "--------------",
              "------------");
  std::printf("  %-24s %15llu %15llu %15llu\n", "sim instructions",
              (unsigned long long)results[0].instructions,
              (unsigned long long)results[1].instructions,
              (unsigned long long)results[2].instructions);
  std::printf("  %-24s %15llu %15llu %15llu\n", "events emitted",
              (unsigned long long)results[0].events_emitted,
              (unsigned long long)results[1].events_emitted,
              (unsigned long long)results[2].events_emitted);
  std::printf("  %-24s %15.1f %15.1f %15.1f\n", "wall time (ms)",
              results[0].wall_ns * 1e-6, results[1].wall_ns * 1e-6,
              results[2].wall_ns * 1e-6);

  double insn_per_sec[3];
  for (int i = 0; i < 3; ++i) {
    insn_per_sec[i] =
        static_cast<double>(results[i].instructions) / (results[i].wall_ns * 1e-9);
  }
  std::printf("  %-24s %15.2f %15.2f %15.2f\n", "sim Minsn/s",
              insn_per_sec[0] * 1e-6, insn_per_sec[1] * 1e-6,
              insn_per_sec[2] * 1e-6);

  const double overhead_undrained = 100.0 * (1.0 - insn_per_sec[1] / insn_per_sec[0]);
  const double overhead_drained = 100.0 * (1.0 - insn_per_sec[2] / insn_per_sec[0]);
  const double events_per_sec =
      static_cast<double>(results[2].events_drained) /
      (results[2].wall_ns * 1e-9);
  std::printf("\n  overhead (on, no reader):  %+.2f%%\n", overhead_undrained);
  std::printf("  overhead (on, drained):    %+.2f%% (target: <= 2%%)\n",
              overhead_drained);
  std::printf("  reader drained:            %llu of %llu events (%.2f Mevents/s)\n",
              (unsigned long long)results[2].events_drained,
              (unsigned long long)results[2].events_emitted,
              events_per_sec * 1e-6);

  reporter.Record("sim_insn_per_sec/telemetry_off", insn_per_sec[0], "insn/s");
  reporter.Record("sim_insn_per_sec/telemetry_on", insn_per_sec[1], "insn/s");
  reporter.Record("sim_insn_per_sec/telemetry_on_drained", insn_per_sec[2], "insn/s");
  reporter.Record("overhead_pct/no_reader", overhead_undrained, "%");
  reporter.Record("overhead_pct/drained", overhead_drained, "%");
  reporter.Record("events_emitted", static_cast<double>(results[2].events_emitted),
                  "events");
  reporter.Record("events_drained_per_sec", events_per_sec, "events/s");

  std::printf("\nshape: identical instruction/syscall/cycle counts across all three\n"
              "legs prove attaching a tap cannot change what a fleet computes; the\n"
              "wall-clock columns bound what live observability costs the host.\n");
  return 0;
}
