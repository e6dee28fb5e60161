// Fleet scaling: aggregate simulation throughput of an 8-board deployment as the
// host thread count grows — the experiment behind the thread-sharded fleet
// runtime (board/fleet.h). Two workloads:
//
//   * compute fleet: radio-less boards running the CPU-bound app. No medium means
//     no lookahead clamp, so epochs are long and barriers amortized — the upper
//     bound of what sharding can buy.
//   * radio fleet: every board beacons to and listens for all the others, which
//     clamps the epoch to the medium lookahead (4608 cycles) — the conservative
//     lower bound with maximal cross-board chatter.
//
// Two further legs cover the fleet scale-out work (paged memory, work stealing,
// idle skip):
//
//   * memory fleet: a 1,000-board homogeneous fleet sharing one immutable flash
//     base image. The hard gate is residency: the fleet must commit >=5x less
//     host memory than an eager fleet would — boards x (flash + RAM), one flat
//     allocation per bank — and the total must reconcile exactly against whole
//     4 KiB pages with every board holding the same page count (the fleet is
//     homogeneous).
//   * skewed fleet: 1 hot spinner + 31 duty-cycled boards. Work stealing must
//     beat static sharding >=1.3x wall-clock at 4 threads (gated only when the
//     host has >=4 cores; flat on fewer cores is expected, not a failure).
//
// Determinism is the hard gate, not a metric: if any board's (cycles, insns,
// context switches) fingerprint differs between thread counts — or across
// idle-skip on/off, steal vs static — the bench fails.
// The speedup itself is reported for the host it ran on (see host_cores): on a
// single-core container every thread count collapses to ~1.0x by construction,
// and the ≥3x-at-4-threads figure materializes only on ≥4-core hosts.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "board/fleet.h"
#include "board/sim_board.h"
#include "hw/memory_map.h"
#include "hw/paged_mem.h"
#include "libtock/libtock.h"

namespace {

constexpr size_t kBoards = 8;
constexpr uint64_t kComputeCycles = 4'000'000;  // per board
constexpr uint64_t kRadioCycles = 1'500'000;

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

std::string BeaconApp(int node_id) {
  char buf[1024];
  std::snprintf(buf, sizeof(buf), R"(
_start:
    mv s0, a0
    li s1, 0
    li a0, %d
    call sleep_ticks
loop:
    li t0, %d
    sb t0, 0(s0)
    sb s1, 1(s0)
    li a0, 0x30001
    li a1, 0
    mv a2, s0
    li a3, 2
    li a4, 4
    ecall
    # command(radio, 1 = tx, broadcast, len=2)
    li a0, 0x30001
    li a1, 1
    li a2, 0xFFFF
    li a3, 2
    li a4, 2
    ecall
    # yield-wait-for(radio, 0 = tx done)
    li a0, 2
    li a1, 0x30001
    li a2, 0
    li a4, 0
    ecall
    addi s1, s1, 1
    li a0, 150000
    call sleep_ticks
    j loop
)",
                node_id * 9000, node_id);
  return buf;
}

const char* kListenerApp = R"(
_start:
    mv s0, a0
    li a0, 0x30001
    li a1, 1
    addi a2, s0, 64
    li a3, 8
    li a4, 3
    ecall
    # command(radio, 2 = listen)
    li a0, 0x30001
    li a1, 2
    li a2, 0
    li a3, 0
    li a4, 2
    ecall
loop:
    li a0, 2
    li a1, 0x30001
    li a2, 1
    li a4, 0
    ecall
    lw t0, 32(s0)
    addi t0, t0, 1
    sw t0, 32(s0)
    j loop
)";

struct BoardPrint {
  uint64_t cycles = 0;
  uint64_t instructions = 0;
  uint64_t context_switches = 0;
  uint64_t packets_received = 0;

  bool operator==(const BoardPrint&) const = default;
};

struct RunResult {
  bool ok = false;
  double wall_s = 0.0;
  uint64_t instructions = 0;
  uint64_t packets_received = 0;
  size_t boards_live = 0;
  std::vector<BoardPrint> prints;
};

RunResult RunFleet(bool with_radio, unsigned threads, uint64_t cycles) {
  tock::FleetConfig fc;
  fc.threads = threads;
  fc.slice = 100'000;  // radio-less epochs; clamped to the lookahead otherwise
  tock::Fleet fleet(fc);

  std::vector<std::unique_ptr<tock::SimBoard>> boards;
  for (size_t i = 0; i < kBoards; ++i) {
    tock::BoardConfig bc;
    bc.rng_seed = 0xF1EE7 + static_cast<uint32_t>(i);
    bc.radio_addr = static_cast<uint16_t>(i + 1);
    if (with_radio) {
      bc.medium = &fleet.medium();
    }
    auto board = std::make_unique<tock::SimBoard>(bc);
    tock::AppSpec compute;
    compute.name = "compute";
    compute.source = kComputeApp;
    compute.include_runtime = false;
    int expected = 1;
    if (board->installer().Install(compute) == 0) {
      std::fprintf(stderr, "setup failed: %s\n", board->installer().error().c_str());
      return {};
    }
    if (with_radio) {
      tock::AppSpec beacon;
      beacon.name = "beacon";
      beacon.source = BeaconApp(static_cast<int>(i + 1));
      tock::AppSpec listener;
      listener.name = "listener";
      listener.source = kListenerApp;
      if (board->installer().Install(beacon) == 0 ||
          board->installer().Install(listener) == 0) {
        std::fprintf(stderr, "setup failed: %s\n", board->installer().error().c_str());
        return {};
      }
      expected += 2;
    }
    if (board->Boot() != expected) {
      std::fprintf(stderr, "boot failed on board %zu\n", i);
      return {};
    }
    fleet.AddBoard(board.get());
    boards.push_back(std::move(board));
  }
  fleet.AlignClocks();

  auto start = std::chrono::steady_clock::now();
  fleet.Run(cycles);
  auto stop = std::chrono::steady_clock::now();

  RunResult r;
  r.ok = true;
  r.wall_s = std::chrono::duration<double>(stop - start).count();
  for (size_t i = 0; i < kBoards; ++i) {
    tock::SimBoard& b = *boards[i];
    r.prints.push_back(BoardPrint{b.mcu().CyclesNow(), b.kernel().instructions_retired(),
                                  b.kernel().stats().context_switches,
                                  b.radio_hw().packets_received()});
  }
  tock::FleetStats stats = fleet.Stats();
  r.instructions = stats.instructions;
  r.packets_received = stats.packets_received;
  r.boards_live = stats.boards_live;
  return r;
}

bool CheckIdentical(const char* what, const std::vector<BoardPrint>& base,
                    const std::vector<BoardPrint>& other) {
  if (base == other) {
    return true;
  }
  std::fprintf(stderr, "FAIL: fleet diverged: %s\n", what);
  for (size_t i = 0; i < base.size() && i < other.size(); ++i) {
    if (!(base[i] == other[i])) {
      std::fprintf(stderr,
                   "  board %zu: cycles %llu vs %llu, insns %llu vs %llu, "
                   "ctxsw %llu vs %llu, rx %llu vs %llu\n",
                   i, (unsigned long long)base[i].cycles,
                   (unsigned long long)other[i].cycles,
                   (unsigned long long)base[i].instructions,
                   (unsigned long long)other[i].instructions,
                   (unsigned long long)base[i].context_switches,
                   (unsigned long long)other[i].context_switches,
                   (unsigned long long)base[i].packets_received,
                   (unsigned long long)other[i].packets_received);
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Fleet scale-out legs: paged board memory, work stealing, idle-board skip.
// ---------------------------------------------------------------------------

constexpr size_t kMemBoards = 1000;
constexpr uint64_t kMemCycles = 150'000;
constexpr size_t kSkewBoards = 32;
constexpr uint64_t kSkewCycles = 6'000'000;

// Duty-cycled workload: a burst of arithmetic, a RAM-counter write, then a sleep
// several epochs long. The RAM write matters for the memory leg (each board must
// dirty *some* pages — an all-register app would show a degenerate 0-byte paged
// fleet) and the sleep matters for the skewed leg (the board is idle-skippable
// most of the time, so its average cost is a small fraction of the hot board's).
const char* kDutyApp = R"(
_start:
    mv s0, a0
    li s2, 0x9E37
loop:
    li t1, 2000
inner:
    addi s1, s1, 1
    xor s3, s1, s2
    add s2, s2, s3
    addi t1, t1, -1
    bnez t1, inner
    sw s1, 0(s0)
    li a0, 60000
    call sleep_ticks
    j loop
)";

struct MemLeg {
  bool ok = false;
  uint64_t resident_total = 0;
  uint64_t resident_min = 0;
  uint64_t resident_max = 0;
};

// 1,000 identical boards, radio-less, all adopting ONE immutable flash base
// image holding the pre-built duty app — the homogeneous-fleet deployment shape.
MemLeg RunMemFleet(unsigned threads) {
  tock::FleetConfig fc;
  fc.threads = threads;
  fc.slice = 50'000;
  tock::Fleet fleet(fc);

  auto shared_flash = std::make_shared<std::vector<uint8_t>>(
      tock::MemoryMap::kFlashSize, uint8_t{0xFF});
  uint32_t shared_next = tock::SimBoard::kAppFlashBase;
  {
    tock::AppSpec duty;
    duty.name = "duty";
    duty.source = kDutyApp;
    std::string error;
    std::vector<uint8_t> image = tock::BuildAppImage(
        duty, shared_next, tock::SimBoard::kDeviceKey, &error);
    if (image.empty() ||
        shared_next + image.size() > tock::SimBoard::kAppFlashEnd) {
      std::fprintf(stderr, "duty app build failed: %s\n", error.c_str());
      return {};
    }
    std::copy(image.begin(), image.end(), shared_flash->begin() + shared_next);
    shared_next += static_cast<uint32_t>(image.size());
  }
  const std::shared_ptr<const std::vector<uint8_t>> base = shared_flash;

  std::vector<std::unique_ptr<tock::SimBoard>> boards;
  boards.reserve(kMemBoards);
  for (size_t i = 0; i < kMemBoards; ++i) {
    tock::BoardConfig bc;
    bc.rng_seed = 0xB0A7 + static_cast<uint32_t>(i);
    auto board = std::make_unique<tock::SimBoard>(bc);
    board->mcu().bus().AdoptFlashBase(base);
    board->installer().set_next_addr(shared_next);
    if (board->Boot() != 1) {
      std::fprintf(stderr, "memory fleet: boot failed on board %zu\n", i);
      return {};
    }
    fleet.AddBoard(board.get());
    boards.push_back(std::move(board));
  }
  fleet.AlignClocks();
  fleet.Run(kMemCycles);

  MemLeg r;
  r.ok = true;
  r.resident_min = UINT64_MAX;
  for (size_t i = 0; i < kMemBoards; ++i) {
    tock::SimBoard& b = *boards[i];
    const uint64_t res = b.mcu().bus().resident_bytes();
    r.resident_total += res;
    r.resident_min = std::min(r.resident_min, res);
    r.resident_max = std::max(r.resident_max, res);
  }
  return r;
}

struct SkewLeg {
  bool ok = false;
  double wall_s = 0.0;
  uint64_t idle_skips = 0;
  std::vector<BoardPrint> prints;
};

// 1 hot board (the all-register spinner, never sleeps) + 31 duty-cycled boards.
// Under static sharding the hot board's thread also drags its stride-mates;
// under stealing the other threads drain the cheap boards while one thread works
// the hot one. Every (threads, steal, idle_skip) combination must produce the
// same per-board fingerprints.
SkewLeg RunSkewFleet(unsigned threads, bool steal, bool idle_skip) {
  tock::FleetConfig fc;
  fc.threads = threads;
  fc.steal = steal;
  fc.idle_skip = idle_skip;
  fc.slice = 20'000;
  tock::Fleet fleet(fc);

  std::vector<std::unique_ptr<tock::SimBoard>> boards;
  boards.reserve(kSkewBoards);
  for (size_t i = 0; i < kSkewBoards; ++i) {
    tock::BoardConfig bc;
    bc.rng_seed = 0x5CE1 + static_cast<uint32_t>(i);
    auto board = std::make_unique<tock::SimBoard>(bc);
    tock::AppSpec app;
    if (i == 0) {
      app.name = "hot";
      app.source = kComputeApp;
      app.include_runtime = false;
    } else {
      app.name = "duty";
      app.source = kDutyApp;
    }
    if (board->installer().Install(app) == 0) {
      std::fprintf(stderr, "skewed fleet setup failed: %s\n",
                   board->installer().error().c_str());
      return {};
    }
    if (board->Boot() != 1) {
      std::fprintf(stderr, "skewed fleet: boot failed on board %zu\n", i);
      return {};
    }
    fleet.AddBoard(board.get());
    boards.push_back(std::move(board));
  }
  fleet.AlignClocks();

  auto start = std::chrono::steady_clock::now();
  fleet.Run(kSkewCycles);
  auto stop = std::chrono::steady_clock::now();

  SkewLeg r;
  r.ok = true;
  r.wall_s = std::chrono::duration<double>(stop - start).count();
  r.idle_skips = fleet.Stats().aggregate.fleet_idle_skips;
  for (size_t i = 0; i < kSkewBoards; ++i) {
    tock::SimBoard& b = *boards[i];
    r.prints.push_back(BoardPrint{b.mcu().CyclesNow(),
                                  b.kernel().instructions_retired(),
                                  b.kernel().stats().context_switches, 0});
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  tock::bench::BenchReporter reporter("tab_fleet_scaling", &argc, argv);
  unsigned host_cores = std::thread::hardware_concurrency();

  std::printf("==== Fleet scaling: %zu boards, host threads 1/2/4 ====\n\n", kBoards);
  std::printf("host cores available: %u\n\n", host_cores);

  const unsigned kThreadCounts[] = {1, 2, 4};
  RunResult compute[3];
  for (int i = 0; i < 3; ++i) {
    compute[i] = RunFleet(/*with_radio=*/false, kThreadCounts[i], kComputeCycles);
    if (!compute[i].ok) {
      return 1;
    }
  }
  // Per-board results must be bit-identical no matter how the fleet was sharded.
  if (!CheckIdentical("compute fleet, 1 vs 2 threads", compute[0].prints, compute[1].prints) ||
      !CheckIdentical("compute fleet, 1 vs 4 threads", compute[0].prints, compute[2].prints)) {
    return 1;
  }

  RunResult radio1 = RunFleet(/*with_radio=*/true, 1, kRadioCycles);
  RunResult radio4 = RunFleet(/*with_radio=*/true, 4, kRadioCycles);
  if (!radio1.ok || !radio4.ok ||
      !CheckIdentical("radio fleet, 1 vs 4 threads", radio1.prints, radio4.prints)) {
    return 1;
  }
  if (radio1.packets_received == 0) {
    std::fprintf(stderr, "FAIL: radio fleet exchanged no packets\n");
    return 1;
  }

  std::printf("  %-34s %12s %12s %12s\n", "workload / metric", "1 thread", "2 threads",
              "4 threads");
  std::printf("  %-34s %12s %12s %12s\n", "-----------------", "--------", "---------",
              "---------");
  double rate[3];
  for (int i = 0; i < 3; ++i) {
    rate[i] = static_cast<double>(compute[i].instructions) / compute[i].wall_s / 1e6;
  }
  std::printf("  %-34s %12.1f %12.1f %12.1f\n", "compute fleet (M sim-insn/s)", rate[0],
              rate[1], rate[2]);
  std::printf("  %-34s %12.2f %12.2f %12.2f\n", "compute speedup vs 1 thread", 1.0,
              rate[1] / rate[0], rate[2] / rate[0]);
  double rrate1 = static_cast<double>(radio1.instructions) / radio1.wall_s / 1e6;
  double rrate4 = static_cast<double>(radio4.instructions) / radio4.wall_s / 1e6;
  std::printf("  %-34s %12.1f %12s %12.1f\n", "radio fleet (M sim-insn/s)", rrate1, "-",
              rrate4);
  std::printf("\n  radio fleet: %llu packets delivered across %zu live boards, "
              "bit-identical at 1 and 4 threads\n",
              (unsigned long long)radio1.packets_received, radio1.boards_live);
  if (host_cores < 4) {
    std::printf("  note: only %u host core(s) — thread scaling is flat by "
                "construction; run on a >=4-core host for the scaling figure\n",
                host_cores);
  }

  reporter.Record("host_cores", host_cores, "cores");
  reporter.Record("boards", static_cast<double>(kBoards), "boards");
  reporter.Record("compute_fleet_insn_per_s_1t", rate[0] * 1e6, "insn/s");
  reporter.Record("compute_fleet_insn_per_s_2t", rate[1] * 1e6, "insn/s");
  reporter.Record("compute_fleet_insn_per_s_4t", rate[2] * 1e6, "insn/s");
  reporter.Record("compute_fleet_speedup_2t", rate[1] / rate[0], "x");
  reporter.Record("compute_fleet_speedup_4t", rate[2] / rate[0], "x");
  reporter.Record("radio_fleet_insn_per_s_1t", rrate1 * 1e6, "insn/s");
  reporter.Record("radio_fleet_insn_per_s_4t", rrate4 * 1e6, "insn/s");
  reporter.Record("radio_fleet_packets_delivered",
                  static_cast<double>(radio1.packets_received), "packets");
  reporter.Record("deterministic_across_threads", 1.0, "bool");

  // ---- Memory fleet: 1,000 homogeneous boards against the eager footprint ----
  std::printf("\n==== Memory fleet: %zu homogeneous boards, paged vs eager ====\n\n",
              kMemBoards);
  MemLeg mem_paged = RunMemFleet(/*threads=*/4);
  if (!mem_paged.ok) {
    return 1;
  }
  // What an eager fleet commits: every board holds its whole flash and RAM.
  const uint64_t eager_total =
      kMemBoards * (uint64_t{tock::MemoryMap::kFlashSize} + tock::MemoryMap::kRamSize);
  const double mib = 1024.0 * 1024.0;
  std::printf("  eager resident: %8.2f MiB (%zu boards x flash+RAM)\n", eager_total / mib,
              kMemBoards);
  std::printf("  paged resident: %8.2f MiB (%llu pages/board x 4 KiB)\n",
              mem_paged.resident_total / mib,
              (unsigned long long)(mem_paged.resident_max / tock::PagedBank::kPageSize));
  // Reconcile the gauge against whole pages: a homogeneous fleet must hold the
  // same private page count on every board, and the total must be exactly
  // boards x that count x 4 KiB — anything else means the residency gauge
  // drifted from the pages actually committed.
  if (mem_paged.resident_min != mem_paged.resident_max ||
      mem_paged.resident_max % tock::PagedBank::kPageSize != 0 ||
      mem_paged.resident_total != kMemBoards * mem_paged.resident_max) {
    std::fprintf(stderr,
                 "FAIL: paged residency does not reconcile against page counts "
                 "(min %llu, max %llu, total %llu)\n",
                 (unsigned long long)mem_paged.resident_min,
                 (unsigned long long)mem_paged.resident_max,
                 (unsigned long long)mem_paged.resident_total);
    return 1;
  }
  if (mem_paged.resident_total == 0 || eager_total < 5 * mem_paged.resident_total) {
    std::fprintf(stderr,
                 "FAIL: paged fleet not >=5x smaller than eager (%llu vs %llu bytes)\n",
                 (unsigned long long)mem_paged.resident_total,
                 (unsigned long long)eager_total);
    return 1;
  }
  std::printf("  reduction: %.1fx (gate: >=5x)\n",
              (double)eager_total / (double)mem_paged.resident_total);

  // ---- Skewed fleet: work stealing vs static sharding ----
  std::printf("\n==== Skewed fleet: 1 hot + %zu duty-cycled boards ====\n\n",
              kSkewBoards - 1);
  SkewLeg skew_base = RunSkewFleet(1, /*steal=*/true, /*idle_skip=*/true);
  SkewLeg skew_steal4 = RunSkewFleet(4, /*steal=*/true, /*idle_skip=*/true);
  SkewLeg skew_static4 = RunSkewFleet(4, /*steal=*/false, /*idle_skip=*/true);
  SkewLeg skew_noskip = RunSkewFleet(1, /*steal=*/true, /*idle_skip=*/false);
  if (!skew_base.ok || !skew_steal4.ok || !skew_static4.ok || !skew_noskip.ok) {
    return 1;
  }
  // The full determinism matrix: thread count x steal x idle-skip.
  if (!CheckIdentical("skewed fleet, stealing 1 vs 4 threads", skew_base.prints,
                      skew_steal4.prints) ||
      !CheckIdentical("skewed fleet, steal vs static at 4 threads", skew_base.prints,
                      skew_static4.prints) ||
      !CheckIdentical("skewed fleet, idle-skip on vs off", skew_base.prints,
                      skew_noskip.prints)) {
    return 1;
  }
  // Idle skip must actually engage on the duty-cycled boards (and only when on).
  if (skew_base.idle_skips == 0 || skew_noskip.idle_skips != 0) {
    std::fprintf(stderr, "FAIL: idle-skip counters wrong (on: %llu, off: %llu)\n",
                 (unsigned long long)skew_base.idle_skips,
                 (unsigned long long)skew_noskip.idle_skips);
    return 1;
  }
  const double steal_speedup = skew_static4.wall_s / skew_steal4.wall_s;
  std::printf("  static sharding, 4 threads: %8.2f s\n", skew_static4.wall_s);
  std::printf("  work stealing,   4 threads: %8.2f s  (%.2fx vs static)\n",
              skew_steal4.wall_s, steal_speedup);
  std::printf("  idle skips (1-thread base): %llu epochs fast-forwarded\n",
              (unsigned long long)skew_base.idle_skips);
  if (host_cores >= 4) {
    if (steal_speedup < 1.3) {
      std::fprintf(stderr,
                   "FAIL: work stealing only %.2fx vs static sharding on a %u-core "
                   "host (gate: >=1.3x)\n",
                   steal_speedup, host_cores);
      return 1;
    }
  } else {
    std::printf("  note: only %u host core(s) — steal-vs-static speedup is flat by "
                "construction; the >=1.3x gate applies on >=4-core hosts\n",
                host_cores);
  }

  reporter.Record("mem_fleet_boards", static_cast<double>(kMemBoards), "boards");
  reporter.Record("mem_fleet_resident_eager_bytes", static_cast<double>(eager_total),
                  "bytes");
  reporter.Record("mem_fleet_resident_paged_bytes",
                  static_cast<double>(mem_paged.resident_total), "bytes");
  reporter.Record("mem_fleet_reduction",
                  static_cast<double>(eager_total) /
                      static_cast<double>(mem_paged.resident_total),
                  "x");
  reporter.Record("skew_fleet_steal_speedup_4t", steal_speedup, "x");
  reporter.Record("skew_fleet_idle_skips", static_cast<double>(skew_base.idle_skips),
                  "epochs");
  reporter.Record("deterministic_across_modes", 1.0, "bool");
  return 0;
}
