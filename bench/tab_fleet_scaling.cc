// Fleet scaling: work stealing vs static sharding on a skewed fleet — 1 hot
// spinner + 31 duty-cycled boards (board/fleet.h). Under static sharding the
// hot board's thread also drags its stride-mates; under stealing the other
// threads drain the cheap boards while one thread works the hot one. Work
// stealing must beat static sharding >=1.3x wall-clock at 4 threads (gated only
// when the host has >=4 cores; flat on fewer cores is expected, not a failure).
//
// This binary holds only the host wall-clock gate. The simulated properties of
// the same fleet shapes run in tier-1: thread-count, steal-mode and calendar
// invariance in tests/fleet_test.cc (FleetDeterminism, FleetHostInvariance) and
// the 1,000-board paged-residency gate in tests/paged_mem_test.cc.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "board/fleet.h"
#include "board/sim_board.h"

namespace {

constexpr size_t kSkewBoards = 32;
constexpr uint64_t kSkewCycles = 6'000'000;

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

// Duty-cycled workload: a burst of arithmetic, a RAM-counter write, then a sleep
// several epochs long, so the calendar leaves the board unstepped most of the
// time and its average cost is a small fraction of the hot board's.
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

// Wall-clock seconds to run the skewed fleet, or a negative value on set-up
// failure.
double RunSkewFleet(unsigned threads, bool steal) {
  tock::FleetConfig fc;
  fc.threads = threads;
  fc.steal = steal;
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
      return -1.0;
    }
    if (board->Boot() != 1) {
      std::fprintf(stderr, "skewed fleet: boot failed on board %zu\n", i);
      return -1.0;
    }
    fleet.AddBoard(board.get());
    boards.push_back(std::move(board));
  }
  fleet.AlignClocks();

  auto start = std::chrono::steady_clock::now();
  fleet.Run(kSkewCycles);
  auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(stop - start).count();
}

}  // namespace

int main() {
  unsigned host_cores = std::thread::hardware_concurrency();
  std::printf("==== Skewed fleet: 1 hot + %zu duty-cycled boards ====\n\n",
              kSkewBoards - 1);
  std::printf("host cores available: %u\n\n", host_cores);

  const double steal4 = RunSkewFleet(4, /*steal=*/true);
  const double static4 = RunSkewFleet(4, /*steal=*/false);
  if (steal4 < 0 || static4 < 0) {
    return 1;
  }
  const double steal_speedup = static4 / steal4;
  std::printf("  static sharding, 4 threads: %8.2f s\n", static4);
  std::printf("  work stealing,   4 threads: %8.2f s  (%.2fx vs static)\n", steal4,
              steal_speedup);
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
  return 0;
}
