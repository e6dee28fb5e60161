// Experiment E5 (§2.4): grants confine memory exhaustion to the guilty process.
//
// Scenario: a hog process allocates kernel-side state without bound while a victim
// process periodically prints a heartbeat.
//
//   (a) grant design (this kernel): every allocation the kernel makes on the hog's
//       behalf comes out of the hog's own RAM quota. The hog hits its own wall; the
//       victim never misses a beat.
//   (b) shared-kernel-heap baseline (modelled): the same allocation stream drawn
//       from one global pool sized like a conventional embedded kernel heap. The
//       hog drains it; the victim's next allocation is refused.
//
// Expected shape: victim availability 100% under grants, collapse under the heap.
#include <cstdio>

#include "board/sim_board.h"

namespace {

constexpr int kRounds = 40;
constexpr uint32_t kAllocPerRound = 512;

struct Outcome {
  int hog_failures = 0;
  int victim_failures = 0;
  int victim_heartbeats = 0;
};

// (a) Real kernel, real grants. The hog's "allocations" are grant-backed console
// state + sbrk growth; the victim prints heartbeats throughout.
Outcome RunGrantDesign() {
  tock::BoardConfig config;
  // Golden-locked table (tests/golden/): ignore the TOCK_SCHED_POLICY override.
  config.allow_scheduler_env = false;
  tock::SimBoard board(config);
  tock::AppSpec hog;
  hog.name = "hog";
  hog.source = R"(
_start:
    mv s0, a0
grow:
    li a0, 1
    li a1, 512
    li a4, 5
    ecall             # sbrk(+512): kernel-visible allocation charged to us
    li t0, 129
    beq a0, t0, grow
park:
    li a0, 100000
    call sleep_ticks
    j park
)";
  tock::AppSpec victim;
  victim.name = "victim";
  victim.source = R"(
_start:
    li s1, 40
loop:
    la a0, msg
    li a1, 2
    call console_print
    li a0, 50000
    call sleep_ticks
    addi s1, s1, -1
    bnez s1, loop
    li a0, 0
    li a4, 6
    ecall
msg:
    .asciz "h\n"
)";
  if (board.installer().Install(hog) == 0 || board.installer().Install(victim) == 0 ||
      board.Boot() != 2) {
    std::fprintf(stderr, "grant setup failed\n");
    return {};
  }
  board.Run(200'000'000);

  Outcome outcome;
  const std::string& out = board.uart_hw().output();
  outcome.victim_heartbeats = static_cast<int>(std::count(out.begin(), out.end(), 'h'));
  outcome.victim_failures = kRounds - outcome.victim_heartbeats;
  // The hog's growth stopped at its own quota — count the refusals it must have hit.
  tock::Process& hog_proc = *board.kernel().process(0);
  outcome.hog_failures =
      hog_proc.app_break >= hog_proc.ram_start + hog_proc.ram_size - 1024 ? 1 : 0;
  return outcome;
}

// (b) Shared-heap baseline: a faithful model of the allocation *policy* difference.
// One pool serves everyone, first come first served.
Outcome RunSharedHeapBaseline() {
  constexpr uint32_t kKernelHeap = 16 * 1024;  // generous for this class of machine
  uint32_t heap_used = 0;
  auto heap_alloc = [&](uint32_t size) {
    if (heap_used + size > kKernelHeap) {
      return false;
    }
    heap_used += size;
    return true;
  };

  Outcome outcome;
  for (int round = 0; round < kRounds; ++round) {
    // The hog requests more kernel state every round and never frees.
    for (int i = 0; i < 4; ++i) {
      if (!heap_alloc(kAllocPerRound)) {
        ++outcome.hog_failures;
      }
    }
    // The victim needs a small transient allocation (console request state) to
    // print its heartbeat.
    if (heap_alloc(16)) {
      ++outcome.victim_heartbeats;
      heap_used -= 16;  // victim frees its state after each heartbeat
    } else {
      ++outcome.victim_failures;
    }
  }
  return outcome;
}

}  // namespace

int main() {
  std::printf("==== E5 (Table, §2.4): memory-exhaustion isolation, hog vs victim ====\n\n");
  Outcome grants = RunGrantDesign();
  Outcome heap = RunSharedHeapBaseline();

  std::printf("  design             | hog hit its wall | victim heartbeats | victim denied\n");
  std::printf("  -------------------+------------------+-------------------+--------------\n");
  std::printf("  grants (Tock)      | %-16s | %9d / %-5d | %d\n",
              grants.hog_failures > 0 ? "yes (own quota)" : "no", grants.victim_heartbeats,
              kRounds, grants.victim_failures);
  std::printf("  shared kernel heap | %-16s | %9d / %-5d | %d\n",
              heap.hog_failures > 0 ? "yes (pool empty)" : "no", heap.victim_heartbeats,
              kRounds, heap.victim_failures);

  std::printf("\nshape: under grants the victim's availability is 100%% no matter what the\n"
              "hog does; under a shared heap the hog's exhaustion becomes the victim's\n"
              "outage — the dependability argument of §2.4.\n");
  return 0;
}
