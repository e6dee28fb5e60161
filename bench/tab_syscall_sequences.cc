// Experiment E3 (§3.2): the cost of the asynchronous system call sequence, and why
// Ti50 forked to add a blocking command.
//
// The same logical operation — sample the temperature synchronously — three ways:
//   (a) classic async: subscribe + command + yield-wait + unsubscribe (4 traps, the
//       sequence the paper says Ti50 collapsed)
//   (b) yield-wait-for: command + yield-wait-for (2 traps, mainline's eventual fix)
//   (c) blocking command: 1 trap (the Ti50 fork, enable_blocking_command)
//
// Expected shape: (c) ~ 1/4 the traps of (a) and fewest cycles; (b) in between.
#include <cstdio>
#include <string>

#include "board/sim_board.h"

namespace {

struct Variant {
  const char* name;
  const char* source;
  bool needs_blocking;
};

constexpr int kIterations = 200;

// Each app samples the temperature kIterations times then exits. s1 = loop counter.
const char* kClassicAsync = R"(
_start:
    li s1, 200
loop:
    # subscribe(temp, 0, handler, 0)
    li a0, 0x60000
    li a1, 0
    la a2, handler
    li a3, 0
    li a4, 1
    ecall
    # command(temp, 1 = sample)
    li a0, 0x60000
    li a1, 1
    li a2, 0
    li a3, 0
    li a4, 2
    ecall
    # yield-wait (runs handler)
    li a0, 1
    li a4, 0
    ecall
    # unsubscribe (null upcall)
    li a0, 0x60000
    li a1, 0
    li a2, 0
    li a3, 0
    li a4, 1
    ecall
    addi s1, s1, -1
    bnez s1, loop
    li a0, 0
    li a4, 6
    ecall
handler:
    mv s2, a0          # stash the reading
    jr ra
)";

const char* kYieldWaitFor = R"(
_start:
    li s1, 200
loop:
    # command(temp, 1 = sample)
    li a0, 0x60000
    li a1, 1
    li a2, 0
    li a3, 0
    li a4, 2
    ecall
    # yield-wait-for(temp, 0) -> values in registers, no handler
    li a0, 2
    li a1, 0x60000
    li a2, 0
    li a4, 0
    ecall
    mv s2, a1
    addi s1, s1, -1
    bnez s1, loop
    li a0, 0
    li a4, 6
    ecall
)";

const char* kBlockingCommand = R"(
_start:
    li s1, 200
loop:
    # blocking_command(temp, 1 = sample, 0, completion sub 0)
    li a0, 0x60000
    li a1, 1
    li a2, 0
    li a3, 0
    li a4, 7
    ecall
    mv s2, a1
    addi s1, s1, -1
    bnez s1, loop
    li a0, 0
    li a4, 6
    ecall
)";

struct RunResult {
  uint64_t syscalls;
  uint64_t cycles;
  uint64_t upcalls;
  bool completed;
};

RunResult RunVariant(const Variant& variant) {
  tock::BoardConfig config;
  config.kernel.enable_blocking_command = variant.needs_blocking;
  // Golden-locked table (tests/golden/): ignore the TOCK_SCHED_POLICY override.
  config.allow_scheduler_env = false;
  tock::SimBoard board(config);
  tock::AppSpec app;
  app.name = variant.name;
  app.source = variant.source;
  app.include_runtime = false;
  if (board.installer().Install(app) == 0 || board.Boot() != 1) {
    std::fprintf(stderr, "%s: setup failed: %s\n", variant.name,
                 board.installer().error().c_str());
    return {};
  }
  uint64_t start = board.mcu().CyclesNow();
  tock::Process& p = *board.kernel().process(0);
  // Step until the app finishes so the cycle count covers exactly the workload.
  while (p.state != tock::ProcessState::kTerminated &&
         board.mcu().CyclesNow() < start + 200'000'000) {
    if (!board.kernel().MainLoopStep(board.main_cap(), start + 200'000'000)) {
      break;
    }
  }
  // Trap and upcall counts come from the kernel's own counters (kernel/trace.h),
  // not from per-process bookkeeping the bench would have to maintain itself.
  const tock::KernelStats& stats = board.kernel().stats();
  return RunResult{stats.SyscallsTotal(), board.mcu().CyclesNow() - start,
                   stats.upcalls_delivered,
                   p.state == tock::ProcessState::kTerminated};
}

}  // namespace

int main() {
  const Variant kVariants[] = {
      {"async-4-call (subscribe/command/yield/unsubscribe)", kClassicAsync, false},
      {"yield-wait-for (TRD104 variant)", kYieldWaitFor, false},
      {"blocking command (Ti50 fork)", kBlockingCommand, true},
  };

  std::printf("==== E3 (Table, §3.2): synchronous-operation cost, %d temperature reads ====\n\n",
              kIterations);
  std::printf("  %-52s %9s %12s %9s %8s\n", "variant", "traps/op", "cycles/op", "upcalls",
              "done");
  std::printf("  %-52s %9s %12s %9s %8s\n", "-------", "--------", "---------", "-------",
              "----");

  double baseline_cycles = 0;
  for (const Variant& variant : kVariants) {
    RunResult result = RunVariant(variant);
    double traps_per_op =
        static_cast<double>(result.syscalls - 1) / kIterations;  // -1 for exit
    double cycles_per_op = static_cast<double>(result.cycles) / kIterations;
    if (baseline_cycles == 0) {
      baseline_cycles = cycles_per_op;
    }
    std::printf("  %-52s %9.2f %12.0f %9llu %8s\n", variant.name, traps_per_op, cycles_per_op,
                (unsigned long long)result.upcalls, result.completed ? "yes" : "NO");
  }
  std::printf("\nshape: blocking command collapses 4 traps to 1 and skips the upcall\n"
              "machinery entirely; yield-wait-for lands in between — matching the\n"
              "trade-off the paper describes for Ti50's fork and Tock's later fix.\n");
  return 0;
}
