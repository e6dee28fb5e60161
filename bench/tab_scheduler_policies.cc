// Scheduler-policy experiment (kernel/scheduler.h, kernel/sched/).
//
// Fairness under interrupt pressure, across the four pluggable policies: two
// CPU-bound apps (yield-no-wait spin loops) run under a seeded IRQ storm, which
// forces scheduling decision points even for the cooperative policy (an
// interrupt ends the running process's turn without a SysTick). Reported: each
// app's share of attributed user cycles, context switches, and timeslice
// expirations. Round-robin and MLFQ split the CPU near 50/50; the priority
// policy — with app0 deliberately favored — demonstrates strict-priority
// starvation of the spinning loser. Everything printed is simulated, so the
// stdout is golden-locked (tests/golden/).
#include <cstdio>

#include "board/sim_board.h"
#include "hw/memory_map.h"
#include "kernel/scheduler.h"

namespace {

using namespace tock;

const SchedulerPolicy kPolicies[] = {
    SchedulerPolicy::kRoundRobin,
    SchedulerPolicy::kCooperative,
    SchedulerPolicy::kPriority,
    SchedulerPolicy::kMlfq,
};

struct FairnessResult {
  double share0 = 0.0;  // app0's fraction of attributed user cycles (0..1)
  double share1 = 0.0;
  uint64_t context_switches = 0;
  uint64_t timeslice_expirations = 0;
  uint64_t irqs = 0;
};

FairnessResult MeasureFairness(SchedulerPolicy policy) {
  BoardConfig config;
  config.kernel.scheduler.policy = policy;
  config.allow_scheduler_env = false;
  SimBoard board(config);
  // Two identical CPU-bound spinners: one yield-no-wait syscall per iteration,
  // never blocking.
  const char* spin = "_start:\nloop:\n    li a0, 0\n    li a4, 0\n    ecall\n    j loop\n";
  for (const char* name : {"app0", "app1"}) {
    AppSpec app;
    app.name = name;
    app.source = spin;
    if (board.installer().Install(app) == 0) {
      std::fprintf(stderr, "install failed: %s\n", board.installer().error().c_str());
      return {};
    }
  }
  if (board.Boot() != 2) {
    return {};
  }
  if (policy == SchedulerPolicy::kPriority) {
    // Favor app0 outright; the fairness table then shows what strict priority
    // does to a spinning loser.
    (void)board.kernel().SetPriority(board.kernel().process(0)->id, 1, board.pm_cap());
    (void)board.kernel().SetPriority(board.kernel().process(1)->id, 6, board.pm_cap());
  }

  // A seeded IRQ storm covering the whole horizon: a pending interrupt ends the
  // running app's turn even when no SysTick is armed (cooperative).
  board.fault_injector().StartIrqStorm(MemoryMap::kGpio, /*period_cycles=*/2'000, /*count=*/2'000);
  board.Run(4'000'000);

  FairnessResult r;
  Process* p0 = board.kernel().process(0);
  Process* p1 = board.kernel().process(1);
  r.context_switches = p0->context_switches + p1->context_switches;
  r.timeslice_expirations = p0->timeslice_expirations + p1->timeslice_expirations;
  r.irqs = board.fault_injector().irqs_injected();
  if (KernelTrace::kEnabled) {
    ProcStats s0 = board.kernel().GetProcStats(0);
    ProcStats s1 = board.kernel().GetProcStats(1);
    uint64_t total = s0.user_cycles + s1.user_cycles;
    if (total > 0) {
      r.share0 = static_cast<double>(s0.user_cycles) / static_cast<double>(total);
      r.share1 = static_cast<double>(s1.user_cycles) / static_cast<double>(total);
    }
  } else {
    // Trace-off builds have no cycle attribution; syscall counts are the
    // always-available progress measure.
    uint64_t total = p0->syscall_count + p1->syscall_count;
    if (total > 0) {
      r.share0 = static_cast<double>(p0->syscall_count) / static_cast<double>(total);
      r.share1 = static_cast<double>(p1->syscall_count) / static_cast<double>(total);
    }
  }
  return r;
}

}  // namespace

int main() {
  std::printf("==== Scheduler policies: fairness under IRQ storm ====\n\n");
  std::printf("  policy      | app0 share | app1 share | ctxsw | tsexp | irqs\n");
  std::printf("  ------------+------------+------------+-------+-------+------\n");
  for (SchedulerPolicy policy : kPolicies) {
    FairnessResult f = MeasureFairness(policy);
    std::printf("  %-11s | %9.1f%% | %9.1f%% | %5llu | %5llu | %llu\n",
                SchedulerPolicyName(policy), f.share0 * 100.0, f.share1 * 100.0,
                (unsigned long long)f.context_switches,
                (unsigned long long)f.timeslice_expirations,
                (unsigned long long)f.irqs);
  }
  std::printf(
      "\nshape: round-robin and MLFQ split two spinners ~50/50 (MLFQ via its periodic\n"
      "boost), cooperative only rotates when the storm forces a decision point, and\n"
      "strict priority starves the disfavored spinner — the policy/fairness trade the\n"
      "pluggable layer exists to let a board choose.\n");
  return 0;
}
