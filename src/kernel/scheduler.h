// ERA: 2
// The pluggable scheduler layer (§2.3). The Tock 2.0 redesign turned scheduling
// from a loop hardcoded in the kernel into a board-selectable component: the kernel
// main loop asks the scheduler *which* process to run and *how long* its quantum
// is, runs it, and reports back *why* it stopped. Policy lives entirely behind this
// interface; mechanism (context switching, MPU, SysTick arming, fault handling)
// stays in kernel.cc.
//
// Everything here is heapless: schedulers look directly at the kernel's fixed
// process table through a span and keep only O(1) or O(kMaxProcesses) state of
// their own. All four implementations (kernel/sched/) are cycle-deterministic —
// identical runs make identical decisions — which is what keeps the golden-trace
// tests meaningful under the default policy.
#ifndef TOCK_KERNEL_SCHEDULER_H_
#define TOCK_KERNEL_SCHEDULER_H_

#include <cstdint>
#include <optional>
#include <span>

#include "kernel/config.h"
#include "kernel/process.h"

namespace tock {

// What the kernel's execution of a process ended with. The scheduler uses this to
// update its own bookkeeping (e.g. MLFQ demotes on kTimesliceExpired); the kernel
// reports it truthfully and otherwise does not care.
enum class StoppedReason : uint8_t {
  kBlocked,           // yielded-wait/-for with nothing deliverable, or stayed yielded
  kExited,            // the process exited or faulted; its slot is no longer runnable
  kTimesliceExpired,  // the SysTick quantum fired (preemption)
  kPreempted,         // stopped early for other pending hardware interrupts
  kDeadline,          // the simulation deadline passed (simulator artifact, ignored)
};

// One scheduling decision: run `process` for `timeslice_cycles`, or — when the
// timeslice is absent — cooperatively, with the SysTick disarmed, until the process
// blocks of its own accord.
struct SchedulingDecision {
  Process* process = nullptr;
  std::optional<uint32_t> timeslice_cycles;
};

// The schedulability predicate every policy must honor: only a created slot that is
// unstarted, runnable, or yielded with a deliverable upcall may be picked. Faulted,
// restart-pending, and terminated processes are never schedulable (the regression
// test in tests/scheduler_test.cc holds all policies to this).
inline bool HasDeliverableWork(const Process& p) {
  switch (p.state) {
    case ProcessState::kUnstarted:
    case ProcessState::kRunnable:
      return true;
    case ProcessState::kYielded:
      return !p.upcall_queue.IsEmpty();
    default:
      return false;
  }
}

inline bool IsSchedulable(const Process& p) {
  return p.id.IsValid() && HasDeliverableWork(p);
}

class Scheduler {
 public:
  Scheduler(std::span<Process> processes, const KernelConfig& config)
      : processes_(processes), config_(&config) {}
  virtual ~Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  virtual SchedulerPolicy policy() const = 0;

  // Picks the next process to run at cycle `now`, or {nullptr} when nothing is
  // schedulable. Called once per main-loop step, after interrupts and deferred
  // calls have been serviced.
  virtual SchedulingDecision Next(uint64_t now) = 0;

  // Feedback after the decided process ran: why it stopped and when. Default: the
  // policy does not care (round-robin, cooperative, strict priority).
  virtual void ExecutionComplete(Process& p, StoppedReason reason, uint64_t now) {
    (void)p;
    (void)reason;
    (void)now;
  }

 protected:
  std::span<Process> processes_;
  const KernelConfig* config_;
};

const char* StoppedReasonName(StoppedReason reason);
// Parses a policy name as printed by SchedulerPolicyName ("round-robin",
// "cooperative", "priority", "mlfq"). Used by SimBoard's TOCK_SCHED_POLICY
// environment override so scripts/check_matrix.sh can sweep the test suite across
// policies without touching board code.
bool SchedulerPolicyFromName(const char* name, SchedulerPolicy* out);

}  // namespace tock

#endif  // TOCK_KERNEL_SCHEDULER_H_
