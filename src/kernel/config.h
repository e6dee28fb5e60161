// ERA: 2
// Compile-time-style kernel configuration. The paper describes several alternatives
// that coexist behind configuration: the synchronous vs. asynchronous process loader
// (§3.4), the v1 vs. v2 allow/subscribe semantics (§3.3, kept so experiment E6 can
// demonstrate why v1 was unsound), the Ti50-style blocking command extension (§3.2),
// and the fault-response policy.
#ifndef TOCK_KERNEL_CONFIG_H_
#define TOCK_KERNEL_CONFIG_H_

#include <array>
#include <cstddef>
#include <cstdint>

// Compile-time gate for the kernel trace/counters subsystem (kernel/trace.h). When
// defined to 0 (CMake: -DTOCK_TRACE=OFF) every record call collapses to an empty
// inline and the subsystem compiles away entirely — the trace layer must cost
// nothing on builds that do not want observability.
#ifndef TOCK_TRACE_ENABLED
#define TOCK_TRACE_ENABLED 1
#endif

namespace tock {

enum class SyscallAbiVersion {
  kV1,  // original semantics: capsules take ownership of allowed buffers (unsound)
  kV2,  // Tock 2.0 swapping semantics: the kernel holds allow/subscribe slots
};

enum class LoaderMode {
  kSynchronous,  // single pass over headers, structural checks only
  kAsynchronous, // multi-step state machine with cryptographic verification (§3.4)
};

// What the kernel does when a process hits an MPU violation, illegal instruction,
// or other unrecoverable error (§2.3). Policies are per process: each Process
// carries its own FaultPolicy, seeded from KernelConfig::default_fault_policy at
// creation and overridable through Kernel::SetFaultPolicy (capability-gated).
enum class FaultAction : uint8_t {
  kPanic,    // halt the whole kernel: debug builds where a fault means "stop the world"
  kStop,     // mark the process Faulted and never run it again
  kRestart,  // reclaim its state and revive it after a deferred, growing backoff
};

struct FaultPolicy {
  FaultAction action = FaultAction::kStop;

  // kRestart knobs. A crash-looping process restarts at most `max_restarts` times;
  // each revival is deferred by backoff_base_cycles << (restart number - 1), capped
  // at backoff_cap_cycles, and scheduled through the MCU clock so the faulting app
  // yields the CPU to its peers between lives instead of restarting for free.
  uint32_t max_restarts = 8;
  uint32_t backoff_base_cycles = 20'000;
  uint32_t backoff_cap_cycles = 1'000'000;

  static constexpr FaultPolicy Panic() { return FaultPolicy{FaultAction::kPanic, 0, 0, 0}; }
  static constexpr FaultPolicy Stop() { return FaultPolicy{FaultAction::kStop, 0, 0, 0}; }
  static constexpr FaultPolicy Restart(uint32_t max_restarts = 8,
                                       uint32_t backoff_base_cycles = 20'000,
                                       uint32_t backoff_cap_cycles = 1'000'000) {
    return FaultPolicy{FaultAction::kRestart, max_restarts, backoff_base_cycles,
                       backoff_cap_cycles};
  }
};

const char* FaultActionName(FaultAction action);

// Which scheduling policy the board composes into the kernel (kernel/scheduler.h).
// The Tock 2.0 redesign made this a board decision rather than a kernel constant;
// every policy is heapless and cycle-deterministic, so golden traces stay valid as
// long as the board keeps the default.
enum class SchedulerPolicy : uint8_t {
  kRoundRobin,   // seed behavior: cursor scan, fixed timeslice (the golden policy)
  kCooperative,  // same rotation, but no SysTick preemption: processes run to yield
  kPriority,     // strict priority (0 = highest), round-robin among equals
  kMlfq,         // multi-level feedback queue with periodic priority boost
};

const char* SchedulerPolicyName(SchedulerPolicy policy);

struct SchedulerConfig {
  static constexpr size_t kMlfqLevels = 3;

  SchedulerPolicy policy = SchedulerPolicy::kRoundRobin;

  // Priority a process is born with under kPriority/kMlfq when its creator does not
  // say otherwise (Kernel::SetPriority overrides per process). Mid-range so boards
  // can both raise and lower without renumbering.
  uint8_t default_priority = 4;

  // MLFQ knobs. A process at level L runs for timeslice_cycles *
  // mlfq_quantum_multiplier[L]; expiring the quantum demotes it one level. Every
  // mlfq_boost_period_cycles of MCU time, all processes are boosted back to level 0
  // so a demoted CPU-bound process cannot be starved forever (§2.3's guarantee that
  // every process keeps running).
  std::array<uint32_t, kMlfqLevels> mlfq_quantum_multiplier{1, 2, 4};
  uint64_t mlfq_boost_period_cycles = 1'000'000;
};

// Knobs for the per-board live telemetry publisher (kernel/telemetry.h). All
// periods are in *simulated* cycles so publishing decisions are deterministic;
// publishing itself is pure host-side work and never arms clock events or
// changes cycle accounting.
struct TelemetryConfig {
  // How often (at most) a ProcStats/KernelStats snapshot is published into the
  // shm region. Snapshots piggyback on trace events and epoch barriers — no
  // timer is armed for them. 0 = only the final snapshot at board teardown.
  uint64_t snapshot_period_cycles = 100'000;
};

struct KernelConfig {
  SyscallAbiVersion abi = SyscallAbiVersion::kV2;
  LoaderMode loader = LoaderMode::kSynchronous;
  FaultPolicy default_fault_policy = FaultPolicy::Stop();

  // Ti50's downstream extension: a single system call that performs
  // subscribe+command+yield-wait+unsubscribe in one trap (§3.2). Off by default,
  // as in mainline Tock.
  bool enable_blocking_command = false;

  // Process scheduling quantum in cycles (SysTick reload value).
  uint32_t timeslice_cycles = 10000;

  // Scheduling policy and its per-policy knobs (kernel/scheduler.h).
  SchedulerConfig scheduler;

  // RAM quota handed to each process (covers app-accessible memory + grants).
  uint32_t process_ram_quota = 12 * 1024;

  // For E7: reject read-write allows that overlap an existing allowed buffer of the
  // same process instead of accepting them with cell semantics (§5.1.1). The paper
  // deems this overhead unreasonable; it exists so the cost can be measured.
  bool check_allow_overlap = false;

  // Whether the kernel records counters and trace events at its dispatch points
  // (kernel/trace.h). Resolved at compile time so a false value removes the record
  // calls from every hot path rather than testing a flag on each one.
  static constexpr bool trace_enabled = TOCK_TRACE_ENABLED != 0;

  // Live telemetry publisher knobs (kernel/telemetry.h), consumed by the sink a
  // board attaches (BoardConfig::telemetry).
  TelemetryConfig telemetry;
};

}  // namespace tock

#endif  // TOCK_KERNEL_CONFIG_H_
