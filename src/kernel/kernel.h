// ERA: 2
// The Tock kernel core: system call dispatch, the asynchronous main loop, process
// scheduling, interrupt servicing, deferred calls, grants, and the kernel-held
// allow/subscribe machinery of the 2.0 ABI (§2.5, §3.3).
#ifndef TOCK_KERNEL_KERNEL_H_
#define TOCK_KERNEL_KERNEL_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "hw/mcu.h"
#include "hw/timer.h"
#include "kernel/capability.h"
#include "kernel/config.h"
#include "kernel/driver.h"
#include "kernel/process.h"
#include "kernel/sched/cooperative.h"
#include "kernel/sched/mlfq.h"
#include "kernel/sched/priority.h"
#include "kernel/sched/round_robin.h"
#include "kernel/scheduler.h"
#include "kernel/syscall.h"
#include "kernel/trace.h"
#include "util/error.h"
#include "vm/cpu.h"

namespace tock {

class FaultInjector;

// Parameters the loader supplies when creating a process.
struct ProcessCreateInfo {
  std::string name;
  uint32_t flash_start = 0;
  uint32_t flash_size = 0;
  uint32_t entry_point = 0;
  uint32_t min_ram = 4096;  // initial app-accessible size (app break above ram_start)
  // Per-process fault policy; absent means the board-wide default applies.
  std::optional<FaultPolicy> fault_policy;
  // Scheduling priority (0 = highest); absent means SchedulerConfig::default_priority.
  std::optional<uint8_t> priority;
};

class Kernel : public FlashWriteObserver {
 public:
  static constexpr size_t kMaxProcesses = 8;
  static constexpr size_t kMaxDrivers = 24;
  static constexpr size_t kMaxDeferredCalls = 16;

  // RAM reserved at the bottom for the kernel itself (stack/statics on real
  // hardware); process quotas are carved above it.
  static constexpr uint32_t kKernelRamReserve = 32 * 1024;

  Kernel(Mcu* mcu, SysTick* systick, const KernelConfig& config);
  ~Kernel() override;

  const KernelConfig& config() const { return config_; }
  Mcu* mcu() { return mcu_; }

  // ---- Board wiring (trusted initialization) -------------------------------------
  // Registers a syscall driver under `driver_num`. Returns false (registering
  // nothing) on a duplicate number: the old linear table silently shadowed the later
  // registration via scan order, which hid board-wiring bugs.
  bool RegisterDriver(uint32_t driver_num, SyscallDriver* driver);
  void RegisterIrqHandler(unsigned line, InterruptService* service);
  // Allocates one of the per-process grant slots. Requires the memory-allocation
  // capability: only board init may shape the grant layout (§4.4).
  unsigned AllocateGrantId(const MemoryAllocationCapability& cap);

  // ---- Process management (capability-gated, §4.4) -------------------------------
  Process* CreateProcess(const ProcessCreateInfo& info, const ProcessManagementCapability& cap);
  Result<void> StopProcess(ProcessId pid, const ProcessManagementCapability& cap);
  Result<void> RestartProcess(ProcessId pid, const ProcessManagementCapability& cap);
  // Replaces the fault policy of a process. Works on any created slot (including one
  // parked in kRestartPending); generation-checked like the other management calls.
  Result<void> SetFaultPolicy(ProcessId pid, const FaultPolicy& policy,
                              const ProcessManagementCapability& cap);
  // Replaces the scheduling priority of a process (0 = highest; meaningful under
  // the priority policy, advisory elsewhere). Same gating and generation check as
  // SetFaultPolicy: priority is a management decision, not something a process can
  // grant itself.
  Result<void> SetPriority(ProcessId pid, uint8_t priority,
                           const ProcessManagementCapability& cap);

  // Wires the deterministic fault-injection harness in (tests only; nullptr
  // disables). The kernel consults it before each retired instruction and on
  // first-time grant allocations.
  void SetFaultInjector(FaultInjector* injector) { fault_injector_ = injector; }

  // True once a process with a Panic fault policy has faulted: the main loop halts,
  // mirroring a kernel panic on hardware.
  bool panicked() const { return panicked_; }

  // FlashWriteObserver: invalidates any per-process decode cache overlapping a
  // programmed flash range (vm/decode.h). Registered on the MCU bus at construction.
  void OnFlashProgrammed(uint32_t addr, uint32_t len) override;

  // ---- Main loop -----------------------------------------------------------------
  // Runs until `deadline_cycles` of simulated time pass, or the system wedges
  // (nothing runnable, no pending hardware event). Holding the MainLoopCapability is
  // required: the loop reconfigures the MPU and executes untrusted code.
  void MainLoop(uint64_t deadline_cycles, const MainLoopCapability& cap);
  // One scheduling pass; returns false when the system is wedged. `deadline_cycles`
  // bounds how far an idle sleep may fast-forward the clock (multi-board lockstep).
  // This is the only sleep path: a sleep cut short by the deadline stays open, and
  // the next pass continues it (kernel/trace.h, RecordSleep).
  bool MainLoopStep(const MainLoopCapability& cap, uint64_t deadline_cycles = UINT64_MAX);
  // True when a main-loop pass started now would do more than sleep: an
  // interrupt or deferred call is pending, or a process is schedulable. A halted
  // (panicked) kernel has no work. The fleet calendar (board/fleet.h) reads it to
  // decide whether a board is due now or only at its next hardware event.
  bool HasWork() const;

  // ---- Capsule services (safe API surface, §2.2) ----------------------------------
  // Schedules an upcall for (driver, sub). Returns kInvalid for a dead process; a
  // null or missing subscription drops the upcall successfully (Tock semantics).
  Result<void> ScheduleUpcall(ProcessId pid, uint32_t driver, uint32_t sub, uint32_t arg0,
                              uint32_t arg1, uint32_t arg2);

  // Lends the contents of an allowed read-write buffer to `fn` as a span, after
  // liveness + generation checks. The span must not escape `fn` — this is the
  // closure-scoped access of §3.3.2 (and what makes the page-straddle bounce copy
  // below sound: nobody can observe the buffer mid-closure). Returns kInvalid if
  // no such buffer.
  template <typename Fn>
  Result<void> WithReadWriteBuffer(ProcessId pid, uint32_t driver, uint32_t allow_num, Fn&& fn) {
    Process* p = GetLiveProcess(pid);
    if (p == nullptr) {
      return Result<void>(ErrorCode::kInvalid);
    }
    AllowSlot* slot = p->FindAllow(driver, allow_num, /*read_only=*/false);
    if (slot == nullptr || !slot->in_use) {
      return Result<void>(ErrorCode::kInvalid);
    }
    if (uint8_t* direct = mcu_->bus().RamWritePtr(slot->addr, slot->len)) {
      fn(std::span<uint8_t>(direct, slot->len));
    } else {
      // The buffer straddles a 4 KiB page line: lend a bounce copy and write the
      // closure's edits back through the bus.
      std::vector<uint8_t> bounce(slot->len);
      mcu_->bus().ReadBlock(slot->addr, bounce.data(), slot->len);
      fn(std::span<uint8_t>(bounce.data(), bounce.size()));
      mcu_->bus().WriteBlock(slot->addr, bounce.data(), slot->len);
    }
    return Result<void>::Ok();
  }

  template <typename Fn>
  Result<void> WithReadOnlyBuffer(ProcessId pid, uint32_t driver, uint32_t allow_num, Fn&& fn) {
    Process* p = GetLiveProcess(pid);
    if (p == nullptr) {
      return Result<void>(ErrorCode::kInvalid);
    }
    AllowSlot* slot = p->FindAllow(driver, allow_num, /*read_only=*/true);
    if (slot == nullptr || !slot->in_use) {
      return Result<void>(ErrorCode::kInvalid);
    }
    if (const uint8_t* direct = mcu_->bus().MemReadPtr(slot->addr, slot->len)) {
      fn(std::span<const uint8_t>(direct, slot->len));
    } else {
      std::vector<uint8_t> bounce(slot->len);
      mcu_->bus().ReadBlock(slot->addr, bounce.data(), slot->len);
      fn(std::span<const uint8_t>(bounce.data(), bounce.size()));
    }
    return Result<void>::Ok();
  }

  bool IsAlive(ProcessId pid) const;

  // Grant entry: resolves the simulated address of the grant allocation for
  // (pid, grant_id), allocating `size` bytes from the process's own RAM quota on
  // first entry (`*first_time` reports whether initialization is needed). 0 = dead
  // process or quota exhausted. Used via the typed Grant<T> wrapper
  // (kernel/grant.h), which materializes the bytes through WithRamBytes.
  uint32_t GrantEnterResolve(ProcessId pid, unsigned grant_id, uint32_t size, uint32_t align,
                             bool* first_time);

  // Lends `len` bytes of simulated RAM at `addr` to `fn` as a host pointer —
  // direct when the range is page-contiguous, else a bounce copy written back
  // after the closure returns (grant allocations can straddle page lines). The
  // pointer must not escape `fn`. The bounce buffer is max_align-aligned so
  // placement-new of any grant type is valid either way.
  template <typename Fn>
  void WithRamBytes(uint32_t addr, uint32_t len, Fn&& fn) {
    if (uint8_t* direct = mcu_->bus().RamWritePtr(addr, len)) {
      fn(direct);
      return;
    }
    std::vector<std::max_align_t> bounce(
        (len + sizeof(std::max_align_t) - 1) / sizeof(std::max_align_t));
    uint8_t* bytes = reinterpret_cast<uint8_t*>(bounce.data());
    mcu_->bus().ReadBlock(addr, bytes, len);
    fn(bytes);
    mcu_->bus().WriteBlock(addr, bytes, len);
  }

  // Deferred calls (§2.5): capsules register once, then set the flag to be called
  // back from the main loop outside any interrupt context.
  int RegisterDeferredCall(DeferredCallClient* client);
  void SetDeferredCall(int handle);

  // ---- Introspection (process console, tests, experiments) ------------------------
  Process* process(size_t index) {
    return index < kMaxProcesses ? &processes_[index] : nullptr;
  }
  const Process* process(size_t index) const {
    return index < kMaxProcesses ? &processes_[index] : nullptr;
  }
  Process* GetLiveProcess(ProcessId pid);
  size_t NumLiveProcesses() const;

  // The kernel's event counters and trace ring (kernel/trace.h). `stats()` is what
  // experiments and the process console consume; the legacy total_* accessors
  // forward into it so existing callers keep working.
  const KernelStats& stats() const { return trace_.stats(); }
  const KernelTrace& trace() const { return trace_; }
  // Attaches the live telemetry publisher (kernel/telemetry.h) to the trace
  // hook. Board wiring only.
  void SetTelemetrySink(TelemetrySink* sink) { trace_.SetTelemetrySink(sink); }
  // The active scheduling policy and the scheduler itself (tests assert
  // policy-specific internals, e.g. the MLFQ boost counter).
  SchedulerPolicy scheduler_policy() const { return scheduler_->policy(); }
  const Scheduler& scheduler() const { return *scheduler_; }
  // Assembles the per-process profiling row (kernel/cycle_accounting.h): attribution
  // snapshot fields plus the PCB's own lifetime counters. All-zero for a bad index;
  // with tracing compiled out only the PCB-backed fields are populated.
  ProcStats GetProcStats(size_t index) const;
  // Simulated instructions retired by the VM across all processes — the numerator
  // of the hot-path throughput bench (host wall time is the denominator).
  uint64_t instructions_retired() const { return cpu_.instructions_retired(); }
  uint64_t total_syscalls() const { return stats().SyscallsTotal(); }
  uint64_t total_context_switches() const { return stats().context_switches; }
  uint64_t total_upcalls() const { return stats().upcalls_queued; }
  uint64_t dropped_upcalls() const { return stats().upcalls_dropped; }

  // TRUSTED-BEGIN(process memory translation): converts a validated simulated RAM
  // address into a host pointer. Every caller must have bounds-checked the range
  // against the owning process's layout first. With paged backing the pointer is
  // only valid within the containing 4 KiB page — multi-page ranges must go
  // through WithRamBytes / the With*Buffer lenders, which bounce when needed.
  uint8_t* TranslateRam(uint32_t addr);
  const uint8_t* TranslateMem(uint32_t addr);  // RAM or flash (read-only allows)
  // TRUSTED-END

 private:
  struct DriverEntry {
    uint32_t num = 0;
    SyscallDriver* driver = nullptr;
  };

  // Open-addressed flat map over driver numbers (linear probing, power-of-two
  // table). Driver numbers are sparse 32-bit values (0x0 .. 0xA0001), so the old
  // linear scan cost O(registered drivers) on every command/subscribe/allow trap.
  // The table is sized ~2.7x kMaxDrivers, mappings are immutable once registered
  // (duplicates are rejected), and `driver == nullptr` marks an empty slot — driver
  // number 0 is real (kAlarm). Immutability is also what makes the one-entry
  // last-driver cache in LookupDriver safe: a cached hit can never go stale.
  static constexpr size_t kDriverTableSize = 64;
  static_assert((kDriverTableSize & (kDriverTableSize - 1)) == 0,
                "probe wraparound relies on a power-of-two table");
  static_assert(kDriverTableSize > kMaxDrivers,
                "a full table would turn lookup misses into infinite probes");
  static size_t DriverSlot(uint32_t driver_num) {
    // Knuth multiplicative hash; top bits index the 64-entry table.
    return (driver_num * 2654435761u) >> 26;
  }

  SyscallDriver* LookupDriver(uint32_t driver_num);

  // One decide-run-report scheduling round through the active policy
  // (kernel/scheduler.h). Returns false when no process was schedulable.
  bool RunOneProcess(uint64_t deadline_cycles);

  // Runs one process until it blocks, faults, exits, exhausts its timeslice
  // (absent = cooperative: SysTick stays disarmed), or the simulation deadline
  // passes (a cooperative process with no pending hardware events would otherwise
  // run unboundedly — fine on silicon, not in a simulator). The returned reason is
  // the scheduler feedback (MLFQ demotes on kTimesliceExpired).
  StoppedReason ExecuteProcess(Process& p, uint64_t deadline_cycles,
                               std::optional<uint32_t> timeslice_cycles);
  void ConfigureMpuFor(const Process& p);
  void InitProcessContext(Process& p);

  // Syscall handling. Returns true if the process should keep running.
  bool HandleSyscall(Process& p);
  SyscallReturn HandleSubscribe(Process& p, const Syscall& call);
  SyscallReturn HandleAllow(Process& p, const Syscall& call, bool read_only);
  SyscallReturn HandleMemop(Process& p, const Syscall& call);
  bool HandleYield(Process& p, const Syscall& call);
  bool HandleBlockingCommand(Process& p, const Syscall& call);

  // Upcall machinery.
  bool TryDeliverQueuedUpcall(Process& p);
  void InvokeUpcallHandler(Process& p, const QueuedUpcall& upcall, uint32_t fn,
                           uint32_t userdata);
  void DeliverDirectReturn(Process& p, const QueuedUpcall& upcall);

  // Frees a process's decode/block tables (the lazy-allocation counterpart of the
  // first-dispatch Configure in ExecuteProcess) and settles the vm_cache_bytes
  // gauge and vm.blocks_invalidated counter. Called at every life-end transition
  // (terminal exit/fault/stop and all three restart paths) *before*
  // ResetForRestart so the stats see the tables while they still exist.
  void ReleaseVmCache(Process& p);

  // Applies the process's fault policy: panic, park it terminally, or schedule a
  // deferred backoff restart. `fault` is the cause recorded for diagnostics.
  void FaultProcess(Process& p, const VmFault& fault);
  // Restart channel handler: brings slot `index`'s kRestartPending process back to
  // life. The channel is armed only in that state; Stop and Restart disarm it.
  void ReviveProcess(uint32_t index);
  // Exponential backoff for the *next* restart: base << (restart_count - 1), capped.
  uint64_t BackoffDelay(const Process& p) const;
  void ServiceInterrupts();
  bool RunDeferredCalls();

  Mcu* mcu_;
  SysTick* systick_;
  KernelConfig config_;
  Cpu cpu_;

  std::array<Process, kMaxProcesses> processes_;
  std::array<SimClock::Channel, kMaxProcesses> restart_;  // one backoff per slot
  size_t num_created_processes_ = 0;
  uint8_t mpu_configured_for_ = 0xFF;  // process index currently mapped by the MPU

  // All four policies are board-composable; the kernel embeds them (heapless — no
  // dynamic allocation) and points scheduler_ at the one the config selects.
  // Declared after processes_: each holds a span over the table.
  RoundRobinScheduler sched_round_robin_{processes_, config_};
  CooperativeScheduler sched_cooperative_{processes_, config_};
  PriorityScheduler sched_priority_{processes_, config_};
  MlfqScheduler sched_mlfq_{processes_, config_};
  Scheduler* scheduler_ = &sched_round_robin_;

  std::array<DriverEntry, kDriverTableSize> drivers_{};
  size_t num_drivers_ = 0;
  // One-entry lookup cache: syscall-heavy apps overwhelmingly hit one driver
  // repeatedly (the command/yield loop shape of §3.2).
  uint32_t last_driver_num_ = 0;
  SyscallDriver* last_driver_ = nullptr;

  std::array<InterruptService*, InterruptController::kNumLines> irq_handlers_{};

  struct DeferredEntry {
    DeferredCallClient* client = nullptr;
    bool pending = false;
  };
  std::array<DeferredEntry, kMaxDeferredCalls> deferred_{};
  size_t num_deferred_ = 0;

  unsigned next_grant_id_ = 0;

  FaultInjector* fault_injector_ = nullptr;
  bool panicked_ = false;

  KernelTrace trace_;
};

}  // namespace tock

#endif  // TOCK_KERNEL_KERNEL_H_
