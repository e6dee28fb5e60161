// ERA: 1
// The process control block (§2.3, §2.4).
//
// A process owns: a region of flash holding its (untrusted) binary, a fixed quota of
// RAM, and nothing else. Everything the kernel must remember on its behalf — allow
// slots, subscriptions, queued upcalls, grant allocations — lives either in this
// fixed-size PCB or *inside the process's own RAM quota* (grants), so a greedy or
// malicious process can only ever exhaust itself (§2.4).
#ifndef TOCK_KERNEL_PROCESS_H_
#define TOCK_KERNEL_PROCESS_H_

#include <array>
#include <cstdint>
#include <string>

#include "kernel/config.h"
#include "kernel/syscall.h"
#include "util/ring_buffer.h"
#include "util/static_vec.h"
#include "vm/cpu.h"
#include "vm/decode.h"

namespace tock {

// Identifies a process slot *and* its incarnation. Capsules hold ProcessIds, never
// pointers; the generation check is how the kernel guarantees that state belonging
// to a dead process can never be touched through a stale identifier (the liveness
// check behind every Allow access, §5.1).
struct ProcessId {
  uint8_t index = 0xFF;
  uint32_t generation = 0;

  bool operator==(const ProcessId& other) const = default;
  bool IsValid() const { return index != 0xFF; }
};

enum class ProcessState {
  kUnstarted,       // loaded and verified, not yet run
  kRunnable,        // has work to do (or is mid-timeslice)
  kYielded,         // blocked in yield-wait until any upcall arrives
  kYieldedFor,      // blocked in yield-wait-for / blocking-command on one upcall
  kFaulted,         // faulted terminally (Stop/Panic policy, or restart budget spent)
  kRestartPending,  // faulted under a Restart policy; state already reclaimed, the
                    // revival is scheduled on the MCU clock after a growing backoff
  kTerminated,      // exited (or was stopped); slot reusable after Reset
};

const char* ProcessStateName(ProcessState state);

// One kernel-held allowed-buffer slot (Tock 2.0 swapping semantics, §3.3.2). The
// kernel owns these; capsules only ever see the contents through short-lived spans
// inside closures.
struct AllowSlot {
  bool in_use = false;
  bool read_only = false;
  uint32_t driver = 0;
  uint32_t allow_num = 0;
  uint32_t addr = 0;
  uint32_t len = 0;
};

// One kernel-held subscription slot.
struct SubscribeSlot {
  bool in_use = false;
  uint32_t driver = 0;
  uint32_t sub_num = 0;
  uint32_t fn = 0;        // 0 = the null upcall
  uint32_t userdata = 0;
};

// A queued upcall: function pointer resolved at delivery time from the subscription
// table, so re-subscribing scrubs stale queue entries instead of firing old handlers.
struct QueuedUpcall {
  uint32_t driver = 0;
  uint32_t sub_num = 0;
  uint32_t args[3] = {0, 0, 0};
  // Cycle stamp of the IRQ (or scheduling point) that caused this upcall; the
  // profiling layer uses it for the IRQ-to-delivery latency histogram. 0 = unstamped
  // (e.g. trace disabled).
  uint64_t origin_cycle = 0;
};

struct ProcessFaultInfo {
  VmFault vm_fault;
  uint64_t at_cycle = 0;
};

class Process {
 public:
  static constexpr size_t kMaxAllowSlots = 16;
  static constexpr size_t kMaxSubscribeSlots = 16;
  static constexpr size_t kMaxGrants = 8;
  static constexpr size_t kUpcallQueueDepth = 16;
  static constexpr size_t kMaxUpcallNesting = 4;

  // --- Identity & layout (set by the loader) ---
  ProcessId id;
  std::string name;
  uint32_t flash_start = 0;  // app region in flash (TBF header at this address)
  uint32_t flash_size = 0;
  uint32_t entry_point = 0;  // absolute address of _start
  uint32_t ram_start = 0;    // base of this process's RAM quota
  uint32_t ram_size = 0;     // quota size
  uint32_t app_break = 0;    // [ram_start, app_break) is app-accessible (MPU RW)
  uint32_t grant_break = 0;  // (grant_break, ram_start+ram_size] holds grants
  uint32_t initial_break = 0;  // app_break value at load time (restored on restart)

  // --- Execution state ---
  ProcessState state = ProcessState::kTerminated;
  CpuContext ctx;
  // Predecoded instructions for this process's flash window (vm/decode.h). Sized by
  // the kernel at creation when the decode cache is enabled, left empty otherwise;
  // invalidated on restart and on flash reprogramming that overlaps the window.
  DecodeCache decode_cache;
  StaticVec<CpuContext, kMaxUpcallNesting> saved_contexts;  // upcall nesting stack
  // For kYieldedFor: which upcall unblocks us.
  uint32_t wait_driver = 0;
  uint32_t wait_sub = 0;
  bool blocking_command_wait = false;  // kYieldedFor came from kBlockingCommand
  uint32_t yield_flag_pending = 0;     // a0 to write when a no-wait/wait yield resumes

  // Most recent fault of the *current incarnation chain*: ResetForRestart clears it,
  // and the fault path re-records the fault that ended the previous life so the
  // process console's `faults` command can show why a process is backing off.
  ProcessFaultInfo fault_info;
  uint32_t completion_code = 0;
  uint32_t restart_count = 0;

  // Per-process fault disposition (§2.3). Seeded from the kernel config's default at
  // creation; the board or a privileged capsule may override it per process.
  FaultPolicy fault_policy;

  // --- Scheduler state (kernel/scheduler.h) ---
  // `priority` is configuration, like fault_policy: seeded from
  // SchedulerConfig::default_priority at creation, overridden via the
  // capability-gated Kernel::SetPriority, and deliberately NOT cleared by
  // ResetForRestart — a restarted process keeps the importance its board assigned.
  // queue_level and sched_stamp are incarnation-local policy state (MLFQ demotion
  // level, last-dispatch stamp) and ARE cleared on restart: a revived process starts
  // its next life undemoted, exactly like its fault diagnostics start clean.
  uint8_t priority = 4;
  uint32_t queue_level = 0;
  uint64_t sched_stamp = 0;
  // While kRestartPending: the cycle the kernel's restart channel revives us at.
  uint64_t restart_due_cycle = 0;

  // --- Kernel-held syscall state ---
  std::array<AllowSlot, kMaxAllowSlots> allow_slots;
  std::array<SubscribeSlot, kMaxSubscribeSlots> subscribe_slots;
  RingBuffer<QueuedUpcall, kUpcallQueueDepth> upcall_queue;
  std::array<uint32_t, kMaxGrants> grant_ptrs{};  // 0 = not yet allocated

  // --- Statistics (process console / experiments) ---
  uint64_t syscall_count = 0;
  uint64_t upcalls_delivered = 0;
  uint64_t timeslice_expirations = 0;
  uint64_t context_switches = 0;        // times the MPU was switched onto this process
  uint64_t grant_bytes_allocated = 0;   // lifetime total (monotonic across restarts)
  uint64_t grant_bytes_live = 0;        // this incarnation's live grant bytes
  uint32_t grant_regions_live = 0;      // how many grant_ptrs are allocated

  // A restart-pending process is *between lives*: its dynamic kernel state has been
  // reclaimed and its generation bumped, so capsules must treat it as dead until the
  // revival actually happens.
  bool IsAlive() const {
    return state != ProcessState::kTerminated && state != ProcessState::kFaulted &&
           state != ProcessState::kRestartPending;
  }

  // Looks up a slot, returning nullptr when absent.
  AllowSlot* FindAllow(uint32_t driver, uint32_t allow_num, bool read_only);
  SubscribeSlot* FindSubscribe(uint32_t driver, uint32_t sub_num);

  // Removes every queued upcall for (driver, sub_num) — the §3.3.2 scrub that keeps
  // a swapped-out upcall function from ever firing. Returns how many were removed,
  // so the kernel can account for them (kernel/trace.h).
  size_t ScrubUpcalls(uint32_t driver, uint32_t sub_num);

  // Finds-or-creates; returns nullptr when the fixed table is full (the process has
  // hit its own resource bound — no other process is affected).
  AllowSlot* FindOrCreateAllow(uint32_t driver, uint32_t allow_num, bool read_only);
  SubscribeSlot* FindOrCreateSubscribe(uint32_t driver, uint32_t sub_num);

  // Grant bump allocator: carves `size` bytes (aligned) off the top of the RAM quota,
  // growing down toward app_break. Returns 0 on exhaustion.
  uint32_t AllocateGrantMemory(uint32_t size, uint32_t align);

  // memop brk/sbrk support. The break may grow up to the grant break.
  bool SetBreak(uint32_t new_break);

  // True if [addr, addr+len) lies entirely in app-accessible RAM.
  bool InAccessibleRam(uint32_t addr, uint32_t len) const;
  // True if [addr, addr+len) lies in this app's flash region (read-only allows of
  // keys stored in flash, §3.3.3).
  bool InOwnFlash(uint32_t addr, uint32_t len) const;

  // Clears all transient state for restart or reuse (including the previous life's
  // fault record and timeslice-expiration count); bumps the generation.
  void ResetForRestart();
};

}  // namespace tock

#endif  // TOCK_KERNEL_PROCESS_H_
