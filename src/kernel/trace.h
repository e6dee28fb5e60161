// ERA: 2
// Deterministic kernel trace & counters (observability for the paper's quantitative
// claims). Every number the experiments report — isolation cost as syscall/context-
// switch counts (§2.2), sleep residency (§2.5, §3.2), allow/subscribe and upcall
// scrub activity (§3.3) — is a count of kernel events, so the kernel counts them
// itself at its dispatch points instead of every bench re-deriving them.
//
// Two layers, both heapless:
//   * KernelStats: monotonic counters, one per event class. Always cheap (an
//     increment), read through Kernel::stats().
//   * an EventRing of cycle-stamped TraceEvents — the last N things the kernel did,
//     dumpable as text. Because the simulator is deterministic, two identical runs
//     produce byte-identical dumps; tests/trace_test.cc locks that in against a
//     golden file.
//
// The whole subsystem is compile-time-gated on KernelConfig::trace_enabled
// (-DTOCK_TRACE=OFF): with the gate off, record calls are empty inlines and the
// layer compiles away.
#ifndef TOCK_KERNEL_TRACE_H_
#define TOCK_KERNEL_TRACE_H_

#include <array>
#include <cstdint>
#include <string>

#include "kernel/config.h"
#include "kernel/cycle_accounting.h"
#include "kernel/syscall.h"
#include "util/event_ring.h"
#include "util/log2_hist.h"
#include "vm/cpu.h"

namespace tock {

// The stat table: one row per kernel counter, X(field, Id, "dotted.name", domain),
// in StatId order. Each row declares a KernelStats field, a StatId (the ABI of
// ProcessInfoDriver command 5 — append-only, userspace bakes the numbers in), the
// name every dump prints, and the counter's domain:
//
//   Sim   counts simulated kernel events. Apps may read it (command 5, the console
//         `stats` line), and the golden surfaces (DumpStats, the exporter's
//         tockStats sidecar) print it.
//   Host  counts host machinery that must stay invisible to the simulation: the
//         live-telemetry transport (kernel/telemetry.h), the interpreter's
//         superblock caches (vm/decode.h), paged board memory (hw/paged_mem.h)
//         and the fleet's unstepped board-epochs (board/fleet.h). These vary with
//         ring sizes, thread timing and the epoch calendar while simulated state
//         does not, so only host surfaces show them: the fleet summary, the
//         telemetry snapshot and `tap`, and fleetbench.
//
// Row notes:
//   syscalls.unknown   traps with an out-of-range class (answered NOSUPPORT).
//   upcalls.*          queued = accepted into a queue; delivered = handler invoked
//                      or consumed as a direct return; scrubbed = removed by a
//                      subscription swap or eviction before delivery; dropped =
//                      lost (queue full, or a null subscription at delivery).
//   grants.*           allocs/bytes count first-time grant entries, frees/
//                      bytes_freed reclamation at death or restart, so bytes -
//                      bytes_freed is the live usage (tests/fault_soak_test.cc).
//   sleep.arg_saturations  sleeps too long for the 32-bit kSleep event arg;
//                      tools/trace_export.cc rebuilds them from sleep.cycles.
//   telemetry.*        records offered to the shm ring (emitted), and overwritten
//                      before any reader could reach them (dropped; exact).
//   telemetry.suppressed  retired: it counted the removed storm suppressor and
//                      now reads 0. The row keeps its id, which AbiDiscovery pins.
//   vm.cache_bytes, mem.resident_bytes  gauges: decode+block table heap, and
//                      committed flash+RAM pages. Accumulate sums them too.
//   fleet.idle_skips   board-epochs the fleet calendar did not step. Counted by
//                      the Fleet, not the kernel: only Fleet::Stats() shows it.
#define TOCK_KERNEL_STATS(X)                                                              \
  X(syscalls_total, SyscallsTotal, "syscalls.total", Sim)                                 \
  X(syscalls_yield, SyscallsYield, "syscalls.yield", Sim)                                 \
  X(syscalls_subscribe, SyscallsSubscribe, "syscalls.subscribe", Sim)                     \
  X(syscalls_command, SyscallsCommand, "syscalls.command", Sim)                           \
  X(syscalls_rw_allow, SyscallsRwAllow, "syscalls.rw_allow", Sim)                         \
  X(syscalls_ro_allow, SyscallsRoAllow, "syscalls.ro_allow", Sim)                         \
  X(syscalls_memop, SyscallsMemop, "syscalls.memop", Sim)                                 \
  X(syscalls_exit, SyscallsExit, "syscalls.exit", Sim)                                    \
  X(syscalls_blocking_command, SyscallsBlockingCommand, "syscalls.blocking_command", Sim) \
  X(context_switches, ContextSwitches, "sched.context_switches", Sim)                     \
  X(mpu_reprograms, MpuReprograms, "sched.mpu_reprograms", Sim)                           \
  X(irq_dispatches, IrqDispatches, "irq.dispatches", Sim)                                 \
  X(deferred_calls_run, DeferredCallsRun, "deferred.calls_run", Sim)                      \
  X(upcalls_queued, UpcallsQueued, "upcalls.queued", Sim)                                 \
  X(upcalls_delivered, UpcallsDelivered, "upcalls.delivered", Sim)                        \
  X(upcalls_scrubbed, UpcallsScrubbed, "upcalls.scrubbed", Sim)                           \
  X(upcalls_dropped, UpcallsDropped, "upcalls.dropped", Sim)                              \
  X(grant_allocs, GrantAllocs, "grants.allocs", Sim)                                      \
  X(grant_bytes, GrantBytes, "grants.bytes", Sim)                                         \
  X(sleep_cycles, SleepCycles, "sleep.cycles", Sim)                                       \
  X(sleep_entries, SleepEntries, "sleep.entries", Sim)                                    \
  X(process_faults, ProcessFaults, "process.faults", Sim)                                 \
  X(process_restarts, ProcessRestarts, "process.restarts", Sim)                           \
  X(process_exits, ProcessExits, "process.exits", Sim)                                    \
  X(syscalls_unknown, SyscallsUnknown, "syscalls.unknown", Sim)                           \
  X(grant_frees, GrantFrees, "grants.frees", Sim)                                         \
  X(grant_bytes_freed, GrantBytesFreed, "grants.bytes_freed", Sim)                        \
  X(sleep_arg_saturations, SleepArgSaturations, "sleep.arg_saturations", Sim)             \
  X(telemetry_events_emitted, TelemetryEventsEmitted, "telemetry.events_emitted", Host)   \
  X(telemetry_events_dropped, TelemetryEventsDropped, "telemetry.events_dropped", Host)   \
  X(telemetry_suppressed, TelemetrySuppressed, "telemetry.suppressed", Host)              \
  X(vm_blocks_built, VmBlocksBuilt, "vm.blocks_built", Host)                              \
  X(vm_blocks_invalidated, VmBlocksInvalidated, "vm.blocks_invalidated", Host)            \
  X(vm_block_chain_hits, VmBlockChainHits, "vm.block_chain_hits", Host)                   \
  X(vm_cache_bytes, VmCacheBytes, "vm.cache_bytes", Host)                                 \
  X(mem_resident_bytes, MemResidentBytes, "mem.resident_bytes", Host)                     \
  X(fleet_idle_skips, FleetIdleSkips, "fleet.idle_skips", Host)

enum class StatDomain : uint8_t { kSim, kHost };

// Monotonic kernel event counters, one field per table row. Plain aggregate: cheap
// to read wholesale.
struct KernelStats {
#define TOCK_STAT_FIELD(field, Id, name, domain) uint64_t field = 0;
  TOCK_KERNEL_STATS(TOCK_STAT_FIELD)
#undef TOCK_STAT_FIELD

  uint64_t SyscallsTotal() const { return syscalls_total; }

  // Adds every row of `other` into this one — fleet-wide aggregation
  // (board/fleet.h) over per-board kernels.
  void Accumulate(const KernelStats& other);
};

enum class StatId : uint32_t {
#define TOCK_STAT_ID(field, Id, name, domain) k##Id,
  TOCK_KERNEL_STATS(TOCK_STAT_ID)
#undef TOCK_STAT_ID
  kNumStats,
};

struct StatRow {
  uint64_t KernelStats::*field;
  const char* name;
  StatDomain domain;
};

inline constexpr StatRow kStatRows[] = {
#define TOCK_STAT_ROW(field, Id, name, domain) {&KernelStats::field, name, StatDomain::k##domain},
    TOCK_KERNEL_STATS(TOCK_STAT_ROW)
#undef TOCK_STAT_ROW
};

// Returns the counter for `id`, or 0 for an out-of-range id.
inline uint64_t StatValue(const KernelStats& stats, StatId id) {
  return id < StatId::kNumStats ? stats.*kStatRows[static_cast<size_t>(id)].field : 0;
}
inline const char* StatName(StatId id) {
  return id < StatId::kNumStats ? kStatRows[static_cast<size_t>(id)].name : "?";
}
inline bool StatIsHostOnly(StatId id) {
  return id < StatId::kNumStats && kStatRows[static_cast<size_t>(id)].domain == StatDomain::kHost;
}

// RecordSyscall indexes the per-class rows by SyscallClass (TRD104 numbering).
static_assert(static_cast<uint32_t>(StatId::kSyscallsBlockingCommand) -
                  static_cast<uint32_t>(StatId::kSyscallsYield) ==
              static_cast<uint32_t>(SyscallClass::kBlockingCommand));

// One recorded kernel event. `pid` is the process slot the event concerns (0xFF =
// none/kernel); `arg` is event-specific (syscall class, IRQ line, grant size, ...).
enum class TraceEventKind : uint8_t {
  kSyscall,        // arg = SyscallClass
  kContextSwitch,  // arg = process slot switched to
  kMpuReprogram,   // arg = process slot mapped
  kIrqDispatch,    // arg = interrupt line
  kDeferredCall,   // arg = deferred-call handle
  kUpcallQueued,   // arg = driver number
  kUpcallDelivered,
  kUpcallScrubbed,  // arg = entries scrubbed
  kUpcallDropped,
  kGrantAlloc,  // arg = bytes allocated
  kSleep,       // arg = cycles slept (saturated to 32 bits)
  kProcessFault,  // arg = fault cause (FaultCauseArg encoding)
  kProcessRestart,
  kProcessExit,  // arg = completion code
  kGrantFree,    // arg = bytes reclaimed at process death/restart
};

const char* TraceEventKindName(TraceEventKind kind);

// Fault-cause payload for kProcessFault events: low byte holds the VmFault::Kind,
// the next byte holds the BusFaultKind when the fault came from the memory bus.
// Packed into 32 bits so the cause survives in the fixed-size TraceEvent arg.
uint32_t FaultCauseArg(const VmFault& fault);
// Human-readable name for a packed cause ("mpu-violation", "illegal-instruction", ...).
const char* FaultCauseName(uint32_t cause_arg);

struct TraceEvent {
  uint64_t cycle = 0;
  TraceEventKind kind = TraceEventKind::kSyscall;
  uint8_t pid = 0xFF;
  uint32_t arg = 0;
};

// Where trace events go when a board opts into live telemetry
// (kernel/telemetry.h implements this over a lossy shm ring). The sink is
// handed the kernel's own stats block so its transport counters
// (telemetry_events_*) accumulate alongside the kernel counters and roll up
// through KernelStats::Accumulate into FleetStats. Implementations must never
// block and must not touch simulated state — they observe, only.
class TelemetrySink {
 public:
  virtual ~TelemetrySink() = default;
  virtual void OnTraceEvent(const TraceEvent& event, KernelStats& stats) = 0;
};

// The kernel-owned recorder. The kernel calls the record methods from its dispatch
// points, passing the current cycle; everything is an increment plus a ring store.
class KernelTrace {
 public:
  static constexpr size_t kTraceDepth = 256;
  static constexpr uint8_t kNoPid = 0xFF;
  static constexpr bool kEnabled = KernelConfig::trace_enabled;

  // Attaches (or detaches, with nullptr) the live telemetry sink. Board-side
  // wiring only.
  void SetTelemetrySink(TelemetrySink* sink) { telemetry_ = sink; }

  const KernelStats& stats() const { return stats_; }
  const EventRing<TraceEvent, kTraceDepth>& events() const { return ring_; }

  // Per-process cycle attribution (kernel/cycle_accounting.h). The kernel drives
  // Switch() from its main loop; everyone else reads.
  CycleAccounting& accounting() { return accounting_; }
  const CycleAccounting& accounting() const { return accounting_; }

  // Latency histograms (util/log2_hist.h), all in simulated cycles:
  //   syscall   — trap entry to trap return (or to the block, for yields)
  //   irq       — IRQ bottom-half dispatch to the resulting upcall's delivery
  //   roundtrip — split-phase Command syscall to the completion upcall's delivery
  const Log2Hist& syscall_hist() const { return hist_syscall_; }
  const Log2Hist& irq_upcall_hist() const { return hist_irq_upcall_; }
  const Log2Hist& command_roundtrip_hist() const { return hist_roundtrip_; }

  // Per-process high-water marks (the ProcStats fields the PCB does not keep).
  uint64_t grant_high_water(size_t pid) const {
    return pid < CycleAccounting::kMaxProcs ? grant_hwm_[pid] : 0;
  }
  uint64_t upcall_queue_max(size_t pid) const {
    return pid < CycleAccounting::kMaxProcs ? queue_max_[pid] : 0;
  }

  // Per-process scheduler activity (kernel/scheduler.h): how often each slot was
  // picked by the active policy, and how often the MPU was actually switched onto
  // it. Counters only, by design — the event ring and the StatId table are
  // golden-locked surfaces (tests/golden/), so scheduling observability lives in
  // these side arrays the way the grant high-water marks do.
  uint64_t sched_decisions(size_t pid) const {
    return pid < CycleAccounting::kMaxProcs ? sched_decisions_[pid] : 0;
  }
  uint64_t proc_context_switches(size_t pid) const {
    return pid < CycleAccounting::kMaxProcs ? ctxsw_per_proc_[pid] : 0;
  }
  void RecordScheduleDecision(uint8_t pid) {
    if constexpr (kEnabled) {
      if (pid < CycleAccounting::kMaxProcs) {
        ++sched_decisions_[pid];
      }
    }
  }

  void RecordSyscall(uint64_t cycle, uint8_t pid, uint32_t klass_raw) {
    if constexpr (kEnabled) {
      ++stats_.syscalls_total;
      if (klass_raw <= static_cast<uint32_t>(SyscallClass::kBlockingCommand)) {
        ++(stats_.*kStatRows[static_cast<uint32_t>(StatId::kSyscallsYield) + klass_raw].field);
      } else {
        ++stats_.syscalls_unknown;
      }
      Push(cycle, TraceEventKind::kSyscall, pid, klass_raw);
    }
  }
  void RecordContextSwitch(uint64_t cycle, uint8_t pid) {
    if constexpr (kEnabled) {
      ++stats_.context_switches;
      if (pid < CycleAccounting::kMaxProcs) {
        ++ctxsw_per_proc_[pid];
      }
      Push(cycle, TraceEventKind::kContextSwitch, pid, pid);
    }
  }
  void RecordMpuReprogram(uint64_t cycle, uint8_t pid) {
    if constexpr (kEnabled) {
      ++stats_.mpu_reprograms;
      Push(cycle, TraceEventKind::kMpuReprogram, pid, pid);
    }
  }
  void RecordIrqDispatch(uint64_t cycle, uint32_t line) {
    if constexpr (kEnabled) {
      ++stats_.irq_dispatches;
      // Upcalls scheduled while servicing this dispatch (directly, or from the
      // deferred call it triggers within the same loop step) are charged to it.
      irq_origin_cycle_ = cycle;
      Push(cycle, TraceEventKind::kIrqDispatch, kNoPid, line);
    }
  }
  void RecordDeferredCall(uint64_t cycle, uint32_t handle) {
    if constexpr (kEnabled) {
      ++stats_.deferred_calls_run;
      Push(cycle, TraceEventKind::kDeferredCall, kNoPid, handle);
    }
  }
  void RecordUpcallQueued(uint64_t cycle, uint8_t pid, uint32_t driver) {
    if constexpr (kEnabled) {
      ++stats_.upcalls_queued;
      Push(cycle, TraceEventKind::kUpcallQueued, pid, driver);
    }
  }
  // `driver` identifies the delivering driver (for command round-trip matching);
  // `origin_cycle` is the IRQ-dispatch stamp carried by the upcall (0 = none).
  void RecordUpcallDelivered(uint64_t cycle, uint8_t pid, uint32_t driver,
                             uint64_t origin_cycle) {
    if constexpr (kEnabled) {
      ++stats_.upcalls_delivered;
      Push(cycle, TraceEventKind::kUpcallDelivered, pid, driver);
      if (origin_cycle != 0 && cycle >= origin_cycle) {
        hist_irq_upcall_.Record(cycle - origin_cycle);
      }
      if (pid < CycleAccounting::kMaxProcs && pending_cmd_[pid].valid &&
          pending_cmd_[pid].driver == driver) {
        hist_roundtrip_.Record(cycle - pending_cmd_[pid].cycle);
        pending_cmd_[pid].valid = false;
      }
    }
  }
  void RecordUpcallsScrubbed(uint64_t cycle, uint8_t pid, uint64_t count) {
    if constexpr (kEnabled) {
      if (count == 0) {
        return;
      }
      stats_.upcalls_scrubbed += count;
      Push(cycle, TraceEventKind::kUpcallScrubbed, pid, static_cast<uint32_t>(count));
    }
  }
  void RecordUpcallDropped(uint64_t cycle, uint8_t pid) {
    if constexpr (kEnabled) {
      ++stats_.upcalls_dropped;
      Push(cycle, TraceEventKind::kUpcallDropped, pid, 0);
    }
  }
  // `live_bytes` is the process's live grant usage after this allocation, for the
  // high-water mark.
  void RecordGrantAlloc(uint64_t cycle, uint8_t pid, uint32_t bytes, uint64_t live_bytes) {
    if constexpr (kEnabled) {
      ++stats_.grant_allocs;
      stats_.grant_bytes += bytes;
      if (pid < CycleAccounting::kMaxProcs && live_bytes > grant_hwm_[pid]) {
        grant_hwm_[pid] = live_bytes;
      }
      Push(cycle, TraceEventKind::kGrantAlloc, pid, bytes);
    }
  }
  // Reclamation at death/restart: `count` grant regions totalling `bytes` returned
  // to the process's quota (satellite of the restart work in kernel.cc).
  void RecordGrantFree(uint64_t cycle, uint8_t pid, uint64_t count, uint64_t bytes) {
    if constexpr (kEnabled) {
      if (count == 0) {
        return;
      }
      stats_.grant_frees += count;
      stats_.grant_bytes_freed += bytes;
      Push(cycle, TraceEventKind::kGrantFree, pid, static_cast<uint32_t>(bytes));
    }
  }
  // Sleep records (§2.5). A sleep is counted when it starts and its kSleep event
  // is pushed when it ends: at the interrupt that wakes the kernel, or at the
  // first main-loop pass that finds other work. A MainLoop deadline ends nothing,
  // so a sleep split across deadlines (fleet epochs, Run chunks) records exactly
  // like one uninterrupted sleep. `woke` reports an interrupt pending on return.
  void RecordSleep(uint64_t cycle, uint64_t slept_cycles, bool woke) {
    if constexpr (kEnabled) {
      if (slept_cycles != 0) {
        if (open_sleep_cycles_ == 0) {
          ++stats_.sleep_entries;
        }
        stats_.sleep_cycles += slept_cycles;
        open_sleep_cycles_ += slept_cycles;
      }
      if (woke) {
        EndSleep(cycle);
      }
    }
  }
  bool sleeping() const { return kEnabled && open_sleep_cycles_ != 0; }
  void EndSleep(uint64_t cycle) {
    if constexpr (kEnabled) {
      if (open_sleep_cycles_ == 0) {
        return;
      }
      uint32_t arg;
      if (open_sleep_cycles_ > UINT32_MAX) {
        // The 32-bit event arg cannot hold the duration; count the saturation so
        // the exporter knows to fall back to sleep_cycles deltas.
        ++stats_.sleep_arg_saturations;
        arg = UINT32_MAX;
      } else {
        arg = static_cast<uint32_t>(open_sleep_cycles_);
      }
      open_sleep_cycles_ = 0;
      Push(cycle, TraceEventKind::kSleep, kNoPid, arg);
    }
  }
  void RecordProcessFault(uint64_t cycle, uint8_t pid, uint32_t cause_arg) {
    if constexpr (kEnabled) {
      ++stats_.process_faults;
      Push(cycle, TraceEventKind::kProcessFault, pid, cause_arg);
    }
  }
  void RecordProcessRestart(uint64_t cycle, uint8_t pid) {
    if constexpr (kEnabled) {
      ++stats_.process_restarts;
      Push(cycle, TraceEventKind::kProcessRestart, pid, 0);
    }
  }
  void RecordProcessExit(uint64_t cycle, uint8_t pid, uint32_t completion_code) {
    if constexpr (kEnabled) {
      ++stats_.process_exits;
      Push(cycle, TraceEventKind::kProcessExit, pid, completion_code);
    }
  }

  // Interpreter-v2 engine activity (counters only — no trace events, so the
  // golden-locked event ring is untouched by engine choice).
  void RecordVmBlocks(uint64_t built, uint64_t chain_hits) {
    if constexpr (kEnabled) {
      stats_.vm_blocks_built += built;
      stats_.vm_block_chain_hits += chain_hits;
    }
  }
  void RecordVmBlocksInvalidated(uint64_t count) {
    if constexpr (kEnabled) {
      stats_.vm_blocks_invalidated += count;
    }
  }
  // vm_cache_bytes is a gauge: +bytes when a process's decode/block tables are
  // allocated (first dispatch), -bytes when they are released (death/restart).
  void RecordVmCacheBytes(int64_t delta) {
    if constexpr (kEnabled) {
      stats_.vm_cache_bytes += static_cast<uint64_t>(delta);
    }
  }
  // mem_resident_bytes is an absolute gauge (synced from the bus each main-loop
  // pass, not delta-maintained: page releases happen deep in restart paths).
  void SetMemResident(uint64_t bytes) {
    if constexpr (kEnabled) {
      stats_.mem_resident_bytes = bytes;
    }
  }

  // ---- Profiling hooks (cycle attribution & latency histograms) ------------------

  // Syscall trap-entry to trap-return service time.
  void RecordSyscallLatency(uint64_t cycles) {
    if constexpr (kEnabled) {
      hist_syscall_.Record(cycles);
    }
  }

  // A Command syscall was dispatched; the next upcall delivered to `pid` from
  // `driver` closes the split-phase round trip. One outstanding command per process
  // (matching the one-outstanding-operation discipline of the TRD104 drivers).
  void NoteCommandIssued(uint8_t pid, uint32_t driver, uint64_t cycle) {
    if constexpr (kEnabled) {
      if (pid < CycleAccounting::kMaxProcs) {
        pending_cmd_[pid] = PendingCommand{cycle, driver, true};
      }
    }
  }

  // The IRQ-dispatch stamp a scheduled upcall should carry: the cycle of the IRQ
  // being serviced when attribution sits in interrupt/deferred context, else `now`
  // (capsule scheduled it synchronously from a syscall — the latency starts here).
  uint64_t UpcallOrigin(uint64_t now) const {
    if constexpr (kEnabled) {
      return accounting_.InHardwareContext() && irq_origin_cycle_ != 0 ? irq_origin_cycle_
                                                                      : now;
    }
    return 0;
  }

  void NoteUpcallQueueDepth(uint8_t pid, uint64_t depth) {
    if constexpr (kEnabled) {
      if (pid < CycleAccounting::kMaxProcs && depth > queue_max_[pid]) {
        queue_max_[pid] = depth;
      }
    }
  }

  // A process slot is being reset for reuse/restart: its pending round-trip stamp
  // must not match against the next incarnation's upcalls.
  void ClearProcessProfile(uint8_t pid) {
    if constexpr (kEnabled) {
      if (pid < CycleAccounting::kMaxProcs) {
        pending_cmd_[pid].valid = false;
      }
    }
  }

  // Text dumps (host-side introspection only; the record path never allocates).
  // Deterministic: byte-identical across identical runs.
  void DumpStats(std::string& out) const;
  void DumpTrace(std::string& out) const;
  void DumpHists(std::string& out) const;

 private:
  struct PendingCommand {
    uint64_t cycle = 0;
    uint32_t driver = 0;
    bool valid = false;
  };

  void Push(uint64_t cycle, TraceEventKind kind, uint8_t pid, uint32_t arg) {
    const TraceEvent event{cycle, kind, pid, arg};
    ring_.Push(event);
    if (telemetry_ != nullptr) {
      telemetry_->OnTraceEvent(event, stats_);
    }
  }

  KernelStats stats_;
  EventRing<TraceEvent, kTraceDepth> ring_;
  CycleAccounting accounting_;
  Log2Hist hist_syscall_;
  Log2Hist hist_irq_upcall_;
  Log2Hist hist_roundtrip_;
  std::array<uint64_t, CycleAccounting::kMaxProcs> grant_hwm_{};
  std::array<uint64_t, CycleAccounting::kMaxProcs> queue_max_{};
  std::array<uint64_t, CycleAccounting::kMaxProcs> sched_decisions_{};
  std::array<uint64_t, CycleAccounting::kMaxProcs> ctxsw_per_proc_{};
  std::array<PendingCommand, CycleAccounting::kMaxProcs> pending_cmd_{};
  uint64_t irq_origin_cycle_ = 0;
  uint64_t open_sleep_cycles_ = 0;  // cycles slept so far by the open sleep; 0 = awake
  TelemetrySink* telemetry_ = nullptr;
};

// Dumps one histogram as a single line: summary stats plus the nonzero buckets.
void DumpLog2Hist(const Log2Hist& hist, const char* name, std::string& out);

}  // namespace tock

#endif  // TOCK_KERNEL_TRACE_H_
