// ERA: 3
// Per-process cycle attribution (the profiling half of kernel/trace.h).
//
// The paper's quantitative claims are *per-component* costs — capsule isolation is
// "virtually free" (§2.2), the asynchronous syscall sequence beats Ti50's blocking
// command (§3.2), the kernel sleeps whenever idle (§2.5). Aggregate counters cannot
// attribute a single cycle to the component that spent it, so the kernel main loop
// charges every elapsed cycle to exactly one bucket:
//
//   kUser(pid)     process pid executing its own instructions
//   kService(pid)  the kernel working on pid's behalf: syscall dispatch, context
//                  switch + MPU reprogram into pid, upcall delivery, fault handling
//   kCapsule       deferred-call bottom halves (no process is chargeable)
//   kIrq           interrupt servicing (top-half dispatch + chip handlers)
//   kIdle          SleepUntilInterrupt (plus the sleep transition cost)
//   kKernel        main-loop glue and anything a board does between loop steps
//
// Attribution is switch-based, which makes it *exhaustive by construction*: the
// accountant remembers the cycle of the last bucket switch and flushes the delta to
// the outgoing bucket, so at every flush point the bucket sums equal elapsed cycles
// since the anchor exactly — the conservation law tests/profiler_test.cc asserts.
// Scopes are RAII and nest (a syscall scope inside a user scope suspends the user
// bucket and resumes it on exit). Every flush with a nonzero delta also records a
// CycleSpan into a ring, which is what the Chrome-trace exporter
// (tools/trace_export.h) turns into duration events.
//
// Batched block-boundary accounting (interpreter v2): the kernel's batch engine
// does NOT tick the clock per instruction. It computes a budget of instructions
// guaranteed to contain no observable point — min(run deadline, SimClock::
// NextEventAt()) minus now, capped at the next armed CPU fault — runs them in one
// RunBatch call, and ticks once with
// the consumed count at the batch boundary. Because kVmInstruction == 1
// (static_assert'ed in kernel/kernel.cc), Tick(k) advances the clock to exactly
// the cycle per-insn ticking would have reached, and no clock event can fire
// strictly inside the batch, so every flush point here sees identical cycle
// values either way. The conservation law is untouched: batches begin and end
// inside the same kUser scope, and all Service/Irq/Idle transitions still happen
// at batch boundaries.
//
// Like the rest of the trace layer this compiles away under -DTOCK_TRACE=OFF:
// every method body is behind `if constexpr` on KernelConfig::trace_enabled.
#ifndef TOCK_KERNEL_CYCLE_ACCOUNTING_H_
#define TOCK_KERNEL_CYCLE_ACCOUNTING_H_

#include <array>
#include <cstddef>
#include <cstdint>

#include "kernel/config.h"
#include "util/event_ring.h"

namespace tock {

enum class CycleBucket : uint8_t {
  kKernel,   // main-loop glue, boot, inter-step board activity
  kUser,     // process pid: its own instructions
  kService,  // process pid: kernel service (syscalls, switch-in, upcall delivery)
  kCapsule,  // deferred-call work
  kIrq,      // interrupt dispatch
  kIdle,     // sleep
};

const char* CycleBucketName(CycleBucket bucket);

// One attributed span of time, for the trace exporter. pid is meaningful only for
// kUser/kService spans (0xFF otherwise).
struct CycleSpan {
  uint64_t start = 0;
  uint64_t end = 0;
  CycleBucket bucket = CycleBucket::kKernel;
  uint8_t pid = 0xFF;
};

class CycleAccounting {
 public:
  static constexpr bool kEnabled = KernelConfig::trace_enabled;
  static constexpr size_t kMaxProcs = 8;  // kernel.cc asserts >= Kernel::kMaxProcesses
  static constexpr size_t kSpanDepth = 256;
  static constexpr uint8_t kNoPid = 0xFF;

  // A read-only, fully-flushed view of the buckets at a given cycle. Snap() charges
  // the still-open span to its bucket without mutating the accountant, so tests can
  // check conservation mid-run.
  struct Snapshot {
    uint64_t anchor = 0;   // cycle accounting began at
    uint64_t now = 0;      // cycle the snapshot was taken at
    std::array<uint64_t, kMaxProcs> user{};
    std::array<uint64_t, kMaxProcs> service{};
    uint64_t capsule = 0;
    uint64_t irq = 0;
    uint64_t idle = 0;
    uint64_t kernel = 0;

    uint64_t Total() const {
      uint64_t t = capsule + irq + idle + kernel;
      for (size_t i = 0; i < kMaxProcs; ++i) {
        t += user[i] + service[i];
      }
      return t;
    }
    uint64_t Elapsed() const { return now - anchor; }
  };

  bool begun() const { return begun_; }
  uint64_t anchor_cycle() const { return anchor_; }
  const EventRing<CycleSpan, kSpanDepth>& spans() const { return spans_; }

  // Starts accounting at `now` in the kKernel bucket (idempotent). The kernel calls
  // this on the first main-loop step, so boot-time cycles spent before any loop ran
  // stay outside the conservation window.
  void Begin(uint64_t now) {
    if constexpr (kEnabled) {
      if (!begun_) {
        begun_ = true;
        anchor_ = now;
        last_flush_ = now;
        bucket_ = CycleBucket::kKernel;
        pid_ = kNoPid;
      }
    }
  }

  // Flushes the open span and switches attribution to (bucket, pid).
  void Switch(CycleBucket bucket, uint8_t pid, uint64_t now) {
    if constexpr (kEnabled) {
      if (!begun_) {
        Begin(now);
      }
      Flush(now);
      bucket_ = bucket;
      pid_ = pid;
    }
  }

  // The open attribution target. The kernel's RAII scope helper (kernel.cc) reads
  // these to restore the suspended bucket when a nested scope exits.
  CycleBucket current_bucket() const { return bucket_; }
  uint8_t current_pid() const { return pid_; }
  // True while attribution sits in an interrupt or deferred-call scope — the window
  // in which a scheduled upcall's latency is chargeable to the triggering IRQ.
  bool InHardwareContext() const {
    return bucket_ == CycleBucket::kIrq || bucket_ == CycleBucket::kCapsule;
  }

  Snapshot Snap(uint64_t now) const {
    Snapshot s;
    if constexpr (kEnabled) {
      s.anchor = anchor_;
      s.now = now;
      s.user = user_;
      s.service = service_;
      s.capsule = capsule_;
      s.irq = irq_;
      s.idle = idle_;
      s.kernel = kernel_;
      // Charge the open span as Flush would, without mutating.
      if (begun_ && now > last_flush_) {
        uint64_t delta = now - last_flush_;
        switch (bucket_) {
          case CycleBucket::kUser:
            s.user[pid_ % kMaxProcs] += delta;
            break;
          case CycleBucket::kService:
            s.service[pid_ % kMaxProcs] += delta;
            break;
          case CycleBucket::kCapsule:
            s.capsule += delta;
            break;
          case CycleBucket::kIrq:
            s.irq += delta;
            break;
          case CycleBucket::kIdle:
            s.idle += delta;
            break;
          case CycleBucket::kKernel:
            s.kernel += delta;
            break;
        }
      }
    }
    return s;
  }

  uint64_t user_cycles(size_t pid) const {
    return pid < kMaxProcs ? user_[pid] : 0;
  }
  uint64_t service_cycles(size_t pid) const {
    return pid < kMaxProcs ? service_[pid] : 0;
  }
  uint64_t capsule_cycles() const { return capsule_; }
  uint64_t irq_cycles() const { return irq_; }
  uint64_t idle_cycles() const { return idle_; }
  uint64_t kernel_cycles() const { return kernel_; }

 private:
  void Flush(uint64_t now) {
    if (now <= last_flush_) {
      return;
    }
    uint64_t delta = now - last_flush_;
    switch (bucket_) {
      case CycleBucket::kUser:
        user_[pid_ % kMaxProcs] += delta;
        break;
      case CycleBucket::kService:
        service_[pid_ % kMaxProcs] += delta;
        break;
      case CycleBucket::kCapsule:
        capsule_ += delta;
        break;
      case CycleBucket::kIrq:
        irq_ += delta;
        break;
      case CycleBucket::kIdle:
        idle_ += delta;
        break;
      case CycleBucket::kKernel:
        kernel_ += delta;
        break;
    }
    spans_.Push(CycleSpan{last_flush_, now, bucket_, pid_});
    last_flush_ = now;
  }

  bool begun_ = false;
  uint64_t anchor_ = 0;
  uint64_t last_flush_ = 0;
  CycleBucket bucket_ = CycleBucket::kKernel;
  uint8_t pid_ = kNoPid;

  std::array<uint64_t, kMaxProcs> user_{};
  std::array<uint64_t, kMaxProcs> service_{};
  uint64_t capsule_ = 0;
  uint64_t irq_ = 0;
  uint64_t idle_ = 0;
  uint64_t kernel_ = 0;

  EventRing<CycleSpan, kSpanDepth> spans_;
};

// The per-process profiling row assembled by Kernel::GetProcStats (read by the
// process console's `prof` command and ProcessInfoDriver command 6): one
// X(field, Id) row per field, in ProcStatField order. That order is the command-6
// ABI, so rows only append, like StatId (kernel/trace.h); the field name is the
// printed name. Row notes:
//   upcalls                deliveries.
//   grant_high_water       peak live grant bytes, over any incarnation.
//   upcall_queue_max       peak upcall queue depth.
//   context_switches ...   the scheduler fields (kernel/scheduler.h), appended
//                          later: MPU switches onto the process, this
//                          incarnation's timeslice expirations, priority (0 =
//                          highest) and MLFQ level (0 under other policies).
#define TOCK_PROC_STATS(X)                         \
  X(user_cycles, UserCycles)                       \
  X(service_cycles, ServiceCycles)                 \
  X(syscalls, Syscalls)                            \
  X(upcalls, Upcalls)                              \
  X(grant_high_water, GrantHighWater)              \
  X(upcall_queue_max, UpcallQueueMax)              \
  X(restarts, Restarts)                            \
  X(context_switches, ContextSwitches)             \
  X(timeslice_expirations, TimesliceExpirations)   \
  X(priority, Priority)                            \
  X(queue_level, QueueLevel)

struct ProcStats {
#define TOCK_PROC_STAT_FIELD(field, Id) uint64_t field = 0;
  TOCK_PROC_STATS(TOCK_PROC_STAT_FIELD)
#undef TOCK_PROC_STAT_FIELD
};

enum class ProcStatField : uint32_t {
#define TOCK_PROC_STAT_ID(field, Id) k##Id,
  TOCK_PROC_STATS(TOCK_PROC_STAT_ID)
#undef TOCK_PROC_STAT_ID
  kNumFields,
};

struct ProcStatRow {
  uint64_t ProcStats::*field;
  const char* name;
};

inline constexpr ProcStatRow kProcStatRows[] = {
#define TOCK_PROC_STAT_ROW(field, Id) {&ProcStats::field, #field},
    TOCK_PROC_STATS(TOCK_PROC_STAT_ROW)
#undef TOCK_PROC_STAT_ROW
};

// Returns the field, or 0 for an out-of-range one.
inline uint64_t ProcStatValue(const ProcStats& stats, ProcStatField field) {
  return field < ProcStatField::kNumFields ? stats.*kProcStatRows[static_cast<size_t>(field)].field
                                           : 0;
}
inline const char* ProcStatName(ProcStatField field) {
  return field < ProcStatField::kNumFields ? kProcStatRows[static_cast<size_t>(field)].name : "?";
}

}  // namespace tock

#endif  // TOCK_KERNEL_CYCLE_ACCOUNTING_H_
