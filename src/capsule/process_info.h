// ERA: 4
// Process-inspection capsule (driver 0xA0001) and the working demonstration of
// capability-gated privileged APIs (§4.4, Listing 1): restarting a process is a
// privileged kernel operation; this capsule can only offer command 4 because the
// board *chose* to mint and hand it a ProcessManagementCapability. An otherwise
// identical capsule without the token cannot even compile a call to RestartProcess
// (tests/compile_fail/).
//
// Commands: 0 exists | 1 = live process count | 2 = own slot index |
//           3 = own restart count | 4 = restart self (privileged) |
//           5 = read kernel stat (arg1 = StatId, kernel/trace.h) -> Success2U32(lo, hi);
//             an out-of-range id returns SuccessU32(kNumStats) so userspace can
//             discover how many stats this kernel ships (the ABI is append-only);
//             a Host row of the stat table (telemetry, vm, mem, fleet counters)
//             answers NOSUPPORT, because host machinery must stay invisible to
//             simulated state |
//           6 = read own ProcStats field (arg1 = ProcStatField,
//             kernel/cycle_accounting.h) -> Success2U32(lo, hi); out-of-range
//             returns SuccessU32(kNumFields), same discovery idiom. The scheduler
//             work appended fields 7-10 (context switches, timeslice expirations,
//             priority, MLFQ queue level); old userspace keeps reading 0-6, new
//             userspace probes kNumFields and finds the rest.
#ifndef TOCK_CAPSULE_PROCESS_INFO_H_
#define TOCK_CAPSULE_PROCESS_INFO_H_

#include "capsule/driver_nums.h"
#include "kernel/capability.h"
#include "kernel/driver.h"
#include "kernel/kernel.h"

namespace tock {

class ProcessInfoDriver : public SyscallDriver {
 public:
  ProcessInfoDriver(Kernel* kernel, ProcessManagementCapability cap)
      : kernel_(kernel), cap_(cap) {}

  SyscallReturn Command(ProcessId pid, uint32_t command_num, uint32_t arg1,
                        uint32_t arg2) override {
    (void)arg2;
    switch (command_num) {
      case 0:
        return SyscallReturn::Success();
      case 1:
        return SyscallReturn::SuccessU32(static_cast<uint32_t>(kernel_->NumLiveProcesses()));
      case 2:
        return SyscallReturn::SuccessU32(pid.index);
      case 3: {
        Process* p = kernel_->GetLiveProcess(pid);
        return p != nullptr ? SyscallReturn::SuccessU32(p->restart_count)
                            : SyscallReturn::Failure(ErrorCode::kInvalid);
      }
      case 4: {
        // The privileged call: impossible without the minted capability token.
        Result<void> result = kernel_->RestartProcess(pid, cap_);
        return result.ok() ? SyscallReturn::Success() : SyscallReturn::Failure(result.error());
      }
      case 5: {
        // Read-only view of the kernel's simulated event counters (kernel/trace.h).
        // Not privileged: counters are aggregate observability, not process
        // control. Out-of-range ids answer with the stat count instead of failing,
        // so a newer userspace on an older kernel can probe what exists.
        StatId id = static_cast<StatId>(arg1);
        if (id >= StatId::kNumStats) {
          return SyscallReturn::SuccessU32(static_cast<uint32_t>(StatId::kNumStats));
        }
        if (StatIsHostOnly(id)) {
          return SyscallReturn::Failure(ErrorCode::kNoSupport);
        }
        uint64_t value = StatValue(kernel_->stats(), id);
        return SyscallReturn::Success2U32(static_cast<uint32_t>(value),
                                          static_cast<uint32_t>(value >> 32));
      }
      case 6: {
        // The caller's own profiling row (kernel/cycle_accounting.h): cycle
        // attribution, high-water marks, restarts. Same discovery idiom as 5.
        if (arg1 >= static_cast<uint32_t>(ProcStatField::kNumFields)) {
          return SyscallReturn::SuccessU32(
              static_cast<uint32_t>(ProcStatField::kNumFields));
        }
        ProcStats stats = kernel_->GetProcStats(pid.index);
        uint64_t value = ProcStatValue(stats, static_cast<ProcStatField>(arg1));
        return SyscallReturn::Success2U32(static_cast<uint32_t>(value),
                                          static_cast<uint32_t>(value >> 32));
      }
      default:
        return SyscallReturn::Failure(ErrorCode::kNoSupport);
    }
  }

 private:
  Kernel* kernel_;
  ProcessManagementCapability cap_;
};

}  // namespace tock

#endif  // TOCK_CAPSULE_PROCESS_INFO_H_
