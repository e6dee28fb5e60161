// ERA: 5
// Process console (upstream `process_console`): a tiny kernel shell on its own UART
// for inspecting and managing processes in the field. It is also the showcase for
// capability-gated management from capsule code (§4.4): `stop`/`start` work only
// because the board minted this capsule a ProcessManagementCapability.
//
// Commands (newline-terminated): help | list | stop <idx> | start <idx> |
// stats (kernel event counters, kernel/trace.h) | trace (last few trace events) |
// faults (per-process fault policy, restart budget, and last recorded fault) |
// prof (per-process cycle attribution & high-water marks, kernel/cycle_accounting.h) |
// hist (latency histogram summaries, util/log2_hist.h) |
// sched (active policy, per-process priority/queue level/timeslice expirations/
// context switches, kernel/scheduler.h) |
// loads (ProcessLoader ledger: per-image §3.4 outcome with LoadErrorName — the
// field-debug view of OTA updates that were rejected and why)
#ifndef TOCK_CAPSULE_PROCESS_CONSOLE_H_
#define TOCK_CAPSULE_PROCESS_CONSOLE_H_

#include <array>
#include <cstdio>
#include <cstring>

#include "kernel/capability.h"
#include "kernel/hil.h"
#include "kernel/kernel.h"
#include "kernel/process_loader.h"
#include "util/cells.h"

namespace tock {

class ProcessConsole : public hil::UartReceiveClient, public hil::UartTransmitClient {
 public:
  ProcessConsole(Kernel* kernel, hil::UartTransmit* tx, hil::UartReceive* rx,
                 SubSliceMut tx_buffer, SubSliceMut rx_buffer,
                 ProcessManagementCapability cap)
      : kernel_(kernel), tx_(tx), rx_(rx), tx_buffer_(tx_buffer), rx_buffer_(rx_buffer),
        cap_(cap) {
    tx_->SetTransmitClient(this);
    rx_->SetReceiveClient(this);
  }

  // Board init: begins listening (byte at a time, as upstream does).
  void Start() { ArmReceive(); }

  // Board init: wires the loader ledger behind the `loads` command.
  void SetLoader(ProcessLoader* loader) { loader_ = loader; }

  // hil::UartReceiveClient ---------------------------------------------------------
  void ReceiveComplete(SubSliceMut buffer, uint32_t received, Result<void> result) override {
    if (result.ok() && received == 1) {
      char c = static_cast<char>(buffer[0]);
      if (c == '\n' || c == '\r') {
        line_[line_len_] = '\0';
        ExecuteLine();
        line_len_ = 0;
      } else if (line_len_ + 1 < line_.size()) {
        line_[line_len_++] = c;
      }
    }
    buffer.Reset();
    rx_buffer_.Set(buffer);
    ArmReceive();
  }

  // hil::UartTransmitClient ----------------------------------------------------------
  void TransmitComplete(SubSliceMut buffer, Result<void> result) override {
    (void)result;
    buffer.Reset();
    tx_buffer_.Set(buffer);
  }

 private:
  void ArmReceive() {
    if (auto buffer = rx_buffer_.Take()) {
      buffer->Reset();
      buffer->SliceTo(1);
      hil::BufResult armed = rx_->Receive(*buffer);
      if (armed.has_value()) {
        rx_buffer_.Set(armed->buffer);
      }
    }
  }

  // Formats into the tx buffer and transmits. If a transmit is in flight the output
  // is dropped (a shell, not a log pipeline — matches upstream's best-effort).
  void Emit(const char* text) {
    auto buffer = tx_buffer_.Take();
    if (!buffer.has_value()) {
      return;
    }
    buffer->Reset();
    size_t len = std::min(std::strlen(text), buffer->Capacity());
    std::memcpy(buffer->Active().data(), text, len);
    buffer->SliceTo(len);
    hil::BufResult started = tx_->Transmit(*buffer);
    if (started.has_value()) {
      SubSliceMut returned = started->buffer;
      returned.Reset();
      tx_buffer_.Set(returned);
    }
  }

  void ExecuteLine() {
    char out[512];
    if (std::strcmp(line_.data(), "help") == 0) {
      Emit("commands: help list loads stats trace faults prof hist sched stop <idx> "
           "start <idx>\n");
      return;
    }
    if (std::strcmp(line_.data(), "loads") == 0) {
      if (loader_ == nullptr) {
        Emit("no loader wired\n");
        return;
      }
      size_t pos = static_cast<size_t>(std::snprintf(
          out, sizeof(out), "created %d rejected %d\n addr     name      outcome\n",
          loader_->created_count(), loader_->rejected_count()));
      for (const ProcessLoader::LoadRecord& r : loader_->records()) {
        if (pos >= sizeof(out) - 96) {
          break;
        }
        pos += static_cast<size_t>(std::snprintf(
            out + pos, sizeof(out) - pos, " %08lx %-9s %s%s%s%s%s\n",
            (unsigned long)r.flash_addr, r.name.c_str(),
            r.created ? "created" : LoadErrorName(r.error), r.verified ? " verified" : "",
            r.reject_reason != nullptr ? " (" : "",
            r.reject_reason != nullptr ? r.reject_reason : "",
            r.reject_reason != nullptr ? ")" : ""));
      }
      Emit(out);
      return;
    }
    if (std::strcmp(line_.data(), "stats") == 0) {
      // Compact digest of simulated counters; the full table is
      // Kernel::trace().DumpStats(). Host rows (kernel/trace.h) stay off UART:
      // their digits would move simulated TX time.
      const KernelStats& s = kernel_->stats();
      std::snprintf(out, sizeof(out),
                    "syscalls %llu  ctxsw %llu  mpu %llu  irq %llu  deferred %llu\n"
                    "upcalls q %llu d %llu s %llu x %llu  grants %llu/%lluB\n"
                    "sleep %llu cycles in %llu entries\n",
                    (unsigned long long)s.SyscallsTotal(),
                    (unsigned long long)s.context_switches,
                    (unsigned long long)s.mpu_reprograms,
                    (unsigned long long)s.irq_dispatches,
                    (unsigned long long)s.deferred_calls_run,
                    (unsigned long long)s.upcalls_queued,
                    (unsigned long long)s.upcalls_delivered,
                    (unsigned long long)s.upcalls_scrubbed,
                    (unsigned long long)s.upcalls_dropped,
                    (unsigned long long)s.grant_allocs, (unsigned long long)s.grant_bytes,
                    (unsigned long long)s.sleep_cycles,
                    (unsigned long long)s.sleep_entries);
      Emit(out);
      return;
    }
    if (std::strcmp(line_.data(), "trace") == 0) {
      const auto& ring = kernel_->trace().events();
      size_t start = ring.Size() > 8 ? ring.Size() - 8 : 0;  // what fits a tx buffer
      size_t pos = 0;
      for (size_t i = start; i < ring.Size() && pos < sizeof(out) - 48; ++i) {
        const TraceEvent& e = ring[i];
        pos += static_cast<size_t>(std::snprintf(
            out + pos, sizeof(out) - pos, "[%llu] %s pid=%d arg=%lu\n",
            (unsigned long long)e.cycle, TraceEventKindName(e.kind),
            e.pid == KernelTrace::kNoPid ? -1 : static_cast<int>(e.pid),
            (unsigned long)e.arg));
      }
      Emit(pos == 0 ? "trace empty\n" : out);
      return;
    }
    if (std::strcmp(line_.data(), "list") == 0) {
      size_t pos = static_cast<size_t>(
          std::snprintf(out, sizeof(out), " idx name      state      syscalls\n"));
      for (size_t i = 0; i < Kernel::kMaxProcesses && pos < sizeof(out) - 64; ++i) {
        Process* p = kernel_->process(i);
        if (p == nullptr || !p->id.IsValid()) {
          continue;
        }
        pos += static_cast<size_t>(std::snprintf(
            out + pos, sizeof(out) - pos, " %3zu %-9s %-10s %llu\n", i, p->name.c_str(),
            ProcessStateName(p->state), (unsigned long long)p->syscall_count));
      }
      Emit(out);
      return;
    }
    if (std::strcmp(line_.data(), "faults") == 0) {
      size_t pos = static_cast<size_t>(
          std::snprintf(out, sizeof(out), " idx name      policy  rst state      last fault\n"));
      for (size_t i = 0; i < Kernel::kMaxProcesses && pos < sizeof(out) - 96; ++i) {
        Process* p = kernel_->process(i);
        if (p == nullptr || !p->id.IsValid()) {
          continue;
        }
        pos += static_cast<size_t>(std::snprintf(
            out + pos, sizeof(out) - pos, " %3zu %-9s %-7s %3lu/%lu %-10s ", i,
            p->name.c_str(), FaultActionName(p->fault_policy.action),
            (unsigned long)p->restart_count, (unsigned long)p->fault_policy.max_restarts,
            ProcessStateName(p->state)));
        if (p->fault_info.vm_fault.kind != VmFault::Kind::kNone) {
          pos += static_cast<size_t>(std::snprintf(
              out + pos, sizeof(out) - pos, "%s pc=%lx @%llu",
              FaultCauseName(FaultCauseArg(p->fault_info.vm_fault)),
              (unsigned long)p->fault_info.vm_fault.pc,
              (unsigned long long)p->fault_info.at_cycle));
        } else {
          pos += static_cast<size_t>(std::snprintf(out + pos, sizeof(out) - pos, "-"));
        }
        if (p->state == ProcessState::kRestartPending) {
          pos += static_cast<size_t>(
              std::snprintf(out + pos, sizeof(out) - pos, " revive@%llu",
                            (unsigned long long)p->restart_due_cycle));
        }
        pos += static_cast<size_t>(std::snprintf(out + pos, sizeof(out) - pos, "\n"));
      }
      Emit(out);
      return;
    }
    if (std::strcmp(line_.data(), "prof") == 0) {
      size_t pos = static_cast<size_t>(std::snprintf(
          out, sizeof(out), " idx name      user      service   sys    up   grant  qmax\n"));
      for (size_t i = 0; i < Kernel::kMaxProcesses && pos < sizeof(out) - 80; ++i) {
        Process* p = kernel_->process(i);
        if (p == nullptr || !p->id.IsValid()) {
          continue;
        }
        ProcStats ps = kernel_->GetProcStats(i);
        pos += static_cast<size_t>(std::snprintf(
            out + pos, sizeof(out) - pos,
            " %3zu %-9s %-9llu %-9llu %-6llu %-4llu %-6llu %llu\n", i, p->name.c_str(),
            (unsigned long long)ps.user_cycles, (unsigned long long)ps.service_cycles,
            (unsigned long long)ps.syscalls, (unsigned long long)ps.upcalls,
            (unsigned long long)ps.grant_high_water,
            (unsigned long long)ps.upcall_queue_max));
      }
      Emit(out);
      return;
    }
    if (std::strcmp(line_.data(), "sched") == 0) {
      size_t pos = static_cast<size_t>(std::snprintf(
          out, sizeof(out), "policy %s  ctxsw %llu\n idx name      pri lvl tsexp  ctxsw\n",
          SchedulerPolicyName(kernel_->scheduler_policy()),
          (unsigned long long)kernel_->stats().context_switches));
      for (size_t i = 0; i < Kernel::kMaxProcesses && pos < sizeof(out) - 64; ++i) {
        Process* p = kernel_->process(i);
        if (p == nullptr || !p->id.IsValid()) {
          continue;
        }
        pos += static_cast<size_t>(std::snprintf(
            out + pos, sizeof(out) - pos, " %3zu %-9s %3u %3lu %-6llu %llu\n", i,
            p->name.c_str(), static_cast<unsigned>(p->priority),
            (unsigned long)p->queue_level, (unsigned long long)p->timeslice_expirations,
            (unsigned long long)p->context_switches));
      }
      Emit(out);
      return;
    }
    if (std::strcmp(line_.data(), "hist") == 0) {
      // Summary lines only: the full bucket breakdown is Kernel::trace().DumpHists(),
      // which does not fit a 512-byte tx buffer.
      const KernelTrace& t = kernel_->trace();
      size_t pos = 0;
      const struct {
        const char* name;
        const Log2Hist* hist;
      } rows[] = {{"syscall", &t.syscall_hist()},
                  {"irq2up", &t.irq_upcall_hist()},
                  {"roundtrip", &t.command_roundtrip_hist()}};
      for (const auto& row : rows) {
        pos += static_cast<size_t>(std::snprintf(
            out + pos, sizeof(out) - pos,
            "%-9s n=%llu min=%llu max=%llu mean=%llu\n", row.name,
            (unsigned long long)row.hist->count(), (unsigned long long)row.hist->min(),
            (unsigned long long)row.hist->max(), (unsigned long long)row.hist->Mean()));
      }
      Emit(out);
      return;
    }
    if (std::strncmp(line_.data(), "stop ", 5) == 0 ||
        std::strncmp(line_.data(), "start ", 6) == 0) {
      bool stop = line_[2] == 'o';  // st[o]p vs st[a]rt
      int idx = std::atoi(line_.data() + (stop ? 5 : 6));
      Process* p = kernel_->process(static_cast<size_t>(idx));
      if (p == nullptr || !p->id.IsValid()) {
        Emit("no such process\n");
        return;
      }
      Result<void> result = stop ? kernel_->StopProcess(p->id, cap_)
                                 : kernel_->RestartProcess(p->id, cap_);
      std::snprintf(out, sizeof(out), "%s %d: %s\n", stop ? "stop" : "start", idx,
                    result.ok() ? "ok" : ErrorCodeName(result.error()));
      Emit(out);
      return;
    }
    if (line_len_ > 0) {
      Emit("unknown command (try 'help')\n");
    }
  }

  Kernel* kernel_;
  ProcessLoader* loader_ = nullptr;
  hil::UartTransmit* tx_;
  hil::UartReceive* rx_;
  OptionalCell<SubSliceMut> tx_buffer_;
  OptionalCell<SubSliceMut> rx_buffer_;
  ProcessManagementCapability cap_;
  std::array<char, 64> line_{};
  size_t line_len_ = 0;
};

}  // namespace tock

#endif  // TOCK_CAPSULE_PROCESS_CONSOLE_H_
