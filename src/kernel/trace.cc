// ERA: 2
#include "kernel/trace.h"

#include <cinttypes>
#include <cstdio>

namespace tock {

void KernelStats::Accumulate(const KernelStats& other) {
  for (const StatRow& row : kStatRows) {
    this->*row.field += other.*row.field;
  }
}

uint32_t FaultCauseArg(const VmFault& fault) {
  uint32_t arg = static_cast<uint32_t>(fault.kind);
  if (fault.kind == VmFault::Kind::kBus) {
    arg |= static_cast<uint32_t>(fault.bus_fault.kind) << 8;
  }
  return arg;
}

const char* FaultCauseName(uint32_t cause_arg) {
  switch (static_cast<VmFault::Kind>(cause_arg & 0xFF)) {
    case VmFault::Kind::kNone:
      return "none";
    case VmFault::Kind::kIllegalInstruction:
      return "illegal-instruction";
    case VmFault::Kind::kMisalignedJump:
      return "misaligned-jump";
    case VmFault::Kind::kBus:
      switch (static_cast<BusFaultKind>((cause_arg >> 8) & 0xFF)) {
        case BusFaultKind::kNone:
          return "bus";
        case BusFaultKind::kUnmapped:
          return "bus-unmapped";
        case BusFaultKind::kMpuViolation:
          return "mpu-violation";
        case BusFaultKind::kFlashWrite:
          return "bus-flash-write";
        case BusFaultKind::kUnalignedMmio:
          return "bus-unaligned-mmio";
      }
      return "bus";
  }
  return "?";
}

const char* TraceEventKindName(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kSyscall:
      return "syscall";
    case TraceEventKind::kContextSwitch:
      return "ctxswitch";
    case TraceEventKind::kMpuReprogram:
      return "mpu";
    case TraceEventKind::kIrqDispatch:
      return "irq";
    case TraceEventKind::kDeferredCall:
      return "deferred";
    case TraceEventKind::kUpcallQueued:
      return "upq";
    case TraceEventKind::kUpcallDelivered:
      return "updeliver";
    case TraceEventKind::kUpcallScrubbed:
      return "upscrub";
    case TraceEventKind::kUpcallDropped:
      return "updrop";
    case TraceEventKind::kGrantAlloc:
      return "grant";
    case TraceEventKind::kSleep:
      return "sleep";
    case TraceEventKind::kProcessFault:
      return "fault";
    case TraceEventKind::kProcessRestart:
      return "restart";
    case TraceEventKind::kProcessExit:
      return "exit";
    case TraceEventKind::kGrantFree:
      return "grantfree";
  }
  return "?";
}

const char* CycleBucketName(CycleBucket bucket) {
  switch (bucket) {
    case CycleBucket::kKernel:
      return "kernel";
    case CycleBucket::kUser:
      return "user";
    case CycleBucket::kService:
      return "service";
    case CycleBucket::kCapsule:
      return "deferred";
    case CycleBucket::kIrq:
      return "irq";
    case CycleBucket::kIdle:
      return "idle";
  }
  return "?";
}

void KernelTrace::DumpStats(std::string& out) const {
  char line[96];
  out += "==== kernel stats ====\n";
  for (const StatRow& row : kStatRows) {
    if (row.domain == StatDomain::kSim) {
      std::snprintf(line, sizeof(line), "%-26s %" PRIu64 "\n", row.name, stats_.*row.field);
      out += line;
    }
  }
}

void DumpLog2Hist(const Log2Hist& hist, const char* name, std::string& out) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%-10s n=%" PRIu64 " min=%" PRIu64 " max=%" PRIu64
                " mean=%" PRIu64 "\n",
                name, hist.count(), hist.min(), hist.max(), hist.Mean());
  out += buf;
  if (hist.count() == 0) {
    return;
  }
  for (size_t i = 0; i < Log2Hist::kBuckets; ++i) {
    if (hist.bucket(i) == 0) {
      continue;
    }
    if (i == Log2Hist::kBuckets - 1) {
      std::snprintf(buf, sizeof(buf), "  [2^%zu,     inf) %" PRIu64 "\n", i,
                    hist.bucket(i));
    } else {
      std::snprintf(buf, sizeof(buf), "  [2^%-2zu, 2^%-2zu) %" PRIu64 "\n", i, i + 1,
                    hist.bucket(i));
    }
    out += buf;
  }
}

void KernelTrace::DumpHists(std::string& out) const {
  out += "==== latency histograms (cycles) ====\n";
  DumpLog2Hist(hist_syscall_, "syscall", out);
  DumpLog2Hist(hist_irq_upcall_, "irq2up", out);
  DumpLog2Hist(hist_roundtrip_, "roundtrip", out);
}

void KernelTrace::DumpTrace(std::string& out) const {
  char line[96];
  std::snprintf(line, sizeof(line),
                "==== trace (%zu events retained, %" PRIu64 " evicted) ====\n",
                ring_.Size(), ring_.Evicted());
  out += line;
  ring_.ForEach([&](const TraceEvent& e) {
    if (e.pid == kNoPid) {
      std::snprintf(line, sizeof(line), "[%10" PRIu64 "] %-10s pid=-  arg=%u\n", e.cycle,
                    TraceEventKindName(e.kind), e.arg);
    } else {
      std::snprintf(line, sizeof(line), "[%10" PRIu64 "] %-10s pid=%u  arg=%u\n", e.cycle,
                    TraceEventKindName(e.kind), e.pid, e.arg);
    }
    out += line;
  });
}

}  // namespace tock
