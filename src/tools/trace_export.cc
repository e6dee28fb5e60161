// ERA: 3
#include "tools/trace_export.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstring>

namespace tock {

namespace {

// One Chrome "thread" per attribution row. Kernel-side rows get small fixed ids;
// process slots start at 10 so new kernel rows can be added without renumbering.
constexpr int kTidKernel = 0;
constexpr int kTidIrq = 1;
constexpr int kTidDeferred = 2;
constexpr int kTidIdle = 3;
constexpr int kTidProcBase = 10;

int TidFor(CycleBucket bucket, uint8_t pid) {
  switch (bucket) {
    case CycleBucket::kUser:
    case CycleBucket::kService:
      return kTidProcBase + pid;
    case CycleBucket::kIrq:
      return kTidIrq;
    case CycleBucket::kCapsule:
      return kTidDeferred;
    case CycleBucket::kIdle:
      return kTidIdle;
    case CycleBucket::kKernel:
      return kTidKernel;
  }
  return kTidKernel;
}

int TidForEvent(uint8_t pid) {
  return pid == KernelTrace::kNoPid ? kTidKernel : kTidProcBase + pid;
}

void Append(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  out += buf;
}

// Process names come from TBF headers; escape the JSON-significant characters
// anyway so a hostile image cannot corrupt the document.
std::string EscapeJson(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out;
}

void AppendThreadName(std::string& out, int tid, const char* name) {
  Append(out,
         "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,"
         "\"args\":{\"name\":\"%s\"}},\n",
         tid, name);
}

void AppendHist(std::string& out, const char* name, const Log2Hist& hist, bool last) {
  Append(out, "    \"%s\":{\"count\":%" PRIu64 ",\"sum\":%" PRIu64 ",\"min\":%" PRIu64
              ",\"max\":%" PRIu64 ",\"mean\":%" PRIu64 ",\"buckets\":[",
         name, hist.count(), hist.sum(), hist.min(), hist.max(), hist.Mean());
  for (size_t i = 0; i < Log2Hist::kBuckets; ++i) {
    Append(out, i == 0 ? "%" PRIu64 : ",%" PRIu64, hist.bucket(i));
  }
  out += last ? "]}\n" : "]},\n";
}

}  // namespace

std::string ExportChromeTrace(Kernel& kernel) {
  const KernelTrace& trace = kernel.trace();
  std::string out;
  out.reserve(64 * 1024);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  Append(out,
         "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
         "\"args\":{\"name\":\"tock-sim\"}},\n");
  AppendThreadName(out, kTidKernel, "kernel");
  AppendThreadName(out, kTidIrq, "irq");
  AppendThreadName(out, kTidDeferred, "deferred");
  AppendThreadName(out, kTidIdle, "idle");
  for (size_t i = 0; i < Kernel::kMaxProcesses; ++i) {
    Process* p = kernel.process(i);
    if (p != nullptr && p->id.IsValid()) {
      char label[64];
      std::snprintf(label, sizeof(label), "proc %zu: %s", i,
                    EscapeJson(p->name).c_str());
      AppendThreadName(out, kTidProcBase + static_cast<int>(i), label);
    }
  }

  // Attributed spans (kernel/cycle_accounting.h) as duration events. The ring keeps
  // the newest kSpanDepth spans; older ones were evicted and simply don't render.
  trace.accounting().spans().ForEach([&](const CycleSpan& span) {
    Append(out,
           "{\"name\":\"%s\",\"cat\":\"cycles\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
           "\"ts\":%" PRIu64 ",\"dur\":%" PRIu64 "},\n",
           CycleBucketName(span.bucket), TidFor(span.bucket, span.pid), span.start,
           span.end - span.start);
  });

  // kSleep events carry their duration in a 32-bit arg; sleeps too long to fit were
  // saturated (stats.sleep_arg_saturations counts them). Reconstruct those from the
  // sleep_cycles total: whatever the unsaturated retained events don't explain is
  // split evenly over the saturated ones. An estimate (evicted events and a sleep
  // still open also go unexplained), but saturated sleeps are >2^32 cycles and
  // dwarf everything else.
  const KernelStats& stats = trace.stats();
  uint64_t unsaturated_sum = 0;
  uint64_t saturated_count = 0;
  trace.events().ForEach([&](const TraceEvent& e) {
    if (e.kind == TraceEventKind::kSleep) {
      if (e.arg == UINT32_MAX && stats.sleep_arg_saturations > 0) {
        ++saturated_count;
      } else {
        unsaturated_sum += e.arg;
      }
    }
  });
  uint64_t saturated_share = 0;
  if (saturated_count > 0 && stats.sleep_cycles > unsaturated_sum) {
    saturated_share = (stats.sleep_cycles - unsaturated_sum) / saturated_count;
  }

  // The raw event ring as instants, newest-kept like the spans.
  trace.events().ForEach([&](const TraceEvent& e) {
    uint64_t arg = e.arg;
    if (e.kind == TraceEventKind::kSleep && e.arg == UINT32_MAX &&
        saturated_share > 0) {
      arg = saturated_share;
    }
    Append(out,
           "{\"name\":\"%s\",\"cat\":\"event\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,"
           "\"tid\":%d,\"ts\":%" PRIu64 ",\"args\":{\"arg\":%" PRIu64 "}},\n",
           TraceEventKindName(e.kind), TidForEvent(e.pid), e.cycle, arg);
  });

  // Trailing metadata event so every prior line could end with a comma.
  Append(out, "{\"name\":\"clock_sync\",\"ph\":\"M\",\"pid\":1,\"args\":{\"now\":%" PRIu64
              "}}\n],\n",
         kernel.mcu()->CyclesNow());

  // Non-standard sidecar (Chrome ignores unknown top-level keys): the aggregate
  // counters and latency histograms, for scripted consumers of the same file.
  out += "\"tockStats\":{\n";
  // Sim rows only (kernel/trace.h): the sidecar is golden-locked, and no host
  // machinery (telemetry, interpreter caches, paging, the fleet calendar) may
  // change a byte of the artifact.
  const char* sep = "";
  for (const StatRow& row : kStatRows) {
    if (row.domain == StatDomain::kSim) {
      Append(out, "%s  \"%s\":%" PRIu64, sep, row.name, stats.*row.field);
      sep = ",\n";
    }
  }
  out += "\n},\n\"tockHists\":{\n";
  AppendHist(out, "syscall", trace.syscall_hist(), false);
  AppendHist(out, "irq_upcall", trace.irq_upcall_hist(), false);
  AppendHist(out, "command_roundtrip", trace.command_roundtrip_hist(), true);
  out += "}";

  // Scheduler sidecar (kernel/scheduler.h): the active policy and each process's
  // decision/context-switch counters and policy state. Emitted only under
  // non-default policies — the golden export (tests/golden/) is recorded under
  // round-robin and must stay byte-identical.
  if (kernel.scheduler_policy() != SchedulerPolicy::kRoundRobin) {
    Append(out, ",\n\"tockSched\":{\"policy\":\"%s\",\"perProcess\":[\n",
           SchedulerPolicyName(kernel.scheduler_policy()));
    bool first = true;
    for (size_t i = 0; i < Kernel::kMaxProcesses; ++i) {
      Process* p = kernel.process(i);
      if (p == nullptr || !p->id.IsValid()) {
        continue;
      }
      Append(out,
             "%s  {\"pid\":%zu,\"decisions\":%" PRIu64 ",\"contextSwitches\":%" PRIu64
             ",\"timesliceExpirations\":%" PRIu64 ",\"priority\":%u,\"queueLevel\":%u}",
             first ? "" : ",\n", i, trace.sched_decisions(i),
             trace.proc_context_switches(i), p->timeslice_expirations,
             static_cast<unsigned>(p->priority), static_cast<unsigned>(p->queue_level));
      first = false;
    }
    out += "\n]}";
  }
  out += "}\n";
  return out;
}

bool WriteChromeTrace(Kernel& kernel, const std::string& path) {
  std::string doc = ExportChromeTrace(kernel);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return false;
  }
  size_t written = std::fwrite(doc.data(), 1, doc.size(), f);
  bool ok = (std::fclose(f) == 0) && written == doc.size();
  return ok;
}

}  // namespace tock
