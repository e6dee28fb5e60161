// Fleet benchmark harness: builds one simulated deployment through the public
// Fleet / SimBoard / AppInstaller / OtaGateway API, runs it for a simulated span
// on an optimized build, checks the simulated results exactly, and reports host
// time and throughput. Three workloads, each dominated by one layer:
//
//   compute_fleet  1,000 radio-less boards sharing one copy-on-write image of a
//                  CPU-bound spinner plus a duty-cycled app   -> vm
//   beacon_mesh    256 boards in a full lossless mesh, each beaconing to and
//                  listening for every other                 -> hw radio, kernel
//   ota_campaign   1 gateway pushing a signed update to 127 mostly idle
//                  subscribers over lossy links              -> board epochs, capsules
//
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// (--trace 1) wrap each call into a module in a span, read every module's
// counters and report the per-layer metrics plus a Chrome trace-event file.
// The last stdout line is one JSON object; fleetbench/run.py wraps it.
//
//   fleet_bench --workload beacon_mesh --seed 1 --seconds 20 --trace 0
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "board/fleet.h"
#include "board/sim_board.h"

#ifndef FLEETBENCH_BUILD_TYPE
#define FLEETBENCH_BUILD_TYPE "unknown"
#endif
#ifndef FLEETBENCH_CXX_FLAGS
#define FLEETBENCH_CXX_FLAGS "unknown"
#endif
#ifndef FLEETBENCH_COMPILER
#define FLEETBENCH_COMPILER "unknown"
#endif

namespace {

using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---- Spans ------------------------------------------------------------------

// In-memory span recorder for the traced run: one span per call the harness
// makes into a module, with its parent (the enclosing span), written out as a
// Chrome trace-event file when the run ends.
class Tracer {
 public:
  struct Span {
    const char* name;
    const char* layer;
    int64_t start_ns;
    int64_t end_ns;
    int parent;
  };

  int Begin(const char* name, const char* layer) {
    int id = static_cast<int>(spans_.size());
    spans_.push_back(Span{name, layer, NowNs(), 0, stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(id);
    return id;
  }

  void End(int id) {
    spans_[static_cast<size_t>(id)].end_ns = NowNs();
    stack_.pop_back();
  }

  // Summed duration of every span called `name`.
  double TotalSeconds(const char* name) const {
    int64_t total = 0;
    for (const Span& s : spans_) {
      if (std::strcmp(s.name, name) == 0) {
        total += s.end_ns - s.start_ns;
      }
    }
    return static_cast<double>(total) / 1e9;
  }

  uint64_t Count(const char* name) const {
    return static_cast<uint64_t>(std::count_if(spans_.begin(), spans_.end(), [&](const Span& s) {
      return std::strcmp(s.name, name) == 0;
    }));
  }

  std::vector<double> DurationsMs(const char* name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (std::strcmp(s.name, name) == 0) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
      }
    }
    return out;
  }

  // Chrome trace-event JSON (opens in Perfetto / chrome://tracing): one "X"
  // event per span on one track, nesting by time; args carry the span id and
  // its parent id so the causal tree survives any viewer.
  bool WriteChrome(const std::string& path, const std::string& process_name) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    std::fprintf(f,
                 "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
                 "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
                 "\"args\":{\"name\":\"%s\"}}",
                 process_name.c_str());
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d}}",
                   s.name, s.layer, static_cast<double>(s.start_ns) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// RAII span; a null tracer (the untraced run) records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, const char* layer)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->Begin(name, layer) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->End(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

// ---- Simulated apps -----------------------------------------------------------

// CPU-bound spinner (tools/fleet's compute filler): never sleeps, so the VM
// does all of a compute board's work.
const char* kComputeApp = R"(
_start:
    li s0, 0
    li s1, 1
    li s2, 0x1234
loop:
    add s0, s0, s1
    xor s3, s0, s2
    slli s4, s3, 3
    srli s5, s3, 5
    or s6, s4, s5
    sub s7, s6, s0
    sltu s8, s0, s7
    andi s9, s7, 255
    add s2, s2, s8
    j loop
)";

// Duty-cycled burst (bench/tab_fleet_scaling's duty app): a short ALU burst,
// one RAM write, then an alarm sleep.
const char* kDutyApp = R"(
_start:
    mv s0, a0
    li s2, 0x9E37
loop:
    li t1, 2000
inner:
    addi s1, s1, 1
    xor s3, s1, s2
    add s2, s2, s3
    addi t1, t1, -1
    bnez t1, inner
    sw s1, 0(s0)
    li a0, 60000
    call sleep_ticks
    j loop
)";

// Beacon: after its phase, broadcast [node, seq] every 200k cycles.
std::string BeaconApp(int node_id, uint32_t phase) {
  char buf[1024];
  std::snprintf(buf, sizeof(buf), R"(
_start:
    mv s0, a0
    li s1, 0
    li a0, %u
    call sleep_ticks
loop:
    li t0, %d
    sb t0, 0(s0)
    sb s1, 1(s0)
    li a0, 0x30001
    li a1, 0
    mv a2, s0
    li a3, 2
    li a4, 4
    ecall
    li a0, 0x30001
    li a1, 1
    li a2, 0xFFFF
    li a3, 2
    li a4, 2
    ecall
    li a0, 2
    li a1, 0x30001
    li a2, 0
    li a4, 0
    ecall
    addi s1, s1, 1
    andi s1, s1, 255
    li a0, 200000
    call sleep_ticks
    j loop
)",
                phase, node_id);
  return buf;
}

// Listener: arm the radio RX sink, then wait for beacon after beacon. It keeps
// no tally (the radio counts receptions), so each reception costs the kernel an
// IRQ, a capsule callback, an upcall and one yield, and the VM only a handful
// of instructions.
const char* kListenerApp = R"(
_start:
    mv s0, a0
    li a0, 0x30001
    li a1, 1
    addi a2, s0, 64
    li a3, 8
    li a4, 3
    ecall
    li a0, 0x30001
    li a1, 2
    li a2, 0
    li a3, 0
    li a4, 2
    ecall
loop:
    li a0, 2
    li a1, 0x30001
    li a2, 1
    li a4, 0
    ecall
    j loop
)";

// OTA subscriber baseline: a signed app that only sleeps.
const char* kIdleApp = "_start:\nloop:\n    li a0, 100000\n    call sleep_ticks\n    j loop\n";

// The pushed update: another signed sleeper, padded to ~2 KiB of image.
const char* kUpdateApp =
    "_start:\nloop:\n    li a0, 150000\n    call sleep_ticks\n    j loop\n"
    "pad:\n    .space 1024\n";

// ---- Workloads ----------------------------------------------------------------

enum class Kind { kCompute, kBeacon, kOta };

struct Params {
  const char* name = "";
  Kind kind = Kind::kCompute;
  size_t boards = 0;
  // Fixed simulated span (compute, beacon) or the give-up budget (ota, which
  // runs until every subscriber resolved).
  uint64_t span_cycles = 0;
  // Fleet::Run chunk length; the same in untraced and traced runs.
  uint64_t chunk_cycles = 0;
  // Set-ups timed back to back as one setup_s sample: about 0.5 s of set-up.
  size_t setup_batch = 1;
  // Link-fault rates (permille), ota only.
  uint32_t drop = 0, dup = 0, reorder = 0, corrupt = 0;
};

bool ParamsFor(const std::string& name, bool tiny, Params* p) {
  if (name == "compute_fleet") {
    *p = Params{.name = "compute_fleet", .kind = Kind::kCompute, .boards = 1000,
                .span_cycles = 1'000'000, .chunk_cycles = 10'000, .setup_batch = 64};
    if (tiny) {
      p->boards = 6;
      p->span_cycles = 400'000;
    }
  } else if (name == "beacon_mesh") {
    *p = Params{.name = "beacon_mesh", .kind = Kind::kBeacon, .boards = 256,
                .span_cycles = 5'000'000, .chunk_cycles = 50'000, .setup_batch = 12};
    if (tiny) {
      p->boards = 8;
      p->span_cycles = 1'000'000;
    }
  } else if (name == "ota_campaign") {
    *p = Params{.name = "ota_campaign", .kind = Kind::kOta, .boards = 128,
                .span_cycles = 2'000'000'000, .chunk_cycles = 1'000'000, .setup_batch = 250,
                .drop = 100, .dup = 20, .reorder = 20, .corrupt = 20};
    if (tiny) {
      p->boards = 6;
    }
  } else {
    return false;
  }
  if (tiny) {
    p->setup_batch = 1;
  }
  return true;
}

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// Key of the fixed beacon phases (any constant; not the seed).
constexpr uint64_t kBeaconPhaseKey = 0x5EED5107;

// A built fleet. `fleet` is declared first so it outlives the boards whose
// radios attach to its medium.
struct Deployment {
  std::unique_ptr<tock::Fleet> fleet;
  std::vector<std::unique_ptr<tock::SimBoard>> boards;
  std::vector<std::string> errors;
};

// Builds one signed or unsigned image into a fleet-shared flash base at *next.
bool AddSharedImage(const char* name, const char* source, bool runtime, bool sign,
                    std::vector<uint8_t>* flash, uint32_t* next, Tracer* tr,
                    std::string* error) {
  tock::AppSpec spec;
  spec.name = name;
  spec.source = source;
  spec.include_runtime = runtime;
  spec.sign = sign;
  std::vector<uint8_t> image;
  {
    ScopedSpan span(tr, "BuildAppImage", "libtock");
    image = tock::BuildAppImage(spec, *next, tock::SimBoard::kDeviceKey, error);
  }
  if (image.empty() || *next + image.size() > tock::SimBoard::kAppFlashEnd) {
    return false;
  }
  std::copy(image.begin(), image.end(), flash->begin() + *next);
  *next += static_cast<uint32_t>(image.size());
  return true;
}

// Everything from an empty process to a ready fleet: image build, board
// construction, install, boot, clock alignment and OTA configuration.
Deployment Setup(const Params& p, uint64_t seed, Tracer* tr) {
  ScopedSpan setup_span(tr, "setup", "bench");
  Deployment d;
  // One host thread steps each fleet (FleetConfig's default). With two, the
  // time of a run follows two vCPUs of a shared host and the worker each
  // Fleet::Run call starts: compute_fleet's spread between runs was 7.5-33%
  // over five sets at 2 threads, against 2.5% and 6.3% at 1 (README.md,
  // Fleet threads).
  tock::FleetConfig fc;
  if (p.kind == Kind::kOta) {
    fc.link_faults.seed = seed;
    fc.link_faults.drop_permille = p.drop;
    fc.link_faults.duplicate_permille = p.dup;
    fc.link_faults.reorder_permille = p.reorder;
    fc.link_faults.corrupt_permille = p.corrupt;
  }
  {
    ScopedSpan span(tr, "Fleet::Fleet", "board");
    d.fleet = std::make_unique<tock::Fleet>(fc);
  }

  // compute_fleet and ota_campaign boards adopt one immutable flash image
  // shared copy-on-write across the fleet.
  std::shared_ptr<const std::vector<uint8_t>> shared;
  uint32_t shared_next = tock::SimBoard::kAppFlashBase;
  if (p.kind != Kind::kBeacon) {
    auto flash = std::make_shared<std::vector<uint8_t>>(tock::MemoryMap::kFlashSize,
                                                        uint8_t{0xFF});
    std::string error;
    bool ok = p.kind == Kind::kCompute
                  ? AddSharedImage("compute", kComputeApp, false, false, flash.get(),
                                   &shared_next, tr, &error) &&
                        AddSharedImage("duty", kDutyApp, true, false, flash.get(),
                                       &shared_next, tr, &error)
                  : AddSharedImage("idle", kIdleApp, true, true, flash.get(), &shared_next,
                                   tr, &error);
    if (!ok) {
      d.errors.push_back("shared image build failed: " + error);
      return d;
    }
    shared = flash;
  }

  // beacon_mesh beacon phases. The 200k-cycle beacon period is cut into one
  // slot per board, and boards take the slots in a shuffled order, each with a
  // jitter inside its slot, so broadcasts interleave instead of piling up. Both
  // are drawn from a constant, not the seed: host time depends on the phases at
  // equal simulated work (README.md, Finding 4), so seeded phases would make
  // runs with different seeds incomparable, and board order, the cheapest order
  // measured, would hide that cost.
  std::vector<uint32_t> phase_of;
  if (p.kind == Kind::kBeacon) {
    const uint32_t slot = 200'000 / static_cast<uint32_t>(p.boards);
    std::vector<uint32_t> order(p.boards);
    std::iota(order.begin(), order.end(), 0u);
    uint64_t draw = kBeaconPhaseKey;
    for (size_t i = order.size(); i > 1; --i) {
      draw = SplitMix64(draw);
      std::swap(order[i - 1], order[draw % i]);
    }
    for (size_t i = 0; i < p.boards; ++i) {
      draw = SplitMix64(draw);
      phase_of.push_back(1 + order[i] * slot + static_cast<uint32_t>(draw % (slot / 4 + 1)));
    }
  }

  static constexpr tock::SchedulerPolicy kPolicies[] = {
      tock::SchedulerPolicy::kRoundRobin, tock::SchedulerPolicy::kPriority,
      tock::SchedulerPolicy::kMlfq};
  d.boards.reserve(p.boards);
  for (size_t i = 0; i < p.boards; ++i) {
    tock::BoardConfig bc;
    bc.rng_seed = static_cast<uint32_t>(SplitMix64(seed * 0x10000 + i));
    bc.radio_addr = static_cast<uint16_t>(i + 1);
    bc.allow_scheduler_env = false;
    int expected = 0;
    if (p.kind == Kind::kCompute) {
      bc.kernel.scheduler.policy = kPolicies[i % 3];
      expected = 2;
    } else if (p.kind == Kind::kBeacon) {
      bc.medium = &d.fleet->medium();
      expected = 2;
    } else {
      bc.medium = &d.fleet->medium();
      bc.ota.role = i == 0 ? tock::OtaRole::kGateway : tock::OtaRole::kSubscriber;
      if (i != 0) {
        bc.kernel.loader = tock::LoaderMode::kAsynchronous;
        expected = 1;
      }
    }
    std::unique_ptr<tock::SimBoard> board;
    {
      ScopedSpan span(tr, "SimBoard::SimBoard", "board");
      board = std::make_unique<tock::SimBoard>(bc);
    }
    if (shared != nullptr && !(p.kind == Kind::kOta && i == 0)) {
      ScopedSpan span(tr, "MemoryBus::AdoptFlashBase", "hw");
      board->mcu().bus().AdoptFlashBase(shared);
      board->installer().set_next_addr(shared_next);
    }
    if (p.kind == Kind::kBeacon) {
      tock::AppSpec beacon;
      beacon.name = "beacon";
      beacon.source = BeaconApp(static_cast<int>(i + 1), phase_of[i]);
      tock::AppSpec listener;
      listener.name = "listener";
      listener.source = kListenerApp;
      for (const tock::AppSpec* spec : {&beacon, &listener}) {
        ScopedSpan span(tr, "AppInstaller::Install", "libtock");
        if (board->installer().Install(*spec) == 0) {
          d.errors.push_back("board " + std::to_string(i) +
                             ": install failed: " + board->installer().error());
          return d;
        }
      }
    }
    int booted = 0;
    {
      ScopedSpan span(tr, "SimBoard::Boot", "kernel");
      booted = board->Boot();
    }
    if (booted != expected) {
      d.errors.push_back("board " + std::to_string(i) + ": booted " + std::to_string(booted) +
                         " processes, expected " + std::to_string(expected));
    }
    {
      ScopedSpan span(tr, "Fleet::AddBoard", "board");
      d.fleet->AddBoard(board.get());
    }
    d.boards.push_back(std::move(board));
  }
  {
    ScopedSpan span(tr, "Fleet::AlignClocks", "board");
    d.fleet->AlignClocks();
  }

  if (p.kind == Kind::kOta) {
    // Every subscriber carries the same baseline image, so all resolve one
    // staging address; the gateway's image is built for exactly that address.
    uint32_t staging = d.boards[1]->ota_staging_addr();
    for (size_t i = 2; i < d.boards.size(); ++i) {
      if (d.boards[i]->ota_staging_addr() != staging) {
        d.errors.push_back("subscribers disagree on the OTA staging address");
        return d;
      }
    }
    tock::AppSpec update;
    update.name = "update";
    update.source = kUpdateApp;
    update.sign = true;
    std::string error;
    std::vector<uint8_t> image;
    {
      ScopedSpan span(tr, "BuildAppImage", "libtock");
      image = tock::BuildAppImage(update, staging, tock::SimBoard::kDeviceKey, &error);
    }
    if (image.empty()) {
      d.errors.push_back("update image build failed: " + error);
      return d;
    }
    std::vector<uint16_t> subscribers;
    for (size_t i = 1; i < d.boards.size(); ++i) {
      subscribers.push_back(static_cast<uint16_t>(i + 1));
    }
    tock::OtaGateway& gateway = d.boards[0]->ota_gateway();
    {
      ScopedSpan span(tr, "OtaGateway::Configure", "capsule");
      gateway.Configure(std::move(image), subscribers);
    }
    {
      ScopedSpan span(tr, "OtaGateway::StartPush", "capsule");
      gateway.StartPush();
    }
  }
  return d;
}

// ---- Counters and fingerprint -------------------------------------------------

// Counters read off the fleet at one instant; run-span figures are deltas of
// two snapshots, gauges are read at the end.
struct Snapshot {
  tock::FleetStats fleet;
  uint64_t mmio_accesses = 0;
  uint64_t resident_bytes = 0;
  uint64_t loads_created = 0;
  uint64_t loads_rejected = 0;
};

Snapshot Snap(Deployment& d, Tracer* tr) {
  Snapshot s;
  {
    ScopedSpan span(tr, "Fleet::Stats", "board");
    s.fleet = d.fleet->Stats();
  }
  ScopedSpan span(tr, "read board counters", "hw");
  for (const auto& board : d.boards) {
    s.mmio_accesses += board->mcu().bus().mmio_accesses();
    s.resident_bytes += board->mcu().bus().resident_bytes();
    s.loads_created += static_cast<uint64_t>(board->loader().created_count());
    s.loads_rejected += static_cast<uint64_t>(board->loader().rejected_count());
  }
  return s;
}

class Fnv {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ = (h_ ^ ((v >> (8 * i)) & 0xFF)) * 0x100000001B3ull;
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xCBF29CE484222325ull;
};

// Simulated state of every board: clock, retired instructions, syscalls,
// context switches, upcalls, faults, sleep, radio and OTA state. Host-only
// counters (vm caches, paging, idle skips) are left out, so the value is the
// same for any thread count and any host-side optimisation. So are the
// supervisor's wedge counts: whether a wedged board is stepped or idle-skipped
// in an epoch depends on whether a peer on another thread has already queued a
// frame for it, so the count can differ between identical runs.
uint64_t Fingerprint(Deployment& d) {
  Fnv h;
  for (size_t i = 0; i < d.boards.size(); ++i) {
    tock::SimBoard& b = *d.boards[i];
    const tock::KernelStats& k = b.kernel().stats();
    for (uint64_t v : {b.mcu().CyclesNow(), b.kernel().instructions_retired(), k.SyscallsTotal(),
                       k.context_switches, k.irq_dispatches, k.upcalls_queued,
                       k.upcalls_delivered, k.upcalls_dropped, k.process_faults,
                       b.mcu().active_cycles(), b.mcu().sleep_cycles(),
                       b.radio_hw().packets_sent(), b.radio_hw().packets_received(),
                       b.radio_hw().rx_overruns()}) {
      h.Add(v);
    }
    tock::LinkFaultCounters f = b.radio_hw().fault_counters();
    for (uint64_t v : {f.dropped, f.duplicated, f.reordered, f.corrupted}) {
      h.Add(v);
    }
    const tock::OtaSubscriber& sub = b.ota_subscriber();
    const tock::OtaSubscriberStats& ss = sub.stats();
    for (uint64_t v : {uint64_t{static_cast<uint8_t>(sub.state())}, uint64_t{sub.last_status()},
                       ss.announces, ss.chunks_received, ss.frame_crc_failures,
                       ss.chunk_crc_failures, ss.duplicate_chunks, ss.load_attempts,
                       ss.loads_rejected}) {
      h.Add(v);
    }
    const tock::OtaGateway& gw = b.ota_gateway();
    const tock::OtaGatewayStats& gs = gw.stats();
    for (uint64_t v : {gs.frames_sent, gs.retransmits, gs.image_repushes, gs.acks_received,
                       gs.statuses_received, gs.converged, gs.failed}) {
      h.Add(v);
    }
    for (size_t j = 0; j < gw.peer_count(); ++j) {
      h.Add(static_cast<uint8_t>(gw.peer_state(j)));
    }
  }
  return h.value();
}

// ---- One repetition -----------------------------------------------------------

struct Rep {
  double run_s = 0;
  std::vector<double> chunk_s;  // host seconds of each Fleet::Run chunk of the span
  uint64_t span_cycles = 0;  // simulated cycles each board ran
  uint64_t chunks = 0;
  uint64_t epochs = 0;
  uint64_t converge_cycles = 0;  // ota: span until every subscriber converged
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double failed_frac = 0;
  uint64_t ota_converged = 0;  // subscribers running the update, by their own state
  uint64_t wedged_boards = 0;  // boards that wedged at least once
  tock::OtaGatewayStats gateway;    // ota: board 0's ledger
  tock::OtaSubscriberStats subs;    // ota: summed over subscribers
  Snapshot before, after;
  uint64_t fingerprint = 0;
  std::vector<std::string> errors;
};

bool AllSubscribersConverged(Deployment& d) {
  for (size_t i = 1; i < d.boards.size(); ++i) {
    if (!d.boards[i]->ota_subscriber().Converged()) {
      return false;
    }
  }
  return true;
}

// Post-run invariants of each workload; also fills attempted/failed.
void CheckInvariants(const Params& p, Deployment& d, Tracer* tr, Rep* r) {
  size_t n = d.boards.size();
  if (p.kind == Kind::kCompute) {
    // Operation = a board; it fails if a process faulted or the board wedged.
    r->attempted = n;
    for (size_t i = 0; i < n; ++i) {
      bool bad = d.boards[i]->kernel().stats().process_faults != 0 ||
                 d.fleet->health(i).wedge_events != 0 ||
                 d.boards[i]->kernel().NumLiveProcesses() != 2;
      r->failed += bad ? 1 : 0;
    }
    r->failed_frac = static_cast<double>(r->failed) / static_cast<double>(n);
  } else if (p.kind == Kind::kBeacon) {
    if (d.fleet->Stats().aggregate.process_faults != 0) {
      r->errors.push_back("beacon_mesh: process fault");
    }
    // Boards whose beacon stopped for good: a transmit-done interrupt can be
    // lost (ChipRadio::HandleInterrupt clears status bits that an event raised
    // during its own MMIO accesses), leaving the beacon waiting forever and the
    // board wedging whenever no frame is due. Reported, not gated: the
    // workload's gate is frame conservation, which still holds.
    for (size_t i = 0; i < n; ++i) {
      r->wedged_boards += d.fleet->health(i).wedge_events != 0 ? 1 : 0;
    }
    // Drain (untimed): stop every beacon, let frames in flight land, then every
    // frame sent must be accounted for at all n-1 peers as a reception or an
    // RX overrun: tx * (n-1) = rx + overruns + in flight, with none in flight.
    {
      ScopedSpan span(tr, "Kernel::StopProcess", "kernel");
      for (const auto& board : d.boards) {
        tock::Kernel& k = board->kernel();
        for (size_t j = 0; j < tock::Kernel::kMaxProcesses; ++j) {
          tock::Process* proc = k.process(j);
          if (proc != nullptr && proc->IsAlive() && proc->name == "beacon") {
            (void)k.StopProcess(proc->id, board->pm_cap());
          }
        }
      }
    }
    {
      ScopedSpan span(tr, "Fleet::Run drain", "board");
      d.fleet->Run(20 * tock::RadioMedium::Lookahead());
    }
    uint64_t tx = 0, rx = 0, ovr = 0;
    for (const auto& board : d.boards) {
      tx += board->radio_hw().packets_sent();
      rx += board->radio_hw().packets_received();
      ovr += board->radio_hw().rx_overruns();
    }
    r->attempted = tx * (n - 1);
    r->failed = r->attempted > rx + ovr ? r->attempted - (rx + ovr) : 0;
    if (r->attempted != rx + ovr) {
      r->errors.push_back("radio conservation: tx*(n-1)=" + std::to_string(r->attempted) +
                          " but rx+overruns=" + std::to_string(rx + ovr));
    }
    r->failed_frac = r->attempted != 0 ? static_cast<double>(ovr) /
                                             static_cast<double>(r->attempted)
                                       : 0.0;
  } else {
    // Operation = a subscriber; it fails unless its own state says it runs the
    // update AND the gateway holds it as converged. The gateway's converged
    // ledger is not used: it counts duplicated status frames.
    const tock::OtaGateway& gw = d.boards[0]->ota_gateway();
    r->attempted = n - 1;
    for (size_t i = 1; i < n; ++i) {
      bool ok = d.boards[i]->ota_subscriber().Converged() && i - 1 < gw.peer_count() &&
                gw.peer_state(i - 1) == tock::OtaGateway::PeerState::kConverged;
      r->ota_converged += ok ? 1 : 0;
    }
    r->failed = r->attempted - r->ota_converged;
    r->gateway = gw.stats();
    for (size_t i = 1; i < n; ++i) {
      const tock::OtaSubscriberStats& ss = d.boards[i]->ota_subscriber().stats();
      r->subs.chunks_received += ss.chunks_received;
      r->subs.duplicate_chunks += ss.duplicate_chunks;
      r->subs.frame_crc_failures += ss.frame_crc_failures;
      r->subs.chunk_crc_failures += ss.chunk_crc_failures;
    }
    r->failed_frac = static_cast<double>(r->failed) / static_cast<double>(r->attempted);
  }
  if (p.kind != Kind::kBeacon && r->failed != 0) {
    r->errors.push_back(std::to_string(r->failed) + " of " + std::to_string(r->attempted) +
                        " operations failed");
  }
}

Rep RunRep(const Params& p, uint64_t seed, Tracer* tr) {
  Rep r;
  ScopedSpan rep_span(tr, p.name, "bench");
  Deployment d = Setup(p, seed, tr);
  r.errors = d.errors;
  if (!r.errors.empty()) {
    return r;
  }
  r.before = Snap(d, tr);
  const uint64_t slice = d.fleet->EffectiveSlice();

  Clock::time_point t2 = Clock::now();
  {
    ScopedSpan run_span(tr, "run", "bench");
    // compute_fleet and beacon_mesh run their fixed span; ota_campaign runs
    // until the gateway resolved every subscriber (its span is only a budget)
    // and notes the chunk by which the last subscriber converged.
    const tock::OtaGateway& gw = d.boards[0]->ota_gateway();
    const bool ota = p.kind == Kind::kOta;
    while (r.span_cycles < p.span_cycles && !(ota && gw.Done())) {
      const uint64_t step = std::min(p.chunk_cycles, p.span_cycles - r.span_cycles);
      {
        ScopedSpan span(tr, "Fleet::Run", "board");
        Clock::time_point c0 = Clock::now();
        d.fleet->Run(step);
        r.chunk_s.push_back(SecondsBetween(c0, Clock::now()));
      }
      ++r.chunks;
      r.epochs += (step + slice - 1) / slice;
      r.span_cycles += step;
      if (ota && r.converge_cycles == 0 && AllSubscribersConverged(d)) {
        r.converge_cycles = r.span_cycles;
      }
    }
  }
  Clock::time_point t3 = Clock::now();
  r.run_s = SecondsBetween(t2, t3);
  r.after = Snap(d, tr);

  CheckInvariants(p, d, tr, &r);
  r.fingerprint = Fingerprint(d);
  {
    // Teardown is outside every timed span.
    ScopedSpan span(tr, "teardown", "bench");
    d.boards.clear();
    d.fleet.reset();
  }
  return r;
}

// One setup_s sample: p.setup_batch set-ups back to back, each fleet torn down
// before the next is built. The clock runs only while a fleet is being set up,
// so the sample is the batch's set-up time over its size, about 0.5 s of
// set-up in all rather than one short span.
double SetupBatch(const Params& p, uint64_t seed, std::vector<std::string>* errors) {
  double total = 0;
  for (size_t k = 0; k < p.setup_batch; ++k) {
    Clock::time_point t0 = Clock::now();
    Deployment d = Setup(p, seed, nullptr);
    total += SecondsBetween(t0, Clock::now());
    if (!d.errors.empty()) {
      errors->insert(errors->end(), d.errors.begin(), d.errors.end());
      break;
    }
  }
  return total / static_cast<double>(p.setup_batch);
}

// ---- Statistics and output ----------------------------------------------------

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

// Nearest-rank percentile (the sample itself, not an interpolation).
double NearestRank(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(v.size()) + 0.999999);
  return v[std::min(std::max<size_t>(rank, 1), v.size()) - 1];
}

double Ratio(double num, double den) { return den != 0 ? num / den : 0.0; }

// Host seconds of the simulated span at the run's 90th-percentile host speed.
// Every repetition runs the same chunks of identical simulated work, so chunk
// i's median over the repetitions is its typical cost, and each execution of
// it over that median samples how slow the host was just then. The span's
// typical cost times the 90th percentile of all those samples is its time at
// the host's 90th-percentile slowness. The shared host this was built on
// switches, for seconds to minutes at a time, between a fast state and one
// about 1.5-2x slower for the radio workloads; a median sits between the two
// states and moves with how long each lasted (README.md, "Why the 90th
// percentile").
double SpanSeconds(const std::vector<Rep>& reps) {
  size_t n = reps.front().chunk_s.size();
  for (const Rep& r : reps) {
    n = std::min(n, r.chunk_s.size());
  }
  double typical = 0;
  std::vector<double> slowdown;
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> t;
    for (const Rep& r : reps) {
      t.push_back(r.chunk_s[i]);
    }
    const double m = Median(t);
    typical += m;
    for (double x : t) {
      slowdown.push_back(x / m);
    }
  }
  return typical * Quantile(slowdown, 0.9);
}

volatile uint64_t g_sink = 0;

// Host noise floor: one fixed register-only loop (a dependent multiply-add
// chain, no memory traffic), timed in ms. Printed beside the results so a
// slow run can be told apart from a slow host.
double HostLoopMs() {
  uint64_t x = g_sink + 1;
  Clock::time_point t0 = Clock::now();
  for (uint32_t i = 0; i < 100'000'000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
  }
  Clock::time_point t1 = Clock::now();
  g_sink = x;
  return SecondsBetween(t0, t1) * 1e3;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double PeakRssMib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

uint64_t Syscalls(const Snapshot& s) { return s.fleet.aggregate.SyscallsTotal(); }


// Per-layer metrics of one traced repetition. Counts are run-span deltas
// unless named as totals or gauges; host_ns_per_* divide the traced run_s by
// the layer's work count.
std::vector<Metric> LayerMetrics(const Params& p, const Rep& r, const Tracer& t) {
  const Snapshot& a = r.after;
  const Snapshot& b = r.before;
  const tock::KernelStats& ka = a.fleet.aggregate;
  const tock::KernelStats& kb = b.fleet.aggregate;
  auto delta = [](uint64_t x, uint64_t y) { return static_cast<double>(x - y); };
  const double run_ns = r.run_s * 1e9;
  const double board_epochs = static_cast<double>(r.epochs) * static_cast<double>(p.boards);
  const double syscalls = delta(Syscalls(a), Syscalls(b));
  const double insns = delta(a.fleet.instructions, b.fleet.instructions);
  const double tx = delta(a.fleet.packets_sent, b.fleet.packets_sent);
  const double rx = delta(a.fleet.packets_received, b.fleet.packets_received);
  const double ovr = delta(a.fleet.rx_overruns, b.fleet.rx_overruns);
  const double active = delta(a.fleet.active_cycles, b.fleet.active_cycles);
  const double sleep = delta(a.fleet.sleep_cycles, b.fleet.sleep_cycles);
  const double idle_skips = delta(ka.fleet_idle_skips, kb.fleet_idle_skips);
  const std::vector<double> chunk_ms = t.DurationsMs("Fleet::Run");
  const double images = static_cast<double>(t.Count("BuildAppImage") +
                                            t.Count("AppInstaller::Install"));
  const double chunk_frames = static_cast<double>(r.gateway.frames_sent);
  auto u = [](uint64_t v) { return static_cast<double>(v); };
  return {
      {"libtock.build_s", t.TotalSeconds("BuildAppImage") + t.TotalSeconds("AppInstaller::Install"), "s"},
      {"libtock.images", images, "count"},
      {"board.construct_s", t.TotalSeconds("SimBoard::SimBoard"), "s"},
      {"board.chunks", u(r.chunks), "count"},
      {"board.chunk_ms_p50", NearestRank(chunk_ms, 0.5), "ms"},
      {"board.chunk_ms_p90", NearestRank(chunk_ms, 0.9), "ms"},
      {"board.epochs", u(r.epochs), "count"},
      {"board.board_epochs", board_epochs, "count"},
      {"board.idle_skips", idle_skips, "count"},
      {"board.idle_skip_frac", Ratio(idle_skips, board_epochs), "frac"},
      {"board.wedge_events", u(a.fleet.wedge_events), "count"},
      {"board.supervised_restarts", u(a.fleet.supervised_restarts), "count"},
      {"board.host_ns_per_board_epoch", Ratio(run_ns, board_epochs), "ns"},
      {"kernel.boot_s", t.TotalSeconds("SimBoard::Boot"), "s"},
      {"kernel.syscalls", syscalls, "count"},
      {"kernel.upcalls_delivered", delta(ka.upcalls_delivered, kb.upcalls_delivered), "count"},
      {"kernel.upcalls_dropped", delta(ka.upcalls_dropped, kb.upcalls_dropped), "count"},
      {"kernel.context_switches", delta(ka.context_switches, kb.context_switches), "count"},
      {"kernel.irq_dispatches", delta(ka.irq_dispatches, kb.irq_dispatches), "count"},
      {"kernel.process_faults", u(ka.process_faults), "count"},
      {"kernel.loads_created", u(a.loads_created), "count"},
      {"kernel.loads_rejected", u(a.loads_rejected), "count"},
      {"kernel.host_ns_per_syscall", Ratio(run_ns, syscalls), "ns"},
      {"vm.insns", insns, "count"},
      {"vm.blocks_built", delta(ka.vm_blocks_built, kb.vm_blocks_built), "count"},
      {"vm.block_chain_hits", delta(ka.vm_block_chain_hits, kb.vm_block_chain_hits), "count"},
      {"vm.blocks_invalidated", delta(ka.vm_blocks_invalidated, kb.vm_blocks_invalidated), "count"},
      {"vm.cache_kib", u(ka.vm_cache_bytes) / 1024.0, "KiB"},
      {"vm.host_ns_per_insn", Ratio(run_ns, insns), "ns"},
      {"hw.radio_tx", tx, "count"},
      {"hw.radio_rx", rx, "count"},
      {"hw.radio_overruns", ovr, "count"},
      {"hw.radio_fault_drops", delta(a.fleet.frames_dropped, b.fleet.frames_dropped), "count"},
      {"hw.radio_fault_dups", delta(a.fleet.frames_duplicated, b.fleet.frames_duplicated), "count"},
      {"hw.radio_fault_reorders", delta(a.fleet.frames_reordered, b.fleet.frames_reordered), "count"},
      {"hw.radio_fault_corrupts", delta(a.fleet.frames_corrupted, b.fleet.frames_corrupted), "count"},
      {"hw.rx_per_tx", Ratio(rx + ovr, tx), "ratio"},
      {"hw.mmio_accesses", delta(a.mmio_accesses, b.mmio_accesses), "count"},
      {"hw.mem_resident_mib", u(a.resident_bytes) / (1024.0 * 1024.0), "MiB"},
      {"hw.sleep_frac", Ratio(sleep, active + sleep), "frac"},
      {"hw.host_ns_per_delivery", Ratio(run_ns, rx + ovr), "ns"},
      {"capsule.ota_setup_s", t.TotalSeconds("OtaGateway::Configure") + t.TotalSeconds("OtaGateway::StartPush"), "s"},
      {"capsule.ota_frames_sent", chunk_frames, "count"},
      {"capsule.ota_retransmits", u(r.gateway.retransmits), "count"},
      {"capsule.ota_retransmit_frac", Ratio(u(r.gateway.retransmits), chunk_frames), "frac"},
      {"capsule.ota_image_repushes", u(r.gateway.image_repushes), "count"},
      {"capsule.ota_chunks_received", u(r.subs.chunks_received), "count"},
      {"capsule.ota_duplicate_chunks", u(r.subs.duplicate_chunks), "count"},
      {"capsule.ota_crc_drops", u(r.subs.frame_crc_failures + r.subs.chunk_crc_failures), "count"},
      {"capsule.ota_subscribers_converged", u(r.ota_converged), "count"},
      {"capsule.ota_gateway_converged_ledger", u(r.gateway.converged), "count"},
      {"capsule.ota_converge_ms", static_cast<double>(r.converge_cycles) / 16e3, "ms"},
  };
}

// The seed at which fingerprints are recorded (fleetbench/fingerprints.json).
constexpr uint64_t kRecordedSeed = 1;

struct Options {
  std::string workload;
  uint64_t seed = kRecordedSeed;
  double seconds = 10;
  int trace = 0;
  bool tiny = false;
  std::string expect;     // recorded fingerprint of this configuration at kRecordedSeed
  std::string canary;     // recorded fingerprint of the tiny configuration at kRecordedSeed
  std::string trace_out;  // Chrome trace-event file (traced runs)
};

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key == "--tiny") {
      o->tiny = true;
      continue;
    }
    if (i + 1 >= argc) {
      return false;
    }
    const char* v = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      o->workload = v;
    } else if (key == "--seed") {
      o->seed = std::strtoull(v, &end, 0);
    } else if (key == "--seconds") {
      o->seconds = std::strtod(v, &end);
    } else if (key == "--trace") {
      o->trace = static_cast<int>(std::strtol(v, &end, 0));
    } else if (key == "--expect") {
      o->expect = v;
    } else if (key == "--canary") {
      o->canary = v;
    } else if (key == "--trace-out") {
      o->trace_out = v;
    } else {
      return false;
    }
    if (end != nullptr && (*end != '\0' || end == v)) {
      return false;
    }
  }
  return !o->workload.empty() && (o->trace == 0 || o->trace == 1) && o->seconds > 0;
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  return out;
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  Params p;
  if (!ParseArgs(argc, argv, &o) || !ParamsFor(o.workload, o.tiny, &p)) {
    std::fprintf(stderr,
                 "usage: fleet_bench --workload compute_fleet|beacon_mesh|ota_campaign\n"
                 "                   [--seed N] [--seconds S] [--trace 0|1] [--tiny]\n"
                 "                   [--expect HEX] [--canary HEX] [--trace-out PATH]\n");
    return 2;
  }
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  const unsigned threads = tock::FleetConfig{}.threads;
  std::vector<std::string> errors;
  const double host_loop_ms = Median({HostLoopMs(), HostLoopMs(), HostLoopMs()});

  // Canary: the tiny configuration at the recorded seed must reproduce its
  // recorded fingerprint, so every run checks simulated state exactly even
  // when its own seed has no recorded value.
  if (!o.canary.empty()) {
    Params tiny;
    ParamsFor(o.workload, true, &tiny);
    Rep c = RunRep(tiny, kRecordedSeed, nullptr);
    for (const std::string& e : c.errors) {
      errors.push_back("canary: " + e);
    }
    if (Hex(c.fingerprint) != o.canary) {
      errors.push_back("canary fingerprint " + Hex(c.fingerprint) + " != recorded " + o.canary);
    }
    std::printf("canary      %s seed %" PRIu64 " fingerprint %s (%s)\n", tiny.name,
                kRecordedSeed, Hex(c.fingerprint).c_str(),
                Hex(c.fingerprint) == o.canary ? "matches record" : "MISMATCH");
  }

  // Repetitions until --seconds have passed, at least three. Untraced ones give
  // run_s and the throughputs (SpanSeconds over all of them), each followed by
  // one setup_s sample (median over all). In a traced run they alternate with
  // traced ones (same seed, threads and chunking) so the overhead compares like
  // with like; per-layer values are medians over the traced repetitions.
  constexpr size_t kMinReps = 3;
  const size_t min_reps = o.tiny ? 1 : kMinReps;
  const double seconds = o.tiny ? 0.0 : o.seconds;
  std::vector<Rep> plain;
  std::vector<Rep> traced;
  std::vector<std::unique_ptr<Tracer>> tracers;
  std::vector<double> setups;
  Clock::time_point start = Clock::now();
  while (plain.size() < min_reps || SecondsBetween(start, Clock::now()) < seconds) {
    plain.push_back(RunRep(p, o.seed, nullptr));
    if (o.trace == 1) {
      tracers.push_back(std::make_unique<Tracer>());
      traced.push_back(RunRep(p, o.seed, tracers.back().get()));
    } else {
      setups.push_back(SetupBatch(p, o.seed, &errors));
    }
    if (!errors.empty() || !plain.back().errors.empty() ||
        (o.trace == 1 && !traced.back().errors.empty())) {
      break;
    }
  }

  // Correctness: invariants of every repetition, one fingerprint across all of
  // them (untraced and traced), and the recorded fingerprint at the recorded
  // seed.
  const Rep& first = plain.front();
  for (const std::vector<Rep>* reps : {&plain, &traced}) {
    for (const Rep& r : *reps) {
      errors.insert(errors.end(), r.errors.begin(), r.errors.end());
      if (r.fingerprint != first.fingerprint) {
        errors.push_back("fingerprint differs between repetitions: " + Hex(r.fingerprint) +
                         " vs " + Hex(first.fingerprint));
      }
    }
  }
  const bool checked = !o.expect.empty() && o.seed == kRecordedSeed;
  if (checked && Hex(first.fingerprint) != o.expect) {
    errors.push_back("fingerprint " + Hex(first.fingerprint) + " != recorded " + o.expect);
  }

  // Every repetition has the same fingerprint, so the same simulated work.
  std::vector<double> wall_s;
  for (const Rep& r : plain) {
    wall_s.push_back(r.run_s);
  }
  const double run_s = SpanSeconds(plain);
  const double insns =
      static_cast<double>(first.after.fleet.instructions - first.before.fleet.instructions);
  const double minsn = Ratio(insns, run_s) / 1e6;
  const double mcycles =
      Ratio(static_cast<double>(p.boards) * static_cast<double>(first.span_cycles), run_s) / 1e6;

  std::vector<Metric> metrics;
  if (o.trace == 0) {
    metrics = {
        {"setup_s", Median(setups), "s"},
        {"run_s", run_s, "s"},
        {"sim_minsn_per_s", minsn, "M/s"},
        {"board_mcycles_per_s", mcycles, "M/s"},
        {"peak_rss_mib", PeakRssMib(), "MiB"},
    };
  } else {
    // Per-metric median over the traced repetitions (their counts agree
    // exactly; only host times vary).
    std::vector<std::vector<Metric>> per_rep;
    for (size_t i = 0; i < traced.size(); ++i) {
      per_rep.push_back(LayerMetrics(p, traced[i], *tracers[i]));
    }
    metrics = per_rep.front();
    for (size_t m = 0; m < metrics.size(); ++m) {
      std::vector<double> vals;
      for (const std::vector<Metric>& rep : per_rep) {
        vals.push_back(rep[m].value);
      }
      metrics[m].value = Median(vals);
    }
    // Traced against untraced span time, by the same estimator.
    metrics.push_back({"tracing.overhead_frac", Ratio(SpanSeconds(traced), run_s) - 1.0, "frac"});
    if (!o.trace_out.empty() && !tracers.front()->WriteChrome(o.trace_out, p.name)) {
      errors.push_back("cannot write trace file " + o.trace_out);
    }
  }

  // Human-readable report.
  std::printf("workload    %s (%zu boards, %u fleet threads of %u cores, seed %" PRIu64 ")\n",
              p.name, p.boards, threads, cores, o.seed);
  std::printf("build       %s [%s] %s\n", FLEETBENCH_BUILD_TYPE, FLEETBENCH_CXX_FLAGS,
              FLEETBENCH_COMPILER);
  std::printf("reps        %zu untraced, %zu traced, %zu set-up samples of %zu set-ups\n",
              plain.size(), traced.size(), setups.size(), p.setup_batch);
  std::printf("host loop   %.2f ms (fixed register-only loop, median of 3)\n", host_loop_ms);
  std::printf("fingerprint %s (%s)\n", Hex(first.fingerprint).c_str(),
              o.expect.empty()                      ? "no record given"
              : o.seed != kRecordedSeed             ? "no record for this seed"
              : Hex(first.fingerprint) == o.expect ? "matches record"
                                                   : "MISMATCH");
  std::printf("span        %" PRIu64 " cycles/board in %" PRIu64 " chunks, %" PRIu64 " epochs\n",
              first.span_cycles, first.chunks, first.epochs);
  if (o.trace == 0) {
    std::printf("%-22s %14s %14s %14s %s\n", "end-to-end", "median", "q1", "q3", "unit");
    auto row = [](const char* name, const std::vector<double>& v, const char* unit) {
      std::printf("%-22s %14.6g %14.6g %14.6g %s\n", name, Median(v), Quantile(v, 0.25),
                  Quantile(v, 0.75), unit);
    };
    row("setup_s", setups, "s");
    std::printf("%-22s %14.6g %14s %14s s (span at the run's p90 host speed)\n", "run_s", run_s,
                "-", "-");
    std::printf("%-22s %14.6g %14s %14s M/s\n", "sim_minsn_per_s", minsn, "-", "-");
    std::printf("%-22s %14.6g %14s %14s M/s\n", "board_mcycles_per_s", mcycles, "-", "-");
    row("wall_s per rep", wall_s, "s");
    std::printf("%-22s", "wall_s samples");
    for (double v : wall_s) {
      std::printf(" %.4f", v);
    }
    std::printf("\n");
    std::printf("%-22s %14.6g %14s %14s MiB\n", "peak_rss_mib", PeakRssMib(), "-", "-");
    std::printf("%-22s %14.6g %14s %14s frac (%" PRIu64 " of %" PRIu64 ", exact)\n",
                "failed_frac", first.failed_frac, "-", "-",
                p.kind == Kind::kBeacon ? first.after.fleet.rx_overruns : first.failed,
                first.attempted);
    if (p.kind == Kind::kBeacon) {
      std::printf("%-22s %14" PRIu64 " %14s %14s boards (beacon stalled; not gated)\n",
                  "wedged_boards", first.wedged_boards, "-", "-");
    }
    if (p.kind == Kind::kOta) {
      std::printf("%-22s %14.6g %14s %14s ms (simulated, exact)\n", "ota_converge_ms",
                  static_cast<double>(first.converge_cycles) / 16e3, "-", "-");
    }
  } else {
    std::printf("%-38s %16s %s\n", "per-layer metric", "value", "unit");
    for (const Metric& m : metrics) {
      std::printf("%-38s %16.8g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  for (const std::string& e : errors) {
    std::printf("ERROR       %s\n", e.c_str());
  }

  // Machine-readable result: the last stdout line.
  std::string json = "{\"workload\":\"" + std::string(p.name) + "\",\"seed\":" +
                     std::to_string(o.seed) + ",\"tiny\":" + (o.tiny ? "true" : "false") +
                     ",\"threads\":" + std::to_string(threads) +
                     ",\"host_cores\":" + std::to_string(cores) +
                     ",\"params\":{\"boards\":" + std::to_string(p.boards) +
                     ",\"span_cycles\":" + std::to_string(first.span_cycles) +
                     ",\"chunk_cycles\":" + std::to_string(p.chunk_cycles) +
                     ",\"setup_batch\":" + std::to_string(p.setup_batch) +
                     ",\"drop_permille\":" + std::to_string(p.drop) +
                     ",\"dup_permille\":" + std::to_string(p.dup) +
                     ",\"reorder_permille\":" + std::to_string(p.reorder) +
                     ",\"corrupt_permille\":" + std::to_string(p.corrupt) + "}" +
                     ",\"build\":{\"type\":\"" + FLEETBENCH_BUILD_TYPE + "\",\"flags\":\"" +
                     Escape(FLEETBENCH_CXX_FLAGS) + "\",\"compiler\":\"" +
                     Escape(FLEETBENCH_COMPILER) + "\"}" +
                     ",\"reps\":" + std::to_string(plain.size()) +
                     ",\"traced_reps\":" + std::to_string(traced.size()) +
                     ",\"setups\":" + std::to_string(setups.size()) +
                     ",\"host_loop_ms\":" + Num(host_loop_ms) +
                     ",\"fingerprint\":\"" + Hex(first.fingerprint) + "\"" +
                     ",\"correct\":" + (errors.empty() ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(first.attempted) +
                     ",\"failed\":" + std::to_string(first.failed) + ",\"errors\":[";
  for (size_t i = 0; i < errors.size(); ++i) {
    json += (i ? ",\"" : "\"") + Escape(errors[i]) + "\"";
  }
  json += "],\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ",\"" : "\"") + metrics[i].name + "\":{\"value\":" + Num(metrics[i].value) +
            ",\"unit\":\"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
