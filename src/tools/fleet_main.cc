// ERA: 2
// fleet: drive N simulated boards as one deployment — the "10 million computers"
// half of the paper's title as a command-line experiment. Boards get per-board
// seeds and heterogeneous scheduler policies, beacon telemetry to each other over
// the shared radio medium, and are stepped in lockstep epochs sharded across host
// threads (board/fleet.h). The run is bit-identical for any --threads value.
//
//   $ ./build/src/tools/fleet --boards=8 --threads=4 --cycles=2000000
//   $ ./build/src/tools/fleet --boards=8 --radio=off   # compute-only, big epochs
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "board/fleet.h"
#include "board/sim_board.h"
#include "kernel/telemetry.h"

namespace {

// Telemetry beacon: broadcast [node, seq] every interval, staggered per node so
// the fleet's transmissions interleave rather than collide on the same cycle.
std::string BeaconApp(int node_id) {
  char buf[1024];
  std::snprintf(buf, sizeof(buf), R"(
_start:
    mv s0, a0              # ram base: packet staging area
    li s1, 0               # beacon sequence number
    li a0, %d
    call sleep_ticks
loop:
    li t0, %d
    sb t0, 0(s0)
    sb s1, 1(s0)
    # allow_ro(radio, 0, packet, 2)
    li a0, 0x30001
    li a1, 0
    mv a2, s0
    li a3, 2
    li a4, 4
    ecall
    # command(radio, 1 = tx, dst=0xFFFF broadcast, len=2)
    li a0, 0x30001
    li a1, 1
    li a2, 0xFFFF
    li a3, 2
    li a4, 2
    ecall
    # yield-wait-for(radio, 0 = tx done)
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
                node_id * 10000, node_id);
  return buf;
}

// Telemetry sink: listen for peer beacons and keep a tally at ram+32.
const char* kListenerApp = R"(
_start:
    mv s0, a0
    # allow_rw(radio, 1 = rx sink, ram+64, 8)
    li a0, 0x30001
    li a1, 1
    addi a2, s0, 64
    li a3, 8
    li a4, 3
    ecall
    # command(radio, 2 = listen)
    li a0, 0x30001
    li a1, 2
    li a2, 0
    li a3, 0
    li a4, 2
    ecall
loop:
    # yield-wait-for(radio, 1 = packet received)
    li a0, 2
    li a1, 0x30001
    li a2, 1
    li a4, 0
    ecall
    lw t0, 32(s0)
    addi t0, t0, 1
    sw t0, 32(s0)
    j loop
)";

// CPU-bound filler: keeps the scheduler busy between radio upcalls so the
// per-policy differences (priority, MLFQ demotion) actually matter.
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

struct Options {
  size_t boards = 8;
  unsigned threads = 1;
  uint64_t cycles = 2'000'000;
  uint64_t slice = 20'000;
  bool radio = true;
  uint32_t seed = 0xC0FFEE;
  bool restart_wedged = true;
  // Scale-out knob (board/fleet.h). Default on; it never changes simulated
  // results — it exists so benchmarks can compare modes.
  bool steal = true;  // work-stealing board assignment vs static sharding
  // Print host peak RSS after the run.
  bool report_rss = false;
  // OTA scenario: board 0 becomes a gateway pushing a signed app update to every
  // other board over the (optionally lossy) medium. --cycles is the soak budget;
  // exit status reflects convergence, so this doubles as a CI smoke leg.
  bool ota = false;
  // Link-fault rates in permille (0..1000), drawn from --fault-seed.
  uint64_t drop = 0;
  uint64_t dup = 0;
  uint64_t reorder = 0;
  uint64_t corrupt = 0;
  uint64_t fault_seed = 0x70CC;
  // Live telemetry (kernel/telemetry.h): publish per-board event rings and
  // stats snapshots into this shm region so `tap --shm=<name>` can watch the
  // run from another process. Zero-perturbation: results are bit-identical
  // with or without it.
  std::string telemetry;        // shm name (or path); empty = off
  uint64_t telemetry_cap = 4096;  // ring capacity per board (power of two)
  bool telemetry_keep = false;  // leave the region file behind after the run
};

bool ParseUint(const char* text, uint64_t* out) {
  char* end = nullptr;
  unsigned long long value = std::strtoull(text, &end, 0);
  if (end == text || *end != '\0') {
    return false;
  }
  *out = value;
  return true;
}

bool ParseOptions(int argc, char** argv, Options* opts) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* eq = std::strchr(arg, '=');
    std::string key = eq != nullptr ? std::string(arg, eq - arg) : std::string(arg);
    const char* value = eq != nullptr ? eq + 1 : "";
    uint64_t n = 0;
    if (key == "--boards" && ParseUint(value, &n) && n > 0) {
      opts->boards = static_cast<size_t>(n);
    } else if (key == "--threads" && ParseUint(value, &n) && n > 0) {
      opts->threads = static_cast<unsigned>(n);
    } else if (key == "--cycles" && ParseUint(value, &n)) {
      opts->cycles = n;
    } else if (key == "--slice" && ParseUint(value, &n) && n > 0) {
      opts->slice = n;
    } else if (key == "--seed" && ParseUint(value, &n)) {
      opts->seed = static_cast<uint32_t>(n);
    } else if (key == "--radio") {
      opts->radio = std::strcmp(value, "off") != 0 && std::strcmp(value, "0") != 0;
    } else if (key == "--restart-wedged") {
      opts->restart_wedged = std::strcmp(value, "off") != 0 && std::strcmp(value, "0") != 0;
    } else if (key == "--steal") {
      opts->steal = std::strcmp(value, "off") != 0 && std::strcmp(value, "0") != 0;
    } else if (key == "--report-rss") {
      opts->report_rss = std::strcmp(value, "off") != 0 && std::strcmp(value, "0") != 0;
    } else if (key == "--ota") {
      opts->ota = std::strcmp(value, "off") != 0 && std::strcmp(value, "0") != 0;
    } else if (key == "--drop" && ParseUint(value, &n) && n <= 1000) {
      opts->drop = n;
    } else if (key == "--dup" && ParseUint(value, &n) && n <= 1000) {
      opts->dup = n;
    } else if (key == "--reorder" && ParseUint(value, &n) && n <= 1000) {
      opts->reorder = n;
    } else if (key == "--corrupt" && ParseUint(value, &n) && n <= 1000) {
      opts->corrupt = n;
    } else if (key == "--fault-seed" && ParseUint(value, &n)) {
      opts->fault_seed = n;
    } else if (key == "--telemetry") {
      opts->telemetry = value;
    } else if (key == "--telemetry-cap" && ParseUint(value, &n) && n > 0 &&
               (n & (n - 1)) == 0) {
      opts->telemetry_cap = n;
    } else if (key == "--telemetry-keep") {
      opts->telemetry_keep =
          std::strcmp(value, "off") != 0 && std::strcmp(value, "0") != 0;
    } else {
      std::fprintf(stderr,
                   "unknown or malformed flag: %s\n"
                   "usage: fleet [--boards=N] [--threads=N] [--cycles=N] [--slice=N]\n"
                   "             [--radio=on|off] [--seed=N] [--restart-wedged=on|off]\n"
                   "             [--steal=on|off] [--report-rss]\n"
                   "             [--ota] [--drop=permille] [--dup=permille]\n"
                   "             [--reorder=permille] [--corrupt=permille] [--fault-seed=N]\n"
                   "             [--telemetry=<shm name>] [--telemetry-cap=pow2]\n"
                   "             [--telemetry-keep]\n",
                   arg);
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!ParseOptions(argc, argv, &opts)) {
    return 2;
  }

  tock::FleetConfig fleet_config;
  fleet_config.threads = opts.threads;
  fleet_config.slice = opts.slice;
  fleet_config.restart_wedged = opts.restart_wedged;
  fleet_config.steal = opts.steal;
  fleet_config.link_faults.seed = opts.fault_seed;
  fleet_config.link_faults.drop_permille = static_cast<uint32_t>(opts.drop);
  fleet_config.link_faults.duplicate_permille = static_cast<uint32_t>(opts.dup);
  fleet_config.link_faults.reorder_permille = static_cast<uint32_t>(opts.reorder);
  fleet_config.link_faults.corrupt_permille = static_cast<uint32_t>(opts.corrupt);
  tock::Fleet fleet(fleet_config);
  if (opts.ota) {
    opts.radio = true;  // the update plane is the radio
  }

  // Telemetry region: one block per board, created before the boards so each
  // BoardConfig can point at its publisher. Outlives the boards (destroyed
  // after them), which is the order the final-snapshot teardown needs.
  tock::TelemetryRegion telemetry_region;
  if (!opts.telemetry.empty()) {
    tock::TelemetryRegion::Options region_opts;
    region_opts.name = opts.telemetry;
    region_opts.board_count = opts.boards;
    region_opts.ring_capacity = opts.telemetry_cap;
    std::string error;
    if (!telemetry_region.Create(region_opts, tock::TelemetryConfig{}, &error)) {
      std::fprintf(stderr, "telemetry: cannot create region %s: %s\n",
                   opts.telemetry.c_str(), error.c_str());
      return 2;
    }
    if (opts.telemetry_keep) {
      telemetry_region.KeepOnClose();
    }
    std::printf("telemetry: publishing to %s (attach: tap --shm=%s --follow)\n",
                telemetry_region.path().c_str(), opts.telemetry.c_str());
  }

  // Heterogeneous deployment: rotate the scheduling policy across the fleet. The
  // explicit-policy boards opt out of the TOCK_SCHED_POLICY env override — their
  // policy is a deliberate per-board choice, not a default the test matrix may
  // re-point (BoardConfig::allow_scheduler_env).
  static constexpr tock::SchedulerPolicy kPolicyRotation[] = {
      tock::SchedulerPolicy::kRoundRobin,
      tock::SchedulerPolicy::kPriority,
      tock::SchedulerPolicy::kMlfq,
  };

  // The baseline compute app is byte-identical on every board that carries it
  // (its image has no per-board content), so build it once into a fleet-shared
  // immutable flash base image. Boards adopt the base instead of programming
  // their own copy: those flash pages stay copy-on-write references until a
  // board writes them (OTA staging, nonvolatile storage), so a homogeneous
  // 1,000-board fleet holds ONE copy of the app image.
  auto shared_flash = std::make_shared<std::vector<uint8_t>>(
      tock::MemoryMap::kFlashSize, uint8_t{0xFF});
  uint32_t shared_next = tock::SimBoard::kAppFlashBase;
  {
    tock::AppSpec compute;
    compute.name = "compute";
    compute.source = kComputeApp;
    compute.include_runtime = false;
    std::string error;
    std::vector<uint8_t> image = tock::BuildAppImage(
        compute, shared_next, tock::SimBoard::kDeviceKey, &error);
    if (image.empty() ||
        shared_next + image.size() > tock::SimBoard::kAppFlashEnd) {
      std::fprintf(stderr, "compute app build failed: %s\n", error.c_str());
      return 1;
    }
    std::copy(image.begin(), image.end(), shared_flash->begin() + shared_next);
    shared_next += static_cast<uint32_t>(image.size());
  }
  const std::shared_ptr<const std::vector<uint8_t>> shared_flash_base =
      shared_flash;

  std::vector<std::unique_ptr<tock::SimBoard>> boards;
  boards.reserve(opts.boards);
  for (size_t i = 0; i < opts.boards; ++i) {
    tock::BoardConfig config;
    config.rng_seed = opts.seed + static_cast<uint32_t>(i);
    config.radio_addr = static_cast<uint16_t>(i + 1);
    if (opts.radio) {
      config.medium = &fleet.medium();
    }
    config.kernel.scheduler.policy = kPolicyRotation[i % 3];
    config.allow_scheduler_env = config.kernel.scheduler.policy ==
                                 tock::SchedulerPolicy::kRoundRobin;
    if (opts.ota) {
      config.ota.role = i == 0 ? tock::OtaRole::kGateway : tock::OtaRole::kSubscriber;
    }
    if (!opts.telemetry.empty()) {
      config.telemetry = telemetry_region.board(i);
    }
    auto board = std::make_unique<tock::SimBoard>(config);

    int expected = 0;
    if (!opts.ota || i != 0) {
      // Baseline workload (on OTA subscribers, the app that keeps running while
      // the update streams in): adopt the shared base holding the pre-built
      // compute image and move the install cursor past it. The OTA gateway
      // carries no baseline app and keeps its pristine flash.
      board->mcu().bus().AdoptFlashBase(shared_flash_base);
      board->installer().set_next_addr(shared_next);
      expected += 1;
    }
    if (opts.radio && !opts.ota) {
      tock::AppSpec beacon;
      beacon.name = "beacon";
      beacon.source = BeaconApp(static_cast<int>(i + 1));
      tock::AppSpec listener;
      listener.name = "listener";
      listener.source = kListenerApp;
      if (board->installer().Install(beacon) == 0 ||
          board->installer().Install(listener) == 0) {
        std::fprintf(stderr, "board %zu: install failed: %s\n", i,
                     board->installer().error().c_str());
        return 1;
      }
      expected += 2;
    }
    if (board->Boot() != expected) {
      std::fprintf(stderr, "board %zu: boot loaded fewer than %d processes\n", i,
                   expected);
      return 1;
    }
    fleet.AddBoard(board.get());
    boards.push_back(std::move(board));
  }
  fleet.AlignClocks();

  if (opts.ota) {
    if (opts.boards < 2) {
      std::fprintf(stderr, "--ota needs at least 2 boards (gateway + subscriber)\n");
      return 2;
    }
    // All subscribers carry the same baseline apps, so they resolve the same
    // staging address; the gateway builds the (position-dependent) signed image
    // for exactly that address.
    uint32_t staging = boards[1]->ota_staging_addr();
    tock::AppSpec update;
    update.name = "update";
    update.source =
        "_start:\nloop:\n    li a0, 100000\n    call sleep_ticks\n    j loop\n";
    update.sign = true;
    std::string error;
    std::vector<uint8_t> image =
        tock::BuildAppImage(update, staging, tock::SimBoard::kDeviceKey, &error);
    if (image.empty()) {
      std::fprintf(stderr, "ota image build failed: %s\n", error.c_str());
      return 1;
    }
    std::vector<uint16_t> subscribers;
    for (size_t i = 1; i < opts.boards; ++i) {
      subscribers.push_back(static_cast<uint16_t>(i + 1));
    }
    boards[0]->ota_gateway().Configure(std::move(image), subscribers);
    boards[0]->ota_gateway().StartPush();
  }

  auto wall_start = std::chrono::steady_clock::now();
  if (opts.ota) {
    // --cycles is a budget, not a fixed run length: stop stepping as soon as the
    // gateway resolved every subscriber so a quick convergence exits quickly.
    constexpr uint64_t kOtaStep = 1'000'000;
    uint64_t ran = 0;
    while (ran < opts.cycles && !boards[0]->ota_gateway().Done()) {
      uint64_t step = opts.cycles - ran < kOtaStep ? opts.cycles - ran : kOtaStep;
      fleet.Run(step);
      ran += step;
    }
  } else {
    fleet.Run(opts.cycles);
  }
  auto wall_end = std::chrono::steady_clock::now();
  double wall_s =
      std::chrono::duration_cast<std::chrono::duration<double>>(wall_end - wall_start)
          .count();

  std::printf("board  policy      cycles       insns        syscalls  tx     rx     ovr  drop   dup  reo  cor  wedged restarts\n");
  for (size_t i = 0; i < fleet.size(); ++i) {
    tock::SimBoard* board = fleet.board(i);
    tock::LinkFaultCounters faults = board->radio_hw().fault_counters();
    std::printf(
        "%-6zu %-11s %-12llu %-12llu %-9llu %-6llu %-6llu %-4llu %-6llu %-4llu %-4llu %-4llu %-6llu %llu\n",
        i, tock::SchedulerPolicyName(board->kernel().scheduler_policy()),
        static_cast<unsigned long long>(board->mcu().CyclesNow()),
        static_cast<unsigned long long>(board->kernel().instructions_retired()),
        static_cast<unsigned long long>(board->kernel().stats().SyscallsTotal()),
        static_cast<unsigned long long>(board->radio_hw().packets_sent()),
        static_cast<unsigned long long>(board->radio_hw().packets_received()),
        static_cast<unsigned long long>(board->radio_hw().rx_overruns()),
        static_cast<unsigned long long>(faults.dropped),
        static_cast<unsigned long long>(faults.duplicated),
        static_cast<unsigned long long>(faults.reordered),
        static_cast<unsigned long long>(faults.corrupted),
        static_cast<unsigned long long>(fleet.health(i).wedge_events),
        static_cast<unsigned long long>(fleet.health(i).supervised_restarts));
  }

  tock::FleetStats totals = fleet.Stats();
  std::printf("\nfleet: %zu boards (%zu live), %u threads, epoch %llu cycles\n",
              totals.boards, totals.boards_live, opts.threads,
              static_cast<unsigned long long>(fleet.EffectiveSlice()));
  std::printf("  instructions     %llu\n",
              static_cast<unsigned long long>(totals.instructions));
  std::printf("  active cycles    %llu\n",
              static_cast<unsigned long long>(totals.active_cycles));
  std::printf("  sleep cycles     %llu\n",
              static_cast<unsigned long long>(totals.sleep_cycles));
  std::printf("  context switches %llu\n",
              static_cast<unsigned long long>(totals.aggregate.context_switches));
  std::printf("  packets tx/rx    %llu/%llu (%llu rx overruns)\n",
              static_cast<unsigned long long>(totals.packets_sent),
              static_cast<unsigned long long>(totals.packets_received),
              static_cast<unsigned long long>(totals.rx_overruns));
  std::printf("  wedge events     %llu (%llu supervised restarts)\n",
              static_cast<unsigned long long>(totals.wedge_events),
              static_cast<unsigned long long>(totals.supervised_restarts));
  std::printf("  link faults      %llu dropped, %llu duplicated, %llu reordered, %llu corrupted\n",
              static_cast<unsigned long long>(totals.frames_dropped),
              static_cast<unsigned long long>(totals.frames_duplicated),
              static_cast<unsigned long long>(totals.frames_reordered),
              static_cast<unsigned long long>(totals.frames_corrupted));
  // Board-memory footprint, read live off the buses (exact even in trace-off
  // builds, where the mem.resident_bytes stats gauge is compiled out).
  uint64_t resident = 0;
  for (size_t i = 0; i < fleet.size(); ++i) {
    resident += fleet.board(i)->mcu().bus().resident_bytes();
  }
  std::printf("  mem resident     %.2f MiB board flash+RAM (private pages)\n",
              static_cast<double>(resident) / (1024.0 * 1024.0));
  // Host machinery: every Host row of the stat table (kernel/trace.h).
  for (const tock::StatRow& row : tock::kStatRows) {
    if (row.domain == tock::StatDomain::kHost) {
      std::printf("  %-24s %llu\n", row.name,
                  static_cast<unsigned long long>(totals.aggregate.*row.field));
    }
  }
  std::printf("  wall time        %.3f s (%.1f M sim-insn/s aggregate)\n", wall_s,
              wall_s > 0 ? static_cast<double>(totals.instructions) / wall_s / 1e6
                         : 0.0);
  if (opts.report_rss) {
    struct rusage usage {};
    if (getrusage(RUSAGE_SELF, &usage) == 0) {
      // ru_maxrss is KiB on Linux: the host-process high-water mark, the number
      // the boards-vs-RSS scaling table in README.md is built from.
      std::printf("  host peak rss    %.2f MiB\n",
                  static_cast<double>(usage.ru_maxrss) / 1024.0);
    }
  }

  if (opts.ota) {
    const tock::OtaGateway& gw = boards[0]->ota_gateway();
    // A subscriber counts as converged when it runs the update AND the gateway
    // holds it as converged (fleetbench's rule): the gateway's own ledger also
    // counts duplicated status frames.
    size_t converged = 0;
    size_t failed = 0;
    for (size_t i = 1; i < opts.boards && i - 1 < gw.peer_count(); ++i) {
      tock::OtaGateway::PeerState state = gw.peer_state(i - 1);
      converged += boards[i]->ota_subscriber().Converged() &&
                   state == tock::OtaGateway::PeerState::kConverged;
      failed += state == tock::OtaGateway::PeerState::kFailed;
    }
    std::printf("\nota: %zu subscribers, loss %llu/%llu/%llu/%llu permille (drop/dup/reorder/corrupt)\n",
                opts.boards - 1, static_cast<unsigned long long>(opts.drop),
                static_cast<unsigned long long>(opts.dup),
                static_cast<unsigned long long>(opts.reorder),
                static_cast<unsigned long long>(opts.corrupt));
    std::printf("  frames sent      %llu (%llu retransmits, %llu image re-pushes)\n",
                static_cast<unsigned long long>(gw.stats().frames_sent),
                static_cast<unsigned long long>(gw.stats().retransmits),
                static_cast<unsigned long long>(gw.stats().image_repushes));
    std::printf("  converged        %zu/%zu (%zu failed)\n", converged, opts.boards - 1,
                failed);
    size_t running = 0;
    for (size_t i = 1; i < opts.boards; ++i) {
      const tock::OtaSubscriberStats& sub = boards[i]->ota_subscriber().stats();
      std::printf("  board %-3zu %-9s chunks %-4llu crc-drops %-3llu dup %-3llu load attempts %llu\n",
                  i, boards[i]->ota_subscriber().Converged() ? "converged" : "pending",
                  static_cast<unsigned long long>(sub.chunks_received),
                  static_cast<unsigned long long>(sub.chunk_crc_failures),
                  static_cast<unsigned long long>(sub.duplicate_chunks),
                  static_cast<unsigned long long>(sub.load_attempts));
      if (boards[i]->ota_subscriber().Converged()) {
        ++running;
      }
    }
    if (running != opts.boards - 1) {
      std::fprintf(stderr, "ota: only %zu/%zu subscribers converged\n", running,
                   opts.boards - 1);
      return 1;
    }
  }
  return 0;
}
