// Fleet runtime tests (board/fleet.h): the sharded epoch engine must produce
// bit-identical per-board results for any host thread count, with or without a
// radio medium, the mailbox radio
// must produce identical delivery traces for any stepping slice and board step
// order, no host machinery may show through an app's view of the kernel stats,
// and the supervisor must revive wedged boards.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include <unistd.h>

#include "board/fleet.h"
#include "board/sim_board.h"
#include "kernel/telemetry.h"

namespace tock {
namespace {

// Telemetry beacon: send [node, seq] to `dst` (broadcast by default) on a duty
// cycle, staggered per node.
std::string BeaconApp(int node_id, uint16_t dst = 0xFFFF) {
  char buf[1024];
  std::snprintf(buf, sizeof(buf), R"(
_start:
    mv s0, a0
    li s1, 0
    li a0, %d
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
    # command(radio, 1 = tx, dst, len=2)
    li a0, 0x30001
    li a1, 1
    li a2, %d
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
    li a0, 60000
    call sleep_ticks
    j loop
)",
                node_id * 7000, node_id, dst);
  return buf;
}

// Telemetry sink: listen forever, tally packets at ram+32.
const char* kListenerApp = R"(
_start:
    mv s0, a0
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

// Reads every kernel stat through ProcessInfoDriver command 5 (the count comes
// from probing an out-of-range id) and folds each answer — variant and both value
// words — into the length of its next sleep. Any counter an app can read that
// host machinery moves therefore moves the whole board's schedule.
const char* kStatProbeApp = R"(
_start:
    li s1, 0
probe:
    li a0, 0xA0001
    li a1, 5
    li a2, -1
    li a3, 0
    li a4, 2
    ecall
    mv s2, a1
    li s3, 0
read:
    # command(procinfo, 5 = read stat, id = s3, 0)
    li a0, 0xA0001
    li a1, 5
    mv a2, s3
    li a3, 0
    li a4, 2
    ecall
    slli t0, s1, 5
    sub s1, t0, s1
    add s1, s1, a0
    add s1, s1, a1
    add s1, s1, a2
    addi s3, s3, 1
    bltu s3, s2, read
    li t0, 8191
    and a0, s1, t0
    li t0, 20000
    add a0, a0, t0
    call sleep_ticks
    j probe
)";

// Sleeps briefly, then exits: its board has no process left.
const char* kMayflyApp = R"(
_start:
    li a0, 3000
    call sleep_ticks
    li a0, 0
    call tock_exit_terminate
)";

// CPU-bound spinner: busy every epoch, preempted only by SysTick.
const char* kSpinApp = R"(
_start:
    li s0, 0
    li s1, 1
loop:
    add s0, s0, s1
    xor s2, s0, s1
    slli s3, s2, 3
    j loop
)";

// Everything observable about one board, as one comparable string.
std::string Fingerprint(SimBoard& board) {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line), "cycles=%llu insns=%llu tx=%llu rx=%llu ovr=%llu\n",
                static_cast<unsigned long long>(board.mcu().CyclesNow()),
                static_cast<unsigned long long>(board.kernel().instructions_retired()),
                static_cast<unsigned long long>(board.radio_hw().packets_sent()),
                static_cast<unsigned long long>(board.radio_hw().packets_received()),
                static_cast<unsigned long long>(board.radio_hw().rx_overruns()));
  out += line;
  const LinkFaultCounters faults = board.radio_hw().fault_counters();
  std::snprintf(line, sizeof(line), "faults drop=%llu dup=%llu reorder=%llu corrupt=%llu\n",
                static_cast<unsigned long long>(faults.dropped),
                static_cast<unsigned long long>(faults.duplicated),
                static_cast<unsigned long long>(faults.reordered),
                static_cast<unsigned long long>(faults.corrupted));
  out += line;
  board.kernel().trace().DumpStats(out);
  board.kernel().trace().DumpTrace(out);
  for (const RadioDeliveryRecord& r : board.radio_hw().delivery_log()) {
    std::snprintf(line, sizeof(line), "deliver cycle=%llu src=%u dst=%u len=%u sum=%u ovr=%d\n",
                  static_cast<unsigned long long>(r.cycle), r.src, r.dst, r.len,
                  r.payload_sum, r.overrun ? 1 : 0);
    out += line;
  }
  return out;
}

struct TestFleetOptions {
  FleetConfig fleet;
  // Hand the boards to the fleet back-to-front: the step schedule moves,
  // construction (and so radio attach) order stays fixed.
  bool reverse_step_order = false;
  // Run kStatProbeApp beside the beacon and the listener.
  bool stat_probe = false;
  // Publish every board's live telemetry into this region.
  TelemetryRegion* telemetry = nullptr;
  // Node n beacons to node n % 8 + 1 instead of broadcasting.
  bool unicast_ring = false;
};

// An 8-board deployment with heterogeneous seeds, addresses, and scheduler
// policies, every board beaconing to and listening for all the others.
struct TestFleet {
  explicit TestFleet(unsigned threads, uint64_t slice = 20'000,
                     bool reverse_step_order = false)
      : TestFleet([&] {
          TestFleetOptions options;
          options.fleet.threads = threads;
          options.fleet.slice = slice;
          options.reverse_step_order = reverse_step_order;
          return options;
        }()) {}

  explicit TestFleet(const TestFleetOptions& options) {
    fleet = std::make_unique<Fleet>(options.fleet);
    static constexpr SchedulerPolicy kRotation[] = {
        SchedulerPolicy::kRoundRobin, SchedulerPolicy::kPriority, SchedulerPolicy::kMlfq};
    for (size_t i = 0; i < 8; ++i) {
      BoardConfig bc;
      bc.rng_seed = 0xBEEF + static_cast<uint32_t>(i);
      bc.radio_addr = static_cast<uint16_t>(i + 1);
      bc.medium = &fleet->medium();
      bc.kernel.scheduler.policy = kRotation[i % 3];
      bc.allow_scheduler_env = false;
      if (options.telemetry != nullptr) {
        bc.telemetry = options.telemetry->board(i);
      }
      auto board = std::make_unique<SimBoard>(bc);
      board->radio_hw().EnableDeliveryLog();
      AppSpec beacon;
      beacon.name = "beacon";
      beacon.source = BeaconApp(static_cast<int>(i + 1),
                                options.unicast_ring ? static_cast<uint16_t>((i + 1) % 8 + 1)
                                                     : uint16_t{0xFFFF});
      AppSpec listener;
      listener.name = "listener";
      listener.source = kListenerApp;
      EXPECT_NE(board->installer().Install(beacon), 0u) << board->installer().error();
      EXPECT_NE(board->installer().Install(listener), 0u) << board->installer().error();
      if (options.stat_probe) {
        AppSpec probe;
        probe.name = "probe";
        probe.source = kStatProbeApp;
        EXPECT_NE(board->installer().Install(probe), 0u) << board->installer().error();
      }
      EXPECT_EQ(board->Boot(), options.stat_probe ? 3 : 2);
      boards.push_back(std::move(board));
    }
    for (size_t i = 0; i < boards.size(); ++i) {
      fleet->AddBoard(boards[options.reverse_step_order ? boards.size() - 1 - i : i].get());
    }
    fleet->AlignClocks();
  }

  std::string Fingerprint(size_t i) { return tock::Fingerprint(*boards[i]); }

  std::unique_ptr<Fleet> fleet;
  std::vector<std::unique_ptr<SimBoard>> boards;
};

// The tentpole guarantee: an 8-board fleet stepped by 1 host thread and by 4 host
// threads produces bit-identical per-board kernel stats, trace rings, and radio
// delivery logs. (Acceptance criterion: parallelism must not leak into results.)
TEST(FleetDeterminism, ThreadCountInvariant) {
  TestFleet solo(1);
  TestFleet quad(4);
  solo.fleet->Run(600'000);
  quad.fleet->Run(600'000);

  uint64_t total_rx = 0;
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(solo.Fingerprint(i), quad.Fingerprint(i)) << "board " << i;
    total_rx += solo.boards[i]->radio_hw().packets_received();
  }
  // The run must actually exercise cross-board delivery to prove anything.
  EXPECT_GT(total_rx, 0u);

  FleetStats a = solo.fleet->Stats();
  FleetStats b = quad.fleet->Stats();
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.packets_received, b.packets_received);
  EXPECT_EQ(a.aggregate.context_switches, b.aggregate.context_switches);
  EXPECT_EQ(a.boards_live, 8u);
}

// Radio arrival times are computed on the shared timeline at transmit time, so
// the delivery trace cannot depend on the stepping slice: a 1k-cycle slice and a
// 20k-cycle slice (both clamped to the medium lookahead) must land every frame
// at the same cycle with the same payload.
TEST(FleetDeterminism, DeliveryTraceSliceInvariant) {
  TestFleet fine(1, /*slice=*/1'000);
  TestFleet coarse(1, /*slice=*/20'000);
  fine.fleet->Run(600'000);
  coarse.fleet->Run(600'000);

  uint64_t total = 0;
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(fine.boards[i]->radio_hw().delivery_log(),
              coarse.boards[i]->radio_hw().delivery_log())
        << "board " << i;
    total += fine.boards[i]->radio_hw().delivery_log().size();
  }
  EXPECT_GT(total, 0u);
}

// Nor may the order boards are stepped within an epoch matter: registering the
// boards with the fleet in reverse order changes the step order but not one
// delivered byte. (Construction order — and so radio attach order — stays fixed;
// only the step schedule moves.)
TEST(FleetDeterminism, DeliveryTraceStepOrderInvariant) {
  TestFleet forward(1);
  forward.fleet->Run(600'000);

  // Same deployment, boards handed to the fleet back-to-front.
  TestFleet shuffled(1, /*slice=*/20'000, /*reverse_step_order=*/true);
  shuffled.fleet->Run(600'000);

  for (size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(forward.boards[i]->radio_hw().delivery_log(),
              shuffled.boards[i]->radio_hw().delivery_log())
        << "board " << i;
  }
}

// Without a radio medium there is no lookahead clamp, so every epoch runs the
// full 100k-cycle slice — a sharding shape the radio fleets above never reach.
// Eight radio-less spinner boards stepped by 1, 2 and 4 host threads must end
// bit-identical.
TEST(FleetDeterminism, RadioLessComputeFleetThreadCountInvariant) {
  auto run = [](unsigned threads) {
    FleetConfig config;
    config.threads = threads;
    config.slice = 100'000;
    Fleet fleet(config);
    std::vector<std::unique_ptr<SimBoard>> boards;
    for (size_t i = 0; i < 8; ++i) {
      BoardConfig bc;
      bc.rng_seed = 0xF1EE7 + static_cast<uint32_t>(i);
      auto board = std::make_unique<SimBoard>(bc);
      AppSpec spin;
      spin.name = "spin";
      spin.source = kSpinApp;
      spin.include_runtime = false;
      EXPECT_NE(board->installer().Install(spin), 0u) << board->installer().error();
      EXPECT_EQ(board->Boot(), 1);
      fleet.AddBoard(board.get());
      boards.push_back(std::move(board));
    }
    fleet.AlignClocks();
    fleet.Run(1'000'000);
    std::vector<std::string> prints;
    for (auto& board : boards) {
      prints.push_back(Fingerprint(*board));
    }
    return prints;
  };
  const std::vector<std::string> solo = run(1);
  const std::vector<std::string> duo = run(2);
  const std::vector<std::string> quad = run(4);
  for (size_t i = 0; i < solo.size(); ++i) {
    EXPECT_EQ(solo[i], duo[i]) << "board " << i;
    EXPECT_EQ(solo[i], quad[i]) << "board " << i;
  }
}

// Runs `span` cycles from `start` as one RunUntil call per epoch, so every board
// is brought to every epoch boundary, where one Run call lets idle boards sleep
// through.
void RunPerEpoch(Fleet& fleet, uint64_t start, uint64_t span) {
  const uint64_t epoch = fleet.EffectiveSlice();
  for (uint64_t t = start + epoch; t < start + span; t += epoch) {
    fleet.RunUntil(t);
  }
  fleet.RunUntil(start + span);
}

// One setting of the host machinery a fleet run may vary.
struct HostLeg {
  const char* name;
  unsigned threads;
  bool steal;
  bool telemetry;
  bool reverse_step_order;
  uint64_t slice;
  // Run kStatProbeApp on every board (leg and baseline alike).
  bool stat_probe;
  // Split the 600k span into one RunUntil call per epoch.
  bool run_per_epoch;
};

void PrintTo(const HostLeg& leg, std::ostream* os) { *os << leg.name; }

class FleetHostInvariance : public ::testing::TestWithParam<HostLeg> {};

// The core invariant, end to end: host machinery is invisible to simulated
// state. With the stat probe, every board also runs kStatProbeApp, so a host
// counter that an app can read through command 5 changes the probe's sleeps, and
// with them the board's stats, trace ring and delivery log. Each leg must match
// the baseline (1 thread, stealing, no telemetry, forward step order, default
// slice, one Run call) on every board.
//
// The slice legs pin one sleep record per sleep: an epoch boundary ends no
// sleep. They run without the probe, because a deadline that falls inside a
// running process's timeslice still re-enters the scheduler (ROADMAP item 4's
// timeslice half), so moving the epoch grid moves the probe's schedule. The
// per-epoch leg keeps the grid and the probe, and pins the calendar's lazy
// catch-up against bringing every board to every epoch boundary.
TEST_P(FleetHostInvariance, StatProbeSeesNoHostMachinery) {
  const HostLeg& leg = GetParam();
  auto run = [](const HostLeg& l, TelemetryRegion* region) {
    TestFleetOptions options;
    options.fleet.threads = l.threads;
    options.fleet.steal = l.steal;
    options.fleet.slice = l.slice;
    options.reverse_step_order = l.reverse_step_order;
    options.stat_probe = l.stat_probe;
    options.telemetry = region;
    auto f = std::make_unique<TestFleet>(options);
    if (l.run_per_epoch) {
      RunPerEpoch(*f->fleet, f->boards[0]->mcu().CyclesNow(), 600'000);
    } else {
      f->fleet->Run(600'000);
    }
    return f;
  };
  TelemetryRegion region;
  if (leg.telemetry) {
    char path[96];
    std::snprintf(path, sizeof(path), "/tmp/tock_fleet_test_%s_%d.shm", leg.name,
                  static_cast<int>(getpid()));
    std::string error;
    ASSERT_TRUE(region.Create({path, 8, 1024}, TelemetryConfig{}, &error)) << error;
  }
  auto baseline =
      run(HostLeg{"baseline", 1, true, false, false, 20'000, leg.stat_probe, false}, nullptr);
  auto varied = run(leg, leg.telemetry ? &region : nullptr);

  for (size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(baseline->Fingerprint(i), varied->Fingerprint(i)) << "board " << i;
    if (leg.stat_probe) {
      // The probe walked the whole table at least once.
      EXPECT_GT(varied->boards[i]->kernel().process(2)->syscall_count,
                static_cast<uint64_t>(StatId::kNumStats));
    }
  }
  // The leg really moved the host counters the probe would have seen.
  EXPECT_GT(baseline->fleet->Stats().aggregate.fleet_idle_skips, 0u);
  if (KernelTrace::kEnabled && leg.telemetry) {
    EXPECT_GT(varied->fleet->Stats().aggregate.telemetry_events_emitted, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Legs, FleetHostInvariance,
    ::testing::Values(
        HostLeg{"slice_1000", 1, true, false, false, 1'000, false, false},
        HostLeg{"slice_4608", 1, true, false, false, 4'608, false, false},
        HostLeg{"slice_20000", 1, true, false, false, 20'000, false, false},
        HostLeg{"run_per_epoch", 1, true, false, false, 20'000, true, true},
        HostLeg{"telemetry_on", 1, true, true, false, 20'000, true, false},
        HostLeg{"threads4_steal", 4, true, false, false, 20'000, true, false},
        HostLeg{"threads4_static", 4, false, false, false, 20'000, true, false},
        HostLeg{"reversed_steps", 1, true, false, true, 20'000, true, false},
        HostLeg{"threads4_telemetry_reversed", 4, true, true, true, 20'000, true, true}),
    [](const ::testing::TestParamInfo<HostLeg>& info) { return std::string(info.param.name); });

// A deliberately imbalanced deployment: board 0 runs a hot spin loop (busy all
// epoch, every epoch) while the rest duty-cycle — beacon, then sleep far past
// the epoch length. Under static sharding the thread that draws board 0 does
// almost all the work; work-stealing and the calendar exist for exactly this
// shape, and neither may change one observable byte.
struct SkewedFleet {
  static constexpr size_t kBoards = 32;  // 1 hot + 31 duty-cycled

  SkewedFleet(unsigned threads, bool steal) {
    FleetConfig config;
    config.threads = threads;
    config.steal = steal;
    fleet = std::make_unique<Fleet>(config);
    for (size_t i = 0; i < kBoards; ++i) {
      BoardConfig bc;
      bc.rng_seed = 0xFEED + static_cast<uint32_t>(i);
      bc.radio_addr = static_cast<uint16_t>(i + 1);
      bc.medium = &fleet->medium();
      auto board = std::make_unique<SimBoard>(bc);
      board->radio_hw().EnableDeliveryLog();
      int expected = 0;
      if (i == 0) {
        AppSpec spin;
        spin.name = "spin";
        spin.source = kSpinApp;
        spin.include_runtime = false;
        AppSpec listener;
        listener.name = "listener";
        listener.source = kListenerApp;
        EXPECT_NE(board->installer().Install(spin), 0u) << board->installer().error();
        EXPECT_NE(board->installer().Install(listener), 0u)
            << board->installer().error();
        expected = 2;
      } else {
        AppSpec beacon;
        beacon.name = "beacon";
        beacon.source = BeaconApp(static_cast<int>(i + 1));
        EXPECT_NE(board->installer().Install(beacon), 0u) << board->installer().error();
        expected = 1;
      }
      EXPECT_EQ(board->Boot(), expected);
      fleet->AddBoard(board.get());
      boards.push_back(std::move(board));
    }
    fleet->AlignClocks();
  }

  std::string Fingerprint(size_t i) { return tock::Fingerprint(*boards[i]); }

  std::unique_ptr<Fleet> fleet;
  std::vector<std::unique_ptr<SimBoard>> boards;
};

// Work-stealing board assignment must be invisible in the results: the skewed
// fleet stepped by 1 thread, by 4 stealing threads, and by 4 statically-sharded
// threads produces bit-identical per-board fingerprints (stats, trace rings,
// delivery logs). This is the tentpole determinism claim for the scale-out
// scheduler.
TEST(FleetDeterminism, WorkStealingSkewedFleetThreadCountInvariant) {
  SkewedFleet solo(1, /*steal=*/true);
  SkewedFleet quad(4, /*steal=*/true);
  SkewedFleet pinned(4, /*steal=*/false);
  solo.fleet->Run(300'000);
  quad.fleet->Run(300'000);
  pinned.fleet->Run(300'000);

  uint64_t total_rx = 0;
  for (size_t i = 0; i < SkewedFleet::kBoards; ++i) {
    std::string expect = solo.Fingerprint(i);
    EXPECT_EQ(expect, quad.Fingerprint(i)) << "board " << i << " (stealing)";
    EXPECT_EQ(expect, pinned.Fingerprint(i)) << "board " << i << " (static)";
    total_rx += solo.boards[i]->radio_hw().packets_received();
  }
  EXPECT_GT(total_rx, 0u);
}

// The calendar must be equally invisible: a duty-cycled board is stepped only
// in the epochs where it has work and catches up lazily, so the skewed fleet run
// as one RunUntil call per epoch — every board brought to every epoch boundary —
// matches one Run of the same span, and the single run actually left
// board-epochs unstepped (the host-only fleet.idle_skips counter — excluded from
// the fingerprint's stat dump — is the only trace).
TEST(FleetDeterminism, IdleSkipInvariantAndActuallySkips) {
  SkewedFleet single(1, /*steal=*/true);
  SkewedFleet stepped(1, /*steal=*/true);
  single.fleet->Run(300'000);
  RunPerEpoch(*stepped.fleet, stepped.boards[0]->mcu().CyclesNow(), 300'000);

  for (size_t i = 0; i < SkewedFleet::kBoards; ++i) {
    EXPECT_EQ(single.Fingerprint(i), stepped.Fingerprint(i)) << "board " << i;
  }
  EXPECT_GT(single.fleet->Stats().aggregate.fleet_idle_skips, 0u);
}

// A board whose only process exits wedges while its peers keep transmitting to
// it: every frame in flight gives it a wake, so whether it is wedged at a barrier
// depends on when frames were sent, never on which thread stepped whom first.
// With restart_wedged the supervisor revives it after the grace period, so the
// wedge count steers simulated state. Counts and boards must match at 1 and 4
// threads, with the step order reversed, and across repeated 4-thread runs.
TEST(FleetDeterminism, WedgeCountsThreadAndOrderInvariant) {
  struct Outcome {
    std::vector<uint64_t> wedges;
    std::vector<uint64_t> restarts;
    std::vector<std::string> prints;
  };
  auto run = [](unsigned threads, bool reverse) {
    FleetConfig config;
    config.threads = threads;
    config.restart_wedged = true;
    config.wedge_grace_epochs = 2;
    Fleet fleet(config);
    std::vector<std::unique_ptr<SimBoard>> boards;
    for (size_t i = 0; i < 4; ++i) {
      BoardConfig bc;
      bc.rng_seed = 0x3ED6E + static_cast<uint32_t>(i);
      bc.radio_addr = static_cast<uint16_t>(i + 1);
      bc.medium = &fleet.medium();
      bc.allow_scheduler_env = false;
      auto board = std::make_unique<SimBoard>(bc);
      board->radio_hw().EnableDeliveryLog();
      AppSpec app;
      if (i == 0) {
        app.name = "mayfly";
        app.source = kMayflyApp;
      } else {
        app.name = "beacon";
        app.source = BeaconApp(static_cast<int>(i));
      }
      EXPECT_NE(board->installer().Install(app), 0u) << board->installer().error();
      EXPECT_EQ(board->Boot(), 1);
      boards.push_back(std::move(board));
    }
    for (size_t i = 0; i < boards.size(); ++i) {
      fleet.AddBoard(boards[reverse ? boards.size() - 1 - i : i].get());
    }
    fleet.AlignClocks();
    fleet.Run(400'000);
    Outcome out;
    for (size_t i = 0; i < boards.size(); ++i) {
      const size_t slot = reverse ? boards.size() - 1 - i : i;
      out.wedges.push_back(fleet.health(slot).wedge_events);
      out.restarts.push_back(fleet.health(slot).supervised_restarts);
      out.prints.push_back(Fingerprint(*boards[i]));
    }
    return out;
  };
  const Outcome solo = run(1, false);
  // The scenario exercises the supervisor: board 0 wedged and was revived.
  EXPECT_GT(solo.wedges[0], 0u);
  EXPECT_GT(solo.restarts[0], 1u);
  auto expect_same = [&](const Outcome& other, const char* leg) {
    EXPECT_EQ(solo.wedges, other.wedges) << leg;
    EXPECT_EQ(solo.restarts, other.restarts) << leg;
    for (size_t i = 0; i < solo.prints.size(); ++i) {
      EXPECT_EQ(solo.prints[i], other.prints[i]) << leg << " board " << i;
    }
  };
  expect_same(run(1, true), "reversed");
  for (int rep = 0; rep < 20; ++rep) {
    expect_same(run(4, rep % 2 == 1), rep % 2 == 1 ? "4 threads reversed" : "4 threads");
  }
}

// FNV-1a over a board fingerprint, for pinning recorded board states.
uint64_t Digest(const std::string& text) {
  uint64_t digest = 0xcbf29ce484222325ull;
  for (unsigned char c : text) {
    digest = (digest ^ c) * 0x100000001b3ull;
  }
  return digest;
}

// A unicast frame is in flight only to its addressee, so no other board is woken
// for it. In an 8-board unicast ring under ota_campaign's link-fault rates, every
// board ends in the state recorded when every radio got every frame and dropped
// the ones addressed elsewhere on arrival (the digests below, over cycles,
// instructions, fault counters, stats, trace ring and delivery log), at 1 and 4
// threads; each delivery log holds only frames addressed to its board; and the
// calendar leaves 1,713 board-epochs unstepped, where it left 937 then.
//
// Second leg, restart_wedged off: a board whose only process exits while its
// peers unicast to one another has no frame in flight to it, so it is wedged at
// every barrier from its exit on (frames in flight to it used to count as wakes:
// 66 wedge events then).
TEST(FleetDeterminism, UnicastWakesOnlyItsAddressee) {
  auto ring = [](unsigned threads) {
    TestFleetOptions options;
    options.fleet.threads = threads;
    options.fleet.link_faults.seed = 0x0B57;
    options.fleet.link_faults.drop_permille = 100;
    options.fleet.link_faults.duplicate_permille = 20;
    options.fleet.link_faults.reorder_permille = 20;
    options.fleet.link_faults.corrupt_permille = 20;
    options.unicast_ring = true;
    auto f = std::make_unique<TestFleet>(options);
    f->fleet->Run(1'200'000);
    return f;
  };
  static constexpr uint64_t kRecorded[8] = {
      0xc87f18a11624cb3aull, 0x934fd7fe93ea7405ull, 0x2d2385c6bd4b022bull,
      0xb8851b89be9d5744ull, 0xc7949f91973c7062ull, 0x39b36b93ac6c2015ull,
      0xcef52ad16229a359ull, 0x40e9b382d0678e1cull};
  auto solo = ring(1);
  auto quad = ring(4);
  uint64_t total_rx = 0;
  for (size_t i = 0; i < 8; ++i) {
    const std::string print = solo->Fingerprint(i);
    EXPECT_EQ(print, quad->Fingerprint(i)) << "board " << i;
    if (KernelTrace::kEnabled) {
      EXPECT_EQ(Digest(print), kRecorded[i]) << "board " << i << std::hex << " digest 0x"
                                             << Digest(print) << "\n" << print;
    }
    const uint16_t addr = static_cast<uint16_t>(i + 1);
    for (const RadioDeliveryRecord& r : solo->boards[i]->radio_hw().delivery_log()) {
      EXPECT_EQ(r.dst, addr) << "board " << i;
    }
    total_rx += solo->boards[i]->radio_hw().packets_received();
  }
  EXPECT_GT(total_rx, 0u);
  EXPECT_EQ(solo->fleet->Stats().aggregate.fleet_idle_skips, 1713u);
  EXPECT_EQ(quad->fleet->Stats().aggregate.fleet_idle_skips, 1713u);

  auto wedge_events = [](unsigned threads) {
    FleetConfig config;
    config.threads = threads;
    Fleet fleet(config);
    std::vector<std::unique_ptr<SimBoard>> boards;
    for (size_t i = 0; i < 4; ++i) {
      BoardConfig bc;
      bc.rng_seed = 0x3ED6E + static_cast<uint32_t>(i);
      bc.radio_addr = static_cast<uint16_t>(i + 1);
      bc.medium = &fleet.medium();
      bc.allow_scheduler_env = false;
      auto board = std::make_unique<SimBoard>(bc);
      AppSpec app;
      if (i == 0) {
        app.name = "mayfly";
        app.source = kMayflyApp;
      } else {
        // Boards 1..3 (addresses 2..4) unicast around their own ring.
        app.name = "beacon";
        app.source = BeaconApp(static_cast<int>(i), static_cast<uint16_t>(i % 3 + 2));
      }
      EXPECT_NE(board->installer().Install(app), 0u) << board->installer().error();
      EXPECT_EQ(board->Boot(), 1);
      fleet.AddBoard(board.get());
      boards.push_back(std::move(board));
    }
    fleet.AlignClocks();
    fleet.Run(400'000);
    EXPECT_EQ(fleet.health(0).supervised_restarts, 0u);
    for (size_t i = 1; i < boards.size(); ++i) {
      EXPECT_EQ(fleet.health(i).wedge_events, 0u) << "board " << i;
    }
    return fleet.health(0).wedge_events;
  };
  // The mayfly exits in the first epoch: wedged at all 87 barriers of the run.
  EXPECT_EQ(wedge_events(1), 87u);
  EXPECT_EQ(wedge_events(4), 87u);
}

// Supervision: a board whose only process exits is wedged (no runnable process,
// no future event). With restart_wedged set, the fleet revives it through the
// capability-gated restart path after the grace period — repeatedly.
TEST(FleetSupervision, RestartsWedgedBoard) {
  FleetConfig config;
  config.restart_wedged = true;
  config.wedge_grace_epochs = 2;
  Fleet fleet(config);

  BoardConfig bc;
  SimBoard board(bc);
  AppSpec app;
  app.name = "mayfly";
  app.source = R"(
_start:
    li a0, 500
    call sleep_ticks
    li a0, 0
    call tock_exit_terminate
)";
  ASSERT_NE(board.installer().Install(app), 0u) << board.installer().error();
  ASSERT_EQ(board.Boot(), 1);
  fleet.AddBoard(&board);
  fleet.Run(400'000);

  EXPECT_GT(fleet.health(0).wedge_events, 0u);
  EXPECT_GT(fleet.health(0).supervised_restarts, 1u);
  FleetStats stats = fleet.Stats();
  EXPECT_EQ(stats.supervised_restarts, fleet.health(0).supervised_restarts);
  // Every revival re-runs the app from _start: the restart count shows up as
  // repeated process work, not just a counter. (Kernel counters are compiled
  // out under -DTOCK_TRACE=OFF; the fleet-side ledger above is always live.)
  if (KernelConfig::trace_enabled) {
    EXPECT_GT(stats.aggregate.process_restarts, 0u);
  }
}

// Without supervision the board stays wedged and merely coasts to the target.
TEST(FleetSupervision, WedgedBoardWithoutRestartStaysDown) {
  Fleet fleet;
  BoardConfig bc;
  SimBoard board(bc);
  AppSpec app;
  app.name = "mayfly";
  app.source = R"(
_start:
    li a0, 0
    call tock_exit_terminate
)";
  ASSERT_NE(board.installer().Install(app), 0u) << board.installer().error();
  ASSERT_EQ(board.Boot(), 1);
  fleet.AddBoard(&board);
  fleet.Run(100'000);

  EXPECT_GT(fleet.health(0).wedge_events, 0u);
  EXPECT_EQ(fleet.health(0).supervised_restarts, 0u);
  FleetStats stats = fleet.Stats();
  EXPECT_EQ(stats.boards_live, 0u);
}

// BoardConfig::allow_scheduler_env: the TOCK_SCHED_POLICY override applies only
// to boards that did not make an explicit policy choice.
TEST(FleetConfigTest, SchedulerEnvOptOut) {
  // Save the ambient override (scripts/check_matrix.sh runs the whole suite with
  // TOCK_SCHED_POLICY=cooperative) so later tests still see it.
  const char* ambient = std::getenv("TOCK_SCHED_POLICY");
  std::string saved = ambient != nullptr ? ambient : "";
  ASSERT_EQ(setenv("TOCK_SCHED_POLICY", "mlfq", /*overwrite=*/1), 0);

  BoardConfig defaulted;  // allow_scheduler_env = true
  SimBoard follower(defaulted);
  EXPECT_EQ(follower.kernel().scheduler_policy(), SchedulerPolicy::kMlfq);

  BoardConfig explicit_choice;
  explicit_choice.kernel.scheduler.policy = SchedulerPolicy::kPriority;
  explicit_choice.allow_scheduler_env = false;
  SimBoard holdout(explicit_choice);
  EXPECT_EQ(holdout.kernel().scheduler_policy(), SchedulerPolicy::kPriority);

  if (ambient != nullptr) {
    setenv("TOCK_SCHED_POLICY", saved.c_str(), /*overwrite=*/1);
  } else {
    unsetenv("TOCK_SCHED_POLICY");
  }
}

}  // namespace
}  // namespace tock
