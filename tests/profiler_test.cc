// Profiling-layer tests (kernel/cycle_accounting.h, util/log2_hist.h wiring,
// tools/trace_export.h).
//
// The centerpiece is the conservation law: cycle attribution is switch-based and
// therefore exhaustive by construction, so over any window the bucket sums must
// equal the elapsed cycles EXACTLY — user + service + capsule + irq + idle +
// kernel == now - anchor, no slack term, no rounding. A two-app workload with
// syscalls, timers, upcalls, and sleep exercises every bucket and the law must
// still hold to the cycle.
//
// The Chrome-trace exporter gets the same golden treatment as the text trace:
// a fixed scenario must serialize byte-for-byte identically run over run, locked
// against a checked-in golden. Regenerate after an intentional change with:
//   TOCK_REGEN_GOLDEN=1 ./build/tests/tock_tests --gtest_filter='Profiler.*'
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "board/sim_board.h"
#include "kernel/cycle_accounting.h"
#include "kernel/trace.h"
#include "tools/trace_export.h"

namespace tock {
namespace {

constexpr uint64_t kCycleBudget = 1'500'000;

// Same fixed two-app workload as trace_test.cc's golden: console writes (IRQ +
// upcall traffic), sleeps (idle + timer traffic), and clean exits.
const char* kAlphaSource = R"(
_start:
    li s1, 3
loop:
    la a0, msg
    li a1, 2
    call console_print
    li a0, 200
    call sleep_ticks
    addi s1, s1, -1
    bnez s1, loop
    li a0, 0
    call tock_exit_terminate
msg:
    .asciz "A\n"
)";

const char* kBetaSource = R"(
_start:
    li s1, 2
loop:
    la a0, msg
    li a1, 2
    call console_print
    li a0, 350
    call sleep_ticks
    addi s1, s1, -1
    bnez s1, loop
    li a0, 0
    call tock_exit_terminate
msg:
    .asciz "B\n"
)";

void BootTwoApps(SimBoard& board) {
  AppSpec alpha;
  alpha.name = "alpha";
  alpha.source = kAlphaSource;
  AppSpec beta;
  beta.name = "beta";
  beta.source = kBetaSource;
  ASSERT_NE(board.installer().Install(alpha), 0u) << board.installer().error();
  ASSERT_NE(board.installer().Install(beta), 0u) << board.installer().error();
  ASSERT_EQ(board.Boot(), 2);
}

TEST(Profiler, CycleAttributionConservesEveryCycle) {
  if (!KernelTrace::kEnabled) {
    GTEST_SKIP() << "trace layer compiled out (TOCK_TRACE=OFF)";
  }
  SimBoard board;
  BootTwoApps(board);
  board.Run(kCycleBudget);

  const CycleAccounting& acct = board.kernel().trace().accounting();
  ASSERT_TRUE(acct.begun());
  uint64_t now = board.mcu().CyclesNow();
  CycleAccounting::Snapshot snap = acct.Snap(now);

  // The conservation law, exactly: every cycle since the anchor is in exactly
  // one bucket. EQ on uint64_t — not NEAR, not GE.
  EXPECT_EQ(snap.Total(), snap.Elapsed())
      << "attribution leaked or double-charged cycles: buckets sum to "
      << snap.Total() << " but " << snap.Elapsed() << " elapsed";

  // The workload touches every bucket: both apps ran instructions, both made
  // syscalls, the console/timer raised interrupts, deferred bottom halves ran,
  // and the kernel slept between timer deadlines.
  EXPECT_GT(snap.user[0], 0u) << "alpha's user cycles";
  EXPECT_GT(snap.user[1], 0u) << "beta's user cycles";
  EXPECT_GT(snap.service[0], 0u) << "alpha's kernel-service cycles";
  EXPECT_GT(snap.service[1], 0u) << "beta's kernel-service cycles";
  EXPECT_GT(snap.irq, 0u);
  EXPECT_GT(snap.idle, 0u);
  // capsule and kernel stay 0 here: this board's deferred calls cost no cycles,
  // and Run() issues loop steps back-to-back so no ambient time elapses. The
  // later-snapshot check below proves the ambient kernel bucket does charge.

  // The law holds at any later quiescent point too: cycles ticked after the run
  // land in the ambient kernel bucket, never vanish.
  CycleAccounting::Snapshot later = acct.Snap(now + 12'345);
  EXPECT_EQ(later.Total(), later.Elapsed());
  EXPECT_EQ(later.kernel, snap.kernel + 12'345);
}

TEST(Profiler, ProcStatsRowsMatchKernelState) {
  SimBoard board;
  BootTwoApps(board);
  board.Run(kCycleBudget);

  for (size_t i = 0; i < 2; ++i) {
    ProcStats row = board.kernel().GetProcStats(i);
    const Process& p = *board.kernel().process(i);
    // PCB-backed fields are live in every build configuration.
    EXPECT_EQ(row.syscalls, p.syscall_count) << "slot " << i;
    EXPECT_EQ(row.upcalls, p.upcalls_delivered) << "slot " << i;
    EXPECT_EQ(row.restarts, p.restart_count) << "slot " << i;
    if (KernelTrace::kEnabled) {
      EXPECT_GT(row.user_cycles, 0u) << "slot " << i;
      EXPECT_GT(row.service_cycles, 0u) << "slot " << i;
      // console_print allows a buffer; the driver's grant footprint shows up as
      // a nonzero high-water mark.
      EXPECT_GT(row.grant_high_water, 0u) << "slot " << i;
      // upcall_queue_max can legitimately be 0: a yield-waiting process takes
      // its upcall as a direct return, never through the queue.
      EXPECT_EQ(row.upcall_queue_max, board.kernel().trace().upcall_queue_max(i))
          << "slot " << i;
    }
  }
  // Out-of-range slot: all zeros, no crash.
  ProcStats bad = board.kernel().GetProcStats(Kernel::kMaxProcesses);
  EXPECT_EQ(bad.syscalls, 0u);
  EXPECT_EQ(bad.user_cycles, 0u);
}

TEST(Profiler, LatencyHistogramsPopulate) {
  if (!KernelTrace::kEnabled) {
    GTEST_SKIP() << "trace layer compiled out (TOCK_TRACE=OFF)";
  }
  SimBoard board;
  BootTwoApps(board);
  board.Run(kCycleBudget);

  const KernelTrace& trace = board.kernel().trace();
  // Every syscall's service time was measured.
  EXPECT_EQ(trace.syscall_hist().count(), board.kernel().stats().SyscallsTotal());
  EXPECT_GT(trace.syscall_hist().min(), 0u) << "a syscall cannot take zero cycles";
  // Console writes and timer firings complete through IRQ-scheduled upcalls.
  EXPECT_GT(trace.irq_upcall_hist().count(), 0u);
  // sleep_ticks is a split-phase command + yield-wait: round trips were closed.
  EXPECT_GT(trace.command_roundtrip_hist().count(), 0u);
  // A round trip spans the whole sleep; the IRQ->upcall leg is a fraction of it.
  EXPECT_GE(trace.command_roundtrip_hist().max(), trace.irq_upcall_hist().min());
}

TEST(Profiler, SleepArgSaturationIsCountedAndCapped) {
  if (!KernelTrace::kEnabled) {
    GTEST_SKIP() << "trace layer compiled out (TOCK_TRACE=OFF)";
  }
  // Direct unit test: a single sleep longer than 2^32 cycles cannot fit the
  // 32-bit event arg. The cycle total stays exact, the arg saturates, and the
  // saturation is counted so the exporter knows to fall back to deltas.
  KernelTrace trace;
  uint64_t huge = (uint64_t{1} << 33) + 17;
  trace.RecordSleep(1000, huge, /*woke=*/true);
  EXPECT_EQ(trace.stats().sleep_cycles, huge);
  EXPECT_EQ(trace.stats().sleep_arg_saturations, 1u);
  trace.RecordSleep(2000, 500, /*woke=*/true);
  EXPECT_EQ(trace.stats().sleep_cycles, huge + 500);
  EXPECT_EQ(trace.stats().sleep_arg_saturations, 1u) << "normal sleeps must not count";
}

// Serializes the fixed two-app scenario to Chrome trace JSON.
std::string ExportTwoApps() {
  SimBoard board;
  AppSpec alpha;
  alpha.name = "alpha";
  alpha.source = kAlphaSource;
  AppSpec beta;
  beta.name = "beta";
  beta.source = kBetaSource;
  EXPECT_NE(board.installer().Install(alpha), 0u) << board.installer().error();
  EXPECT_NE(board.installer().Install(beta), 0u) << board.installer().error();
  EXPECT_EQ(board.Boot(), 2);
  board.Run(kCycleBudget);
  return ExportChromeTrace(board.kernel());
}

TEST(Profiler, ChromeTraceExportIsWellFormed) {
  std::string json = ExportTwoApps();
  // Structural checks that hold in BOTH build configurations: under
  // TOCK_TRACE=OFF the exporter still emits a valid (metadata-only) document.
  EXPECT_EQ(json.find("{\"displayTimeUnit\""), 0u);
  EXPECT_EQ(json.back(), '\n');
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("tock-sim"), std::string::npos);
  if (KernelTrace::kEnabled) {
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos) << "no duration spans";
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos) << "no instant events";
    EXPECT_NE(json.find("proc 0: alpha"), std::string::npos);
    EXPECT_NE(json.find("proc 1: beta"), std::string::npos);
    EXPECT_NE(json.find("\"tockStats\""), std::string::npos);
    EXPECT_NE(json.find("\"tockHists\""), std::string::npos);
  }
}

TEST(Profiler, ChromeTraceExportIsDeterministic) {
  std::string first = ExportTwoApps();
  std::string second = ExportTwoApps();
  EXPECT_EQ(first, second) << "the exporter (or the simulation) is nondeterministic";
}

TEST(Profiler, GoldenChromeTraceTwoApps) {
  if (!KernelTrace::kEnabled) {
    GTEST_SKIP() << "trace layer compiled out (TOCK_TRACE=OFF)";
  }
  const std::string golden_path =
      std::string(TOCK_SOURCE_DIR) + "/tests/golden/trace_export_two_apps.json";
  std::string json = ExportTwoApps();

  if (std::getenv("TOCK_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
    out << json;
    GTEST_SKIP() << "golden regenerated at " << golden_path;
  }

  std::ifstream in(golden_path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path
                         << " (regenerate with TOCK_REGEN_GOLDEN=1)";
  std::stringstream contents;
  contents << in.rdbuf();
  EXPECT_EQ(json, contents.str())
      << "Chrome-trace export diverged from the golden; if intentional, "
         "regenerate with TOCK_REGEN_GOLDEN=1";
}

TEST(Profiler, BoardWritesTraceArtifactAtDestruction) {
  std::string path = ::testing::TempDir() + "tock_trace_artifact.json";
  std::remove(path.c_str());
  {
    BoardConfig config;
    config.trace_export_path = path;
    SimBoard board(config);
    BootTwoApps(board);
    board.Run(kCycleBudget);
  }  // destructor writes the artifact
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "board did not write " << path;
  std::stringstream contents;
  contents << in.rdbuf();
  EXPECT_EQ(contents.str().find("{\"displayTimeUnit\""), 0u);
  std::remove(path.c_str());
}

// The conservation law is a property of the attribution mechanism (AcctScope),
// not of any particular scheduling order — so it must hold under every policy the
// pluggable scheduler layer ships, including ones that reorder and re-quantize
// execution (priority, MLFQ) or never preempt at all (cooperative).
class ConservationEveryPolicy : public ::testing::TestWithParam<SchedulerPolicy> {};

TEST_P(ConservationEveryPolicy, CycleAttributionConservesEveryCycle) {
  if (!KernelTrace::kEnabled) {
    GTEST_SKIP() << "trace layer compiled out (TOCK_TRACE=OFF)";
  }
  BoardConfig config;
  config.kernel.scheduler.policy = GetParam();
  // Make MLFQ actually demote and boost inside the budget.
  config.kernel.scheduler.mlfq_boost_period_cycles = 200'000;
  SimBoard board(config);
  if (std::getenv("TOCK_SCHED_POLICY") == nullptr) {
    // The env override rewrites a default-policy config, so the round-robin leg
    // legitimately runs another policy under scripts/check_matrix.sh's sweep.
    ASSERT_EQ(board.kernel().scheduler_policy(), GetParam());
  }
  BootTwoApps(board);
  board.Run(kCycleBudget);

  const CycleAccounting& acct = board.kernel().trace().accounting();
  ASSERT_TRUE(acct.begun());
  CycleAccounting::Snapshot snap = acct.Snap(board.mcu().CyclesNow());
  EXPECT_EQ(snap.Total(), snap.Elapsed())
      << SchedulerPolicyName(GetParam()) << " leaked or double-charged cycles: "
      << snap.Total() << " attributed vs " << snap.Elapsed() << " elapsed";
  // Whatever the policy reordered, both apps must still have run and exited.
  EXPECT_GT(snap.user[0], 0u);
  EXPECT_GT(snap.user[1], 0u);
  EXPECT_EQ(board.kernel().NumLiveProcesses(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, ConservationEveryPolicy,
                         ::testing::Values(SchedulerPolicy::kRoundRobin,
                                           SchedulerPolicy::kCooperative,
                                           SchedulerPolicy::kPriority,
                                           SchedulerPolicy::kMlfq),
                         [](const ::testing::TestParamInfo<SchedulerPolicy>& info) {
                           std::string name = SchedulerPolicyName(info.param);
                           for (char& c : name) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return name;
                         });

TEST(Profiler, ConsoleProfAndHistCommands) {
  SimBoard board;
  AppSpec app;
  app.name = "worker";
  app.source = "_start:\nspin:\n    li a0, 10000\n    call sleep_ticks\n    j spin\n";
  ASSERT_NE(board.installer().Install(app), 0u) << board.installer().error();
  ASSERT_EQ(board.Boot(), 1);
  board.Run(kCycleBudget);

  board.uart1_hw().InjectRx("prof\n");
  board.Run(30'000'000);
  const std::string& out = board.uart1_hw().output();
  EXPECT_NE(out.find("user"), std::string::npos) << "console said: '" << out << "'";
  EXPECT_NE(out.find("worker"), std::string::npos);

  board.uart1_hw().InjectRx("hist\n");
  board.Run(30'000'000);
  const std::string& out2 = board.uart1_hw().output();
  EXPECT_NE(out2.find("syscall"), std::string::npos) << "console said: '" << out2 << "'";
  EXPECT_NE(out2.find("roundtrip"), std::string::npos);
}

}  // namespace
}  // namespace tock
