// Fault-policy and fault-injection tests (§2.3, §2.4, §3.4).
//
// Exercises the per-process FaultPolicy machinery (panic / stop / deferred
// backoff restart) against deterministically injected faults: synthesized MPU
// violations and illegal instructions, TBF header/signature bit-flips, grant
// allocation pressure, and IRQ storms. The long randomized soak lives in
// fault_soak_test.cc; these are the targeted single-scenario checks.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "board/sim_board.h"
#include "kernel/fault_injector.h"
#include "kernel/grant.h"
#include "kernel/process_loader.h"

namespace tock {
namespace {

const std::string kSpinApp = "_start:\nspin:\n    j spin\n";

// A worker that counts iterations in RAM and makes one yield-no-wait syscall per
// loop, so syscall_count measures forward progress.
const std::string kWorkerApp = R"(
_start:
    mv s0, a0
loop:
    lw t0, 0(s0)
    addi t0, t0, 1
    sw t0, 0(s0)
    li a0, 0
    li a4, 0
    ecall
    j loop
)";

// ---- ResetForRestart hygiene (regression) ------------------------------------------------

TEST(ProcessReset, ClearsDiagnosticsFromPreviousIncarnation) {
  Process p;
  p.id = ProcessId{0, 1};
  p.ram_start = 0x10000000;
  p.ram_size = 8192;
  p.fault_info.vm_fault.kind = VmFault::Kind::kIllegalInstruction;
  p.fault_info.at_cycle = 1234;
  p.timeslice_expirations = 7;
  p.restart_due_cycle = 999;

  p.ResetForRestart();

  // A restarted process that never faulted again must not still show the old
  // fault, and its preemption count must not accumulate across incarnations.
  EXPECT_EQ(p.fault_info.vm_fault.kind, VmFault::Kind::kNone);
  EXPECT_EQ(p.fault_info.at_cycle, 0u);
  EXPECT_EQ(p.timeslice_expirations, 0u);
  EXPECT_EQ(p.restart_due_cycle, 0u);
  EXPECT_EQ(p.id.generation, 2u);  // stale ProcessIds must go dead
}

// ---- Injected CPU faults -----------------------------------------------------------------

TEST(FaultInjection, InjectedMpuViolationFaultsOnlyTheTargetProcess) {
  SimBoard board;
  AppSpec victim;
  victim.name = "victim";
  victim.source = kWorkerApp;
  AppSpec peer;
  peer.name = "peer";
  peer.source = kWorkerApp;
  ASSERT_NE(board.installer().Install(victim), 0u);
  ASSERT_NE(board.installer().Install(peer), 0u);
  ASSERT_EQ(board.Boot(), 2);

  board.fault_injector().ArmCpuFault(0, 500, VmFault::Kind::kBus);
  board.Run(2'000'000);

  Process* v = board.kernel().process(0);
  Process* p = board.kernel().process(1);
  EXPECT_EQ(board.fault_injector().cpu_faults_injected(), 1u);
  EXPECT_EQ(v->state, ProcessState::kFaulted);  // default policy: Stop
  EXPECT_EQ(v->fault_info.vm_fault.kind, VmFault::Kind::kBus);
  EXPECT_EQ(v->fault_info.vm_fault.bus_fault.kind, BusFaultKind::kMpuViolation);
  EXPECT_TRUE(p->IsAlive());
  EXPECT_GT(p->syscall_count, 0u);
  if (KernelTrace::kEnabled) {
    EXPECT_EQ(board.kernel().stats().process_faults, 1u);
  }
}

TEST(FaultInjection, FaultCauseIsRecordedInTheTrace) {
  if (!KernelTrace::kEnabled) {
    GTEST_SKIP() << "trace layer compiled out (TOCK_TRACE=OFF)";
  }
  SimBoard board;
  AppSpec app;
  app.name = "victim";
  app.source = kWorkerApp;
  ASSERT_NE(board.installer().Install(app), 0u);
  ASSERT_EQ(board.Boot(), 1);

  board.fault_injector().ArmCpuFault(0, 200, VmFault::Kind::kIllegalInstruction);
  board.Run(1'000'000);

  const auto& ring = board.kernel().trace().events();
  bool found = false;
  for (size_t i = 0; i < ring.Size(); ++i) {
    if (ring[i].kind == TraceEventKind::kProcessFault) {
      found = true;
      EXPECT_STREQ(FaultCauseName(ring[i].arg), "illegal-instruction");
    }
  }
  EXPECT_TRUE(found);
}

TEST(FaultPolicy, RestartIsDeferredWithExponentialBackoff) {
  BoardConfig config;
  config.kernel.default_fault_policy =
      FaultPolicy::Restart(/*max_restarts=*/8, /*backoff_base_cycles=*/200'000,
                           /*backoff_cap_cycles=*/10'000'000);
  SimBoard board(config);
  AppSpec app;
  app.name = "crashy";
  app.source = kWorkerApp;
  ASSERT_NE(board.installer().Install(app), 0u);
  ASSERT_EQ(board.Boot(), 1);

  board.fault_injector().ArmCpuFault(0, 300, VmFault::Kind::kBus);
  // Run in small slices until the fault fires, so we land inside the backoff.
  // (The injector's audit counter is the guard; KernelStats may be compiled out.)
  Process* p = board.kernel().process(0);
  int guard = 1000;
  while (board.fault_injector().armed_cpu_faults() > 0 && guard-- > 0) {
    board.Run(10'000);
  }
  ASSERT_EQ(board.fault_injector().cpu_faults_injected(), 1u);

  // The process is parked, its dynamic state reclaimed, and the revival scheduled
  // in the future — not performed inline in the fault handler.
  EXPECT_EQ(p->state, ProcessState::kRestartPending);
  EXPECT_FALSE(p->IsAlive());
  EXPECT_EQ(p->restart_count, 1u);
  EXPECT_EQ(p->grant_break, p->ram_start + p->ram_size);
  EXPECT_TRUE(p->upcall_queue.IsEmpty());
  if (KernelTrace::kEnabled) {
    EXPECT_EQ(board.kernel().stats().process_restarts, 0u);  // not revived yet
  }
  uint64_t first_delay = p->restart_due_cycle - p->fault_info.at_cycle;
  EXPECT_EQ(first_delay, 200'000u);
  ASSERT_GT(p->restart_due_cycle, board.mcu().CyclesNow());

  // Past the due cycle the process comes back and runs again.
  board.Run(p->restart_due_cycle - board.mcu().CyclesNow() + 100'000);
  EXPECT_TRUE(p->IsAlive());
  if (KernelTrace::kEnabled) {
    EXPECT_EQ(board.kernel().stats().process_restarts, 1u);
  }

  // A second fault backs off twice as long.
  board.fault_injector().ArmCpuFault(0, 300, VmFault::Kind::kBus);
  guard = 1000;
  while (board.fault_injector().armed_cpu_faults() > 0 && guard-- > 0) {
    board.Run(10'000);
  }
  ASSERT_EQ(board.fault_injector().cpu_faults_injected(), 2u);
  uint64_t second_delay = p->restart_due_cycle - p->fault_info.at_cycle;
  EXPECT_EQ(second_delay, 2 * first_delay);
}

TEST(FaultPolicy, AppBreakResetsAndPeerGrantsSurviveRestart) {
  BoardConfig config;
  config.kernel.default_fault_policy = FaultPolicy::Restart(8, 50'000, 1'000'000);
  SimBoard board(config);
  AppSpec victim;
  victim.name = "victim";
  // First incarnation only (RAM persists and marks the run): grow the break with
  // sbrk(2048), then spin. The restarted incarnation must come back at the
  // original break, not the widened one.
  victim.source = R"(
_start:
    mv s0, a0
    lw t0, 0(s0)
    bnez t0, spin
    li t1, 1
    sw t1, 0(s0)
    li a0, 1
    li a1, 2048
    li a4, 5
    ecall
spin:
    j spin
)";
  AppSpec peer;
  peer.name = "peer";
  peer.source = kWorkerApp;
  ASSERT_NE(board.installer().Install(victim), 0u);
  ASSERT_NE(board.installer().Install(peer), 0u);
  ASSERT_EQ(board.Boot(), 2);
  board.Run(500'000);

  Process* v = board.kernel().process(0);
  Process* p = board.kernel().process(1);
  ASSERT_EQ(v->app_break, v->initial_break + 2048);

  // Give the peer a grant allocation filled with a known pattern.
  CapabilityFactory factory;
  auto mem_cap = factory.MintMemoryAllocation();
  struct Pattern {
    uint8_t bytes[64];
  };
  Grant<Pattern> grant(&board.kernel(), mem_cap);
  ASSERT_TRUE(grant
                  .Enter(p->id,
                         [](Pattern& pat) {
                           for (size_t i = 0; i < sizeof(pat.bytes); ++i) {
                             pat.bytes[i] = static_cast<uint8_t>(0xA0 + i);
                           }
                         })
                  .ok());
  std::vector<uint8_t> before(p->ram_start + p->ram_size - p->grant_break);
  ASSERT_TRUE(board.mcu().bus().ReadBlock(p->grant_break, before.data(), before.size()));

  board.fault_injector().ArmCpuFault(0, 100, VmFault::Kind::kBus);
  board.Run(5'000'000);  // fault + backoff + revival

  ASSERT_EQ(board.fault_injector().cpu_faults_injected(), 1u);
  EXPECT_TRUE(v->IsAlive());
  EXPECT_EQ(v->restart_count, 1u);
  // The widened break did not survive the restart...
  EXPECT_EQ(v->app_break, v->initial_break);
  // ...and the peer's grant memory is byte-for-byte unaffected.
  std::vector<uint8_t> after(before.size());
  ASSERT_TRUE(board.mcu().bus().ReadBlock(p->grant_break, after.data(), after.size()));
  EXPECT_EQ(std::memcmp(before.data(), after.data(), before.size()), 0);
  int a_check = 0;
  ASSERT_TRUE(grant.Enter(p->id, [&](Pattern& pat) { a_check = pat.bytes[5]; }).ok());
  EXPECT_EQ(a_check, 0xA5);
}

TEST(FaultPolicy, CrashLoopingProcessCannotStarveItsPeer) {
  // The acceptance scenario: a process that faults the moment it runs, under a
  // Restart policy, must not prevent its peer from finishing its workload.
  BoardConfig config;
  config.kernel.default_fault_policy = FaultPolicy::Stop();
  SimBoard board(config);
  AppSpec bad;
  bad.name = "bad";
  bad.source = R"(
_start:
    li t0, 0x20000000
    sw t0, 0(t0)       # kernel RAM: faults immediately, every incarnation
)";
  AppSpec good;
  good.name = "good";
  good.source = R"(
_start:
    la a0, msg
    li a1, 5
    call console_print
    li a0, 42
    call tock_exit_terminate
msg:
    .asciz "done\n"
)";
  ASSERT_NE(board.installer().Install(bad), 0u);
  ASSERT_NE(board.installer().Install(good), 0u);
  ASSERT_EQ(board.Boot(), 2);

  // Give only the crash-looper a restart policy with a modest budget.
  ASSERT_TRUE(board.kernel()
                  .SetFaultPolicy(board.kernel().process(0)->id,
                                  FaultPolicy::Restart(/*max_restarts=*/4,
                                                       /*backoff_base_cycles=*/20'000,
                                                       /*backoff_cap_cycles=*/500'000),
                                  board.pm_cap())
                  .ok());
  board.Run(20'000'000);

  Process* bad_p = board.kernel().process(0);
  Process* good_p = board.kernel().process(1);
  EXPECT_EQ(good_p->state, ProcessState::kTerminated);
  EXPECT_EQ(good_p->completion_code, 42u);
  EXPECT_NE(board.uart_hw().output().find("done"), std::string::npos);
  // The crash loop burned its whole budget and ended terminally faulted.
  EXPECT_EQ(bad_p->restart_count, 4u);
  EXPECT_EQ(bad_p->state, ProcessState::kFaulted);
  if (KernelTrace::kEnabled) {
    EXPECT_EQ(board.kernel().stats().process_faults, 5u);  // initial + 4 restarts
    EXPECT_EQ(board.kernel().stats().process_restarts, 4u);
  }
}

TEST(FaultPolicy, PanicPolicyHaltsTheKernel) {
  BoardConfig config;
  config.kernel.default_fault_policy = FaultPolicy::Panic();
  SimBoard board(config);
  AppSpec bad;
  bad.name = "bad";
  bad.source = "_start:\n    li t0, 0x20000000\n    sw t0, 0(t0)\n";
  AppSpec other;
  other.name = "other";
  other.source = kWorkerApp;
  ASSERT_NE(board.installer().Install(bad), 0u);
  ASSERT_NE(board.installer().Install(other), 0u);
  ASSERT_EQ(board.Boot(), 2);

  board.Run(10'000'000);

  EXPECT_TRUE(board.kernel().panicked());
  EXPECT_EQ(board.kernel().process(0)->state, ProcessState::kFaulted);
  // The main loop halted: the peer stopped being scheduled, well short of the
  // simulated deadline.
  uint64_t halted_at = board.mcu().CyclesNow();
  EXPECT_LT(halted_at, 10'000'000u);
  uint64_t peer_syscalls = board.kernel().process(1)->syscall_count;
  board.Run(1'000'000);
  EXPECT_EQ(board.kernel().process(1)->syscall_count, peer_syscalls);
}

TEST(FaultPolicy, StopWhileRestartPendingCancelsTheRevival) {
  BoardConfig config;
  config.kernel.default_fault_policy = FaultPolicy::Restart(8, 500'000, 10'000'000);
  SimBoard board(config);
  AppSpec app;
  app.name = "victim";
  app.source = kWorkerApp;
  ASSERT_NE(board.installer().Install(app), 0u);
  ASSERT_EQ(board.Boot(), 1);

  board.fault_injector().ArmCpuFault(0, 200, VmFault::Kind::kBus);
  Process* p = board.kernel().process(0);
  int guard = 1000;
  while (board.fault_injector().armed_cpu_faults() > 0 && guard-- > 0) {
    board.Run(10'000);
  }
  ASSERT_EQ(p->state, ProcessState::kRestartPending);

  // Field operator stops the flapping process (e.g. via the process console).
  ASSERT_TRUE(board.kernel().StopProcess(p->id, board.pm_cap()).ok());
  EXPECT_EQ(p->state, ProcessState::kTerminated);

  board.Run(2'000'000);  // well past the would-be revival
  EXPECT_EQ(p->state, ProcessState::kTerminated);
  if (KernelTrace::kEnabled) {
    EXPECT_EQ(board.kernel().stats().process_restarts, 0u);
  }
}

// ---- Grant-allocation pressure ----------------------------------------------------------

TEST(FaultInjection, GrantFailureInjectionTargetsOnlyTheVictim) {
  SimBoard board;
  AppSpec a;
  a.name = "a";
  a.source = kSpinApp;
  AppSpec b;
  b.name = "b";
  b.source = kSpinApp;
  ASSERT_NE(board.installer().Install(a), 0u);
  ASSERT_NE(board.installer().Install(b), 0u);
  ASSERT_EQ(board.Boot(), 2);

  CapabilityFactory factory;
  auto mem_cap = factory.MintMemoryAllocation();
  struct Counter {
    int value = 0;
  };
  Grant<Counter> grant(&board.kernel(), mem_cap);
  ProcessId pa = board.kernel().process(0)->id;
  ProcessId pb = board.kernel().process(1)->id;

  board.fault_injector().FailNextGrantAllocs(pa.index, 1);

  // The victim's first-time allocation fails as if its quota were exhausted...
  Result<void> denied = grant.Enter(pa, [](Counter&) {});
  EXPECT_FALSE(denied.ok());
  // ...the peer allocates fine, and the victim recovers once the pressure lifts.
  EXPECT_TRUE(grant.Enter(pb, [](Counter&) {}).ok());
  EXPECT_TRUE(grant.Enter(pa, [](Counter&) {}).ok());
  EXPECT_EQ(board.fault_injector().grant_failures_injected(), 1u);
}

// ---- IRQ storm ---------------------------------------------------------------------------

TEST(FaultInjection, IrqStormIsServicedWithoutStarvingApps) {
  SimBoard board;
  AppSpec app;
  app.name = "worker";
  app.source = R"(
_start:
    la a0, msg
    li a1, 3
    call console_print
    li a0, 0
    call tock_exit_terminate
msg:
    .asciz "ok\n"
)";
  ASSERT_NE(board.installer().Install(app), 0u);
  ASSERT_EQ(board.Boot(), 1);

  uint64_t dispatches_before = board.kernel().stats().irq_dispatches;
  board.fault_injector().StartIrqStorm(MemoryMap::kGpio, /*period_cycles=*/2'000, /*count=*/50);
  board.Run(10'000'000);

  EXPECT_EQ(board.fault_injector().irqs_injected(), 50u);
  if (KernelTrace::kEnabled) {
    EXPECT_GE(board.kernel().stats().irq_dispatches - dispatches_before, 50u);
  }
  EXPECT_EQ(board.kernel().process(0)->state, ProcessState::kTerminated);
  EXPECT_NE(board.uart_hw().output().find("ok"), std::string::npos);
}

// ---- Loader corruption: integrity vs. authenticity (§3.4) --------------------------------

TEST(LoaderCorruption, BitFlippedHeaderFailsTheIntegrityStep) {
  BoardConfig config;
  config.kernel.loader = LoaderMode::kAsynchronous;
  SimBoard board(config);
  AppSpec app;
  app.name = "signed";
  app.source = kSpinApp;
  app.sign = true;
  uint32_t addr = board.installer().Install(app);
  ASSERT_NE(addr, 0u);

  // Flip one bit past the magic word (bits 0..31 would read as end-of-list, not
  // as corruption): the XOR checksum must catch it at the structural step.
  ASSERT_TRUE(FaultInjector::FlipHeaderBit(&board.mcu(), addr, /*bit_index=*/300));
  EXPECT_EQ(board.Boot(), 0);
  ASSERT_EQ(board.loader().records().size(), 1u);
  EXPECT_EQ(board.loader().records()[0].error, LoadError::kStructural);
  EXPECT_FALSE(board.loader().records()[0].created);
}

TEST(LoaderCorruption, BitFlippedSignatureFailsTheAuthenticityStep) {
  BoardConfig config;
  config.kernel.loader = LoaderMode::kAsynchronous;
  SimBoard board(config);
  AppSpec tampered;
  tampered.name = "tampered";
  tampered.source = kSpinApp;
  tampered.sign = true;
  AppSpec good;
  good.name = "good";
  good.source = kSpinApp;
  good.sign = true;
  uint32_t tampered_addr = board.installer().Install(tampered);
  ASSERT_NE(tampered_addr, 0u);
  ASSERT_NE(board.installer().Install(good), 0u);

  // The image still parses (header intact), but its MAC no longer verifies.
  ASSERT_TRUE(FaultInjector::FlipSignatureBit(&board.mcu(), tampered_addr, /*bit_index=*/77));
  EXPECT_EQ(board.Boot(), 1);
  ASSERT_EQ(board.loader().records().size(), 2u);
  EXPECT_EQ(board.loader().records()[0].error, LoadError::kAuthenticity);
  EXPECT_FALSE(board.loader().records()[0].created);
  EXPECT_TRUE(board.loader().records()[1].created);

  // Integrity and authenticity failures are distinct, typed outcomes.
  EXPECT_NE(LoadError::kStructural, LoadError::kAuthenticity);
  EXPECT_STRNE(LoadErrorName(LoadError::kStructural), LoadErrorName(LoadError::kAuthenticity));
}

// ---- Where an armed fault lands ----------------------------------------------------------

// Three apps under a Restart policy with seven armed CPU faults of every entry
// kind: pid-specific and kAnyProcess, one at countdown 0, and two at countdown 1
// on one pid (the second fires on the first instruction of the revival, having
// been decremented alongside the first). Pins, for every injected fault, which
// process took it, at which pc and cycle, and of which kind — the instruction a
// fault lands on is simulated behaviour, so the execute loop's handling of armed
// faults must not move it by one slot. The sleeper's alarm upcalls put
// upcall-return pseudo-steps among the counted slots.
TEST(FaultInjection, ArmedFaultCampaignLandsOnPinnedInstructions) {
  BoardConfig config;
  config.allow_scheduler_env = false;  // pinned under round-robin in every policy leg
  config.kernel.default_fault_policy =
      FaultPolicy::Restart(/*max_restarts=*/8, /*backoff_base_cycles=*/50'000,
                           /*backoff_cap_cycles=*/400'000);
  SimBoard board(config);
  const std::pair<const char*, std::string> apps[] = {
      {"worker", kWorkerApp},
      {"sleeper", "_start:\nloop:\n    li a0, 37\n    call sleep_ticks\n    j loop\n"},
      {"spinner",
       "_start:\n    li t0, 0\nspin:\n    addi t0, t0, 1\n    andi t1, t0, 7\n"
       "    bnez t1, spin\n    j spin\n"}};
  for (const auto& [name, source] : apps) {
    AppSpec spec;
    spec.name = name;
    spec.source = source;
    ASSERT_NE(board.installer().Install(spec), 0u) << board.installer().error();
  }
  ASSERT_EQ(board.Boot(), 3);

  FaultInjector& injector = board.fault_injector();
  using Kind = VmFault::Kind;
  injector.ArmCpuFault(2, 0, Kind::kIllegalInstruction);
  injector.ArmCpuFault(1, 1, Kind::kBus);
  injector.ArmCpuFault(1, 1, Kind::kIllegalInstruction);
  injector.ArmCpuFault(FaultInjector::kAnyProcess, 4'321, Kind::kBus);
  injector.ArmCpuFault(0, 25'000, Kind::kIllegalInstruction);
  injector.ArmCpuFault(FaultInjector::kAnyProcess, 150'000, Kind::kIllegalInstruction);
  injector.ArmCpuFault(2, 400'000, Kind::kBus);

  // A faulted process keeps its fault record until its revival, at least one
  // 50k-cycle backoff later; sampling every 10k cycles therefore sees every fault.
  std::string landed;
  uint64_t last_at[3] = {0, 0, 0};
  for (int slice = 0; slice < 330; ++slice) {
    board.Run(10'000);
    for (uint8_t pid = 0; pid < 3; ++pid) {
      const Process* p = board.kernel().process(pid);
      if (!p->IsAlive() && p->fault_info.at_cycle != last_at[pid]) {
        last_at[pid] = p->fault_info.at_cycle;
        char line[64];
        std::snprintf(line, sizeof(line), "pid %u %s +0x%x @%llu\n", pid,
                      p->fault_info.vm_fault.kind == Kind::kBus ? "bus" : "illegal",
                      p->fault_info.vm_fault.pc - p->entry_point,
                      static_cast<unsigned long long>(p->fault_info.at_cycle));
        landed += line;
      }
    }
  }

  // Recorded with the per-instruction loop that consulted the injector before
  // every slot while any CPU fault was armed.
  EXPECT_EQ(landed,
            "pid 1 bus +0x4 @10173\n"
            "pid 2 illegal +0x0 @10257\n"
            "pid 0 bus +0x24 @45547\n"
            "pid 1 illegal +0x0 @70376\n"
            "pid 2 illegal +0x8 @295632\n"
            "pid 0 illegal +0x1c @446713\n"
            "pid 2 bus +0x8 @852517\n");
  EXPECT_EQ(board.kernel().process(0)->restart_count, 2u);
  EXPECT_EQ(board.kernel().process(1)->restart_count, 2u);
  EXPECT_EQ(board.kernel().process(2)->restart_count, 3u);
  EXPECT_EQ(board.kernel().instructions_retired(), 1'652'044u);
  EXPECT_EQ(board.mcu().CyclesNow(), 3'307'189u);
  EXPECT_EQ(injector.cpu_faults_injected(), 7u);

  if (KernelTrace::kEnabled) {
    // FNV-1a digest of the stats + trace dump, recorded with that same loop and
    // re-recorded when a sleep cut by a Run boundary became one sleep record.
    std::string dump;
    board.kernel().trace().DumpStats(dump);
    board.kernel().trace().DumpTrace(dump);
    uint64_t digest = 0xcbf29ce484222325ull;
    for (unsigned char c : dump) {
      digest = (digest ^ c) * 0x100000001b3ull;
    }
    EXPECT_EQ(digest, 0x3e1d39c67d5db6f6ull) << dump;
  }
}

// ---- Decode-cache coherence under flash corruption (vm/decode.h) -------------------------

// Mid-run reprogramming of a process's code — the fault-injection analogue of a TBF
// bit-flip landing in flash — must never leave the process executing stale decodes.
// ProgramFlash is the single modeled flash-write path; the kernel observes it
// (Kernel::OnFlashProgrammed) and invalidates the overlapping decode-cache words,
// dropping the whole chained superblock the hot loop word sits in, so the next
// execution of the corrupted word refetches, decodes the garbage, and faults.
// Without that hook the predecoded loop body would keep running the *old*
// instructions forever and this test would time out un-faulted. The run must land
// exactly where the per-instruction engine that preceded the batch engine landed,
// and the terminal fault must settle the vm.cache_bytes gauge back to zero
// (ReleaseVmCache on the death path).
TEST(FaultInjection, MidRunFlashCorruptionUnderSuperblocksMatchesPerInsnEngine) {
  BoardConfig config;
  config.allow_scheduler_env = false;  // pinned under round-robin in every policy leg
  SimBoard board(config);
  AppSpec worker;
  worker.name = "worker";
  worker.source = kWorkerApp;
  ASSERT_NE(board.installer().Install(worker), 0u);
  ASSERT_EQ(board.Boot(), 1);

  board.Run(100'000);  // warm: blocks built and chained across the loop branch
  Process* p = board.kernel().process(0);
  ASSERT_NE(p, nullptr);
  ASSERT_TRUE(p->IsAlive());

  // Clobber the first loop instruction (entry + 4, after `mv s0, a0`) with an
  // all-zero word — not a valid RV32 encoding.
  const uint8_t zeros[4] = {0, 0, 0, 0};
  ASSERT_TRUE(board.mcu().bus().ProgramFlash(p->entry_point + 4, zeros, 4));
  board.Run(1'000'000);

  // Recorded with the per-instruction engine.
  EXPECT_EQ(p->state, ProcessState::kFaulted);
  EXPECT_EQ(p->fault_info.vm_fault.kind, VmFault::Kind::kIllegalInstruction);
  EXPECT_EQ(p->fault_info.vm_fault.pc, p->entry_point + 4);
  EXPECT_EQ(p->fault_info.at_cycle, 100'085u);
  EXPECT_EQ(board.kernel().instructions_retired(), 9'550u);
  EXPECT_EQ(p->syscall_count, 1'061u);
  EXPECT_EQ(board.mcu().CyclesNow(), 1'100'083u);

  if (KernelConfig::trace_enabled) {
    // The terminal fault released the tables, settling the gauge to zero; at
    // least the corrupted word's block plus the blocks dying with the released
    // tables were invalidated.
    EXPECT_EQ(board.kernel().stats().vm_cache_bytes, 0u);
    EXPECT_GT(board.kernel().stats().vm_blocks_invalidated, 0u);
  }
}

}  // namespace
}  // namespace tock
