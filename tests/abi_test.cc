// ABI v1 vs v2 soundness demonstration (§3.3, experiment E6).
//
// Under the original (v1) semantics, the kernel validated an allowed buffer and
// handed *ownership* of its coordinates to the capsule. A buggy-or-malicious capsule
// could stash the old buffer on re-allow and keep using it — exactly the unsound
// aliasing the paper describes. Under v2 the kernel owns the slot and swaps it; the
// capsule never holds coordinates at all, so the attack is structurally impossible.
#include <gtest/gtest.h>

#include <cstring>
#include <iterator>

#include "board/sim_board.h"
#include "capsule/process_info.h"

namespace tock {
namespace {

constexpr uint32_t kHoarderDriver = 0x0BAD;

// A capsule with the v1-era bug: it keeps every buffer it has ever been allowed,
// violating the (compiler-unenforceable) contract that re-allow replaces the old one.
class HoarderCapsule : public SyscallDriver {
 public:
  explicit HoarderCapsule(Kernel* kernel) : kernel_(kernel) {}

  SyscallReturn Command(ProcessId pid, uint32_t command_num, uint32_t arg1,
                        uint32_t arg2) override {
    (void)pid;
    (void)arg1;
    (void)arg2;
    return command_num == 0 ? SyscallReturn::Success()
                            : SyscallReturn::Failure(ErrorCode::kNoSupport);
  }

  Result<void> LegacyAllowV1(ProcessId pid, uint32_t allow_num, uint32_t addr,
                             uint32_t len) override {
    (void)pid;
    (void)allow_num;
    // The v1 contract says: replace any previously held buffer. This capsule
    // "forgets" to — it stashes the old one (the compiler cannot stop it, §3.3.1).
    if (held_addr_ != 0) {
      stale_addr_ = held_addr_;
      stale_len_ = held_len_;
    }
    held_addr_ = addr;
    held_len_ = len;
    return Result<void>::Ok();
  }

  // The capsule later writes through its stale reference — state the app believes
  // it owns again exclusively.
  bool ClobberThroughStaleReference() {
    if (stale_addr_ == 0) {
      return false;
    }
    // TRUSTED-BEGIN(test-only v1 aliasing demonstration): direct translation stands
    // in for the raw slice reference a v1 capsule legitimately held.
    uint8_t* p = kernel_->TranslateRam(stale_addr_);
    std::memset(p, 0xEE, stale_len_);
    // TRUSTED-END
    return true;
  }

  bool HoldsStaleBuffer() const { return stale_addr_ != 0; }

 private:
  Kernel* kernel_;
  uint32_t held_addr_ = 0;
  uint32_t held_len_ = 0;
  uint32_t stale_addr_ = 0;
  uint32_t stale_len_ = 0;
};

// App: allows buffer A, then re-allows buffer B (revoking A per the ABI contract),
// then writes a sentinel into A, which it rightfully owns again.
const char* kReallowApp = R"(
_start:
    mv s0, a0
    # allow(driver 0x0BAD, num 0, ram+256, 16)
    li a0, 0x0BAD
    li a1, 0
    addi a2, s0, 256
    li a3, 16
    li a4, 3
    ecall
    # re-allow with a different buffer: A is revoked
    li a0, 0x0BAD
    li a1, 0
    addi a2, s0, 512
    li a3, 16
    li a4, 3
    ecall
    # the app now trusts A again: store sentinel 0x55 bytes
    li t0, 0x55555555
    sw t0, 256(s0)
    sw t0, 260(s0)
    # park
    li a0, 1
    li a4, 0
    ecall
)";

class AbiTest : public ::testing::TestWithParam<SyscallAbiVersion> {};

TEST_P(AbiTest, StaleCapsuleReferencesOnlyExistUnderV1) {
  BoardConfig config;
  config.kernel.abi = GetParam();
  SimBoard board(config);
  HoarderCapsule hoarder(&board.kernel());
  board.kernel().RegisterDriver(kHoarderDriver, &hoarder);

  AppSpec app;
  app.name = "victim";
  app.source = kReallowApp;
  ASSERT_NE(board.installer().Install(app), 0u);
  ASSERT_EQ(board.Boot(), 1);
  board.Run(1'000'000);

  Process& p = *board.kernel().process(0);
  uint32_t buffer_a = p.ram_start + 256;
  auto read_a = [&] {
    return *board.mcu().bus().Read(buffer_a, 4, Privilege::kPrivileged);
  };
  EXPECT_EQ(read_a(), 0x55555555u) << "app's own write must land";

  if (GetParam() == SyscallAbiVersion::kV1) {
    // The hoarder kept the revoked buffer and can silently corrupt the app's
    // memory — the soundness hole that forced the 2.0 redesign.
    ASSERT_TRUE(hoarder.HoldsStaleBuffer());
    EXPECT_TRUE(hoarder.ClobberThroughStaleReference());
    EXPECT_EQ(read_a(), 0xEEEEEEEEu) << "v1 aliasing corruption must be observable";
  } else {
    // v2: the kernel never gave the capsule coordinates to keep. No stale state
    // exists anywhere to abuse.
    EXPECT_FALSE(hoarder.HoldsStaleBuffer());
    EXPECT_FALSE(hoarder.ClobberThroughStaleReference());
    EXPECT_EQ(read_a(), 0x55555555u);
  }
}

INSTANTIATE_TEST_SUITE_P(Versions, AbiTest,
                         ::testing::Values(SyscallAbiVersion::kV1, SyscallAbiVersion::kV2));

TEST(AbiOverlap, RuntimeOverlapCheckRejectsAliasedAllows) {
  // §5.1.1: the rejected-design alternative — a runtime check that refuses
  // overlapping read-write allows. Available behind config for experiment E7.
  BoardConfig config;
  config.kernel.check_allow_overlap = true;
  SimBoard board(config);
  AppSpec app;
  app.name = "alias";
  app.source = R"(
_start:
    mv s0, a0
    # allow(console, 1, ram+256, 32)
    li a0, 1
    li a1, 1
    addi a2, s0, 256
    li a3, 32
    li a4, 3
    ecall
    sw a0, 0(s0)
    # allow(rng, 0, ram+272, 32): overlaps the console buffer -> must be rejected
    li a0, 0x40001
    li a1, 0
    addi a2, s0, 272
    li a3, 32
    li a4, 3
    ecall
    sw a0, 4(s0)
    sw a1, 8(s0)
    # non-overlapping allow succeeds
    li a0, 0x40001
    li a1, 0
    addi a2, s0, 320
    li a3, 32
    li a4, 3
    ecall
    sw a0, 12(s0)
    li a0, 0
    call tock_exit_terminate
)";
  ASSERT_NE(board.installer().Install(app), 0u);
  ASSERT_EQ(board.Boot(), 1);
  board.Run(1'000'000);
  Process& p = *board.kernel().process(0);
  auto word = [&](uint32_t off) {
    return *board.mcu().bus().Read(p.ram_start + off, 4, Privilege::kPrivileged);
  };
  EXPECT_EQ(word(0), 130u);                                     // first allow ok
  EXPECT_EQ(word(4), 2u);                                       // overlap rejected
  EXPECT_EQ(word(8), static_cast<uint32_t>(ErrorCode::kInvalid));
  EXPECT_EQ(word(12), 130u);                                    // disjoint ok
}

TEST(AbiOverlap, DefaultCellSemanticsAcceptOverlap) {
  // The shipped design: overlapping allows are *accepted*; the kernel treats the
  // bytes as interior-mutable cells rather than promising stability (§5.1.1).
  SimBoard board;
  AppSpec app;
  app.name = "alias";
  app.source = R"(
_start:
    mv s0, a0
    li a0, 1
    li a1, 1
    addi a2, s0, 256
    li a3, 32
    li a4, 3
    ecall
    li a0, 0x40001
    li a1, 0
    addi a2, s0, 256
    li a3, 32
    li a4, 3
    ecall
    sw a0, 0(s0)
    li a0, 0
    call tock_exit_terminate
)";
  ASSERT_NE(board.installer().Install(app), 0u);
  ASSERT_EQ(board.Boot(), 1);
  board.Run(1'000'000);
  Process& p = *board.kernel().process(0);
  EXPECT_EQ(*board.mcu().bus().Read(p.ram_start, 4, Privilege::kPrivileged), 130u);
}

TEST(AbiDiscovery, ProcessInfoStatIdsAreProbeable) {
  // The stat and proc-stat ABIs are append-only; instead of a version handshake,
  // an out-of-range id answers with the table size. A newer userspace on an older
  // kernel probes once and sizes its tables — no failure path to special-case.
  SimBoard board;
  AppSpec app;
  app.name = "probe";
  app.source = "_start:\nspin:\n    li a0, 10000\n    call sleep_ticks\n    j spin\n";
  ASSERT_NE(board.installer().Install(app), 0u);
  ASSERT_EQ(board.Boot(), 1);
  board.Run(1'000'000);
  ProcessInfoDriver driver(&board.kernel(), board.pm_cap());
  ProcessId pid = board.kernel().process(0)->id;

  // Command 5 (kernel stats): every in-range id is a 64-bit read, the first
  // out-of-range id is the count.
  constexpr uint32_t kStatCount = static_cast<uint32_t>(StatId::kNumStats);
  SyscallReturn probe = driver.Command(pid, 5, kStatCount, 0);
  ASSERT_EQ(probe.variant, ReturnVariant::kSuccessU32);
  EXPECT_EQ(probe.values[0], kStatCount);
  probe = driver.Command(pid, 5, UINT32_MAX, 0);
  ASSERT_EQ(probe.variant, ReturnVariant::kSuccessU32);
  EXPECT_EQ(probe.values[0], kStatCount);
  EXPECT_EQ(driver.Command(pid, 5, 0, 0).variant, ReturnVariant::kSuccess2U32);

  // Userspace bakes the numbers in, so every id keeps its name and domain and new
  // stats only append. The rows are written out here, not derived from the stat
  // table, so a reordered, renamed or re-domained row fails.
  struct PinnedStat {
    uint32_t id;
    const char* name;
    bool host;
  };
  constexpr PinnedStat kPinnedStats[] = {
      {0, "syscalls.total", false},           {1, "syscalls.yield", false},
      {2, "syscalls.subscribe", false},       {3, "syscalls.command", false},
      {4, "syscalls.rw_allow", false},        {5, "syscalls.ro_allow", false},
      {6, "syscalls.memop", false},           {7, "syscalls.exit", false},
      {8, "syscalls.blocking_command", false}, {9, "sched.context_switches", false},
      {10, "sched.mpu_reprograms", false},    {11, "irq.dispatches", false},
      {12, "deferred.calls_run", false},      {13, "upcalls.queued", false},
      {14, "upcalls.delivered", false},       {15, "upcalls.scrubbed", false},
      {16, "upcalls.dropped", false},         {17, "grants.allocs", false},
      {18, "grants.bytes", false},            {19, "sleep.cycles", false},
      {20, "sleep.entries", false},           {21, "process.faults", false},
      {22, "process.restarts", false},        {23, "process.exits", false},
      {24, "syscalls.unknown", false},        {25, "grants.frees", false},
      {26, "grants.bytes_freed", false},      {27, "sleep.arg_saturations", false},
      {28, "telemetry.events_emitted", true}, {29, "telemetry.events_dropped", true},
      {30, "telemetry.suppressed", true},     {31, "vm.blocks_built", true},
      {32, "vm.blocks_invalidated", true},    {33, "vm.block_chain_hits", true},
      {34, "vm.cache_bytes", true},           {35, "mem.resident_bytes", true},
      {36, "fleet.idle_skips", true},
  };
  ASSERT_GE(kStatCount, std::size(kPinnedStats));
  for (const PinnedStat& pinned : kPinnedStats) {
    StatId id = static_cast<StatId>(pinned.id);
    EXPECT_STREQ(StatName(id), pinned.name) << "id " << pinned.id;
    EXPECT_EQ(StatIsHostOnly(id), pinned.host) << pinned.name;
    if (!pinned.host) {
      EXPECT_EQ(driver.Command(pid, 5, pinned.id, 0).variant, ReturnVariant::kSuccess2U32)
          << pinned.name;
    }
  }

  // Command 6 (own ProcStats row): same idiom, separate table.
  constexpr uint32_t kFieldCount = static_cast<uint32_t>(ProcStatField::kNumFields);
  constexpr const char* kPinnedFields[] = {
      "user_cycles",      "service_cycles",   "syscalls",
      "upcalls",          "grant_high_water", "upcall_queue_max",
      "restarts",         "context_switches", "timeslice_expirations",
      "priority",         "queue_level",
  };
  ASSERT_GE(kFieldCount, std::size(kPinnedFields));
  for (uint32_t field = 0; field < std::size(kPinnedFields); ++field) {
    EXPECT_STREQ(ProcStatName(static_cast<ProcStatField>(field)), kPinnedFields[field])
        << "field " << field;
  }
  probe = driver.Command(pid, 6, kFieldCount, 0);
  ASSERT_EQ(probe.variant, ReturnVariant::kSuccessU32);
  EXPECT_EQ(probe.values[0], kFieldCount);
  for (uint32_t field = 0; field < kFieldCount; ++field) {
    SyscallReturn ret = driver.Command(pid, 6, field, 0);
    ASSERT_EQ(ret.variant, ReturnVariant::kSuccess2U32) << "field " << field;
  }
  // Sanity of the row itself: the app made syscalls, and has never restarted.
  SyscallReturn syscalls =
      driver.Command(pid, 6, static_cast<uint32_t>(ProcStatField::kSyscalls), 0);
  EXPECT_GE(syscalls.values[0], 1u);
  SyscallReturn restarts =
      driver.Command(pid, 6, static_cast<uint32_t>(ProcStatField::kRestarts), 0);
  EXPECT_EQ(restarts.values[0], 0u);
}

}  // namespace
}  // namespace tock
