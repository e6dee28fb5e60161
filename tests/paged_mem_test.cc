// Paged copy-on-write board memory (hw/paged_mem.h) and its integration with
// the kernel: paging must be invisible to the simulation — the results pinned
// here were recorded on eager (one flat vector per bank) boards — while the
// host-side resident footprint shrinks to the pages a board actually diverged.
// These tests pin the bank semantics (fill reads, page-line straddles,
// base-image sharing, range resets), the two kernel-visible consequences:
// decode-cache invalidation still flows through ProgramFlash on paged flash, and
// a process restart releases its reclaimed grant pages back to the shared
// backing; and the fleet-scale residency a shared flash image buys.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "board/fleet.h"
#include "board/sim_board.h"
#include "hw/memory_map.h"
#include "hw/paged_mem.h"
#include "libtock/libtock.h"

namespace tock {
namespace {

constexpr uint32_t kPage = PagedBank::kPageSize;

TEST(PagedBankTest, FillReadsAndPageStraddlingAccesses) {
  PagedBank bank(4 * kPage, 0xFF);
  EXPECT_EQ(bank.resident_bytes(), 0u);  // nothing written, nothing committed

  // Reads before any write resolve from the shared fill page — including a read
  // that straddles a page line.
  uint8_t buf[8];
  bank.Read(kPage - 4, buf, sizeof(buf));
  for (uint8_t b : buf) {
    EXPECT_EQ(b, 0xFF);
  }

  // A straddling write must land its bytes on both sides of the line and
  // materialize exactly the two touched pages.
  const uint8_t data[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  bank.Write(kPage - 4, data, sizeof(data));
  bank.Read(kPage - 4, buf, sizeof(buf));
  EXPECT_EQ(std::memcmp(buf, data, sizeof(data)), 0);
  EXPECT_EQ(bank.resident_bytes(), 2u * kPage);

  // Neighboring bytes on the materialized pages still read as fill.
  uint8_t b = 0;
  bank.Read(kPage - 5, &b, 1);
  EXPECT_EQ(b, 0xFF);
  bank.Read(kPage + 4, &b, 1);
  EXPECT_EQ(b, 0xFF);
}

TEST(PagedBankTest, ContiguousSpansRefusePageLineCrossings) {
  PagedBank bank(2 * kPage, 0x00);
  // Within one page: a real borrowed pointer. Across the line: refused, the
  // caller must bounce — this is the contract the kernel's zero-copy
  // translation fast path relies on.
  EXPECT_NE(bank.ContiguousWrite(kPage - 4, 4), nullptr);
  EXPECT_EQ(bank.ContiguousWrite(kPage - 2, 4), nullptr);
  EXPECT_EQ(bank.ContiguousRead(kPage - 2, 4), nullptr);
}

TEST(PagedBankTest, AdoptedBaseIsSharedUntilFirstWrite) {
  auto base = std::make_shared<std::vector<uint8_t>>(2 * kPage, uint8_t{0xAA});
  (*base)[10] = 0x5A;

  PagedBank writer(2 * kPage, 0xFF);
  PagedBank reader(2 * kPage, 0xFF);
  writer.AdoptBase(base);
  reader.AdoptBase(base);

  uint8_t v = 0;
  writer.Read(10, &v, 1);
  EXPECT_EQ(v, 0x5A);
  reader.Read(10, &v, 1);
  EXPECT_EQ(v, 0x5A);

  // First write diverges the writer's page — a private copy-on-write copy. The
  // reader and the base image itself must never see it.
  const uint8_t patch = 0x11;
  writer.Write(10, &patch, 1);
  writer.Read(10, &v, 1);
  EXPECT_EQ(v, 0x11);
  uint8_t still = 0;
  writer.Read(11, &still, 1);
  EXPECT_EQ(still, 0xAA);  // rest of the page came along in the copy
  reader.Read(10, &v, 1);
  EXPECT_EQ(v, 0x5A);
  EXPECT_EQ((*base)[10], 0x5A);
  EXPECT_EQ(writer.resident_bytes(), kPage);
  EXPECT_EQ(reader.resident_bytes(), 0u);
}

TEST(PagedBankTest, ResetRangeReleasesFullPagesAndRewritesPartials) {
  PagedBank bank(4 * kPage, 0x00);
  const uint8_t mark = 0x77;
  bank.Write(kPage + 5, &mark, 1);
  bank.Write(2 * kPage + 5, &mark, 1);
  EXPECT_EQ(bank.resident_bytes(), 2u * kPage);

  // A reset fully covering page 1 releases it back to the fill backing.
  bank.ResetRange(kPage, kPage);
  uint8_t v = 0xEE;
  bank.Read(kPage + 5, &v, 1);
  EXPECT_EQ(v, 0x00);
  EXPECT_EQ(bank.resident_bytes(), kPage);  // only page 2 remains private

  // A partial reset rewrites in place: the page stays private, untouched bytes
  // survive, the covered bytes return to backing.
  bank.Write(2 * kPage + 100, &mark, 1);
  bank.ResetRange(2 * kPage + 100, 1);
  bank.Read(2 * kPage + 100, &v, 1);
  EXPECT_EQ(v, 0x00);
  bank.Read(2 * kPage + 5, &v, 1);
  EXPECT_EQ(v, mark);
  EXPECT_EQ(bank.resident_bytes(), kPage);
}

// Worker whose loop head sits at entry+4, so a mid-run ProgramFlash can clobber
// an instruction the decode cache has already predecoded many times.
const char* kWorkerApp = R"(
_start:
    mv s0, a0
loop:
    lw t0, 0(s0)
    addi t0, t0, 1
    sw t0, 0(s0)
    li a0, 2000
    call sleep_ticks
    j loop
)";

// The parity claim behind every other test in this file: a paged board running
// the worker — including a mid-run flash reprogram — lands on exactly the
// outcome an eager board produced, while committing only the pages it diverged.
TEST(PagedParity, PagedBoardMatchesEagerAcrossMidRunFlashProgram) {
  BoardConfig config;
  config.allow_scheduler_env = false;  // pinned under round-robin in every policy leg
  SimBoard board(config);
  AppSpec worker;
  worker.name = "worker";
  worker.source = kWorkerApp;
  ASSERT_NE(board.installer().Install(worker), 0u) << board.installer().error();
  ASSERT_EQ(board.Boot(), 1);

  board.Run(100'000);  // warm the decode cache across the loop
  Process* p = board.kernel().process(0);
  ASSERT_NE(p, nullptr);

  // The OTA-shaped divergence: reprogram the loop head through the one modeled
  // flash-write path. This is the board's first flash write, so it must COW the
  // page AND still reach the kernel's decode-invalidation observer — a stale
  // predecode would keep executing the old loop forever.
  const uint8_t zeros[4] = {0, 0, 0, 0};
  ASSERT_TRUE(board.mcu().bus().ProgramFlash(p->entry_point + 4, zeros, 4));
  board.Run(500'000);
  EXPECT_EQ(p->state, ProcessState::kFaulted);
  EXPECT_EQ(p->fault_info.vm_fault.kind, VmFault::Kind::kIllegalInstruction);

  // Recorded on an eager board.
  EXPECT_EQ(board.mcu().CyclesNow(), 600'040u);
  EXPECT_EQ(board.kernel().instructions_retired(), 1'345u);
  EXPECT_LT(board.mcu().bus().resident_bytes(),
            (uint64_t{MemoryMap::kFlashSize} + MemoryMap::kRamSize) / 4);
}

// A process restart reclaims the grant region (the app-accessible RAM below
// grant_break persists, by contract) — under paging, reclaiming must actually
// RELEASE the fully covered private pages, returning host memory to the
// fleet-shared backing.
TEST(PagedParity, RestartReleasesReclaimedGrantPages) {
  BoardConfig config;
  // Default quota (12 KiB) barely fits the app; give the grant room to span
  // whole pages.
  config.kernel.process_ram_quota = 32 * 1024;
  SimBoard board(config);
  AppSpec app;
  app.name = "sleeper";
  app.source = "_start:\nloop:\n    li a0, 5000\n    call sleep_ticks\n    j loop\n";
  ASSERT_NE(board.installer().Install(app), 0u) << board.installer().error();
  ASSERT_EQ(board.Boot(), 1);
  board.Run(50'000);

  Process* p = board.kernel().process(0);
  ASSERT_NE(p, nullptr);
  ASSERT_TRUE(p->IsAlive());

  // Allocate a grant spanning pages and dirty every byte, so the top of the
  // process's RAM quota holds private copy-on-write pages.
  const uint64_t before = board.mcu().bus().resident_bytes();
  bool first_time = false;
  const uint32_t grant_len = 3 * kPage;
  uint32_t grant_addr = board.kernel().GrantEnterResolve(
      p->id, /*grant_id=*/7, grant_len, /*align=*/8, &first_time);
  ASSERT_NE(grant_addr, 0u);
  EXPECT_TRUE(first_time);
  board.kernel().WithRamBytes(grant_addr, grant_len, [&](uint8_t* mem) {
    std::memset(mem, 0xA5, grant_len);
  });
  const uint64_t allocated = board.mcu().bus().resident_bytes();
  EXPECT_GE(allocated, before + 2u * kPage);  // the grant overlaps >= 2 pages

  // Restart: the grant region above grant_break is dead memory (grant pointers
  // cleared, MPU blocks the app) and its full pages go back to the backing.
  // The 8 KiB region contains at least one fully covered 4 KiB page whatever
  // the quota's alignment.
  ASSERT_TRUE(board.kernel().RestartProcess(p->id, board.pm_cap()).ok());
  const uint64_t after = board.mcu().bus().resident_bytes();
  EXPECT_LE(after, allocated - kPage);

  // The revived process keeps running against the released-and-zeroed region.
  board.Run(100'000);
  EXPECT_TRUE(board.kernel().process(0)->IsAlive());
}

// Duty-cycled worker: a burst of arithmetic, a RAM-counter write (so every
// board dirties some pages), then a sleep several epochs long.
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

// The homogeneous-fleet deployment shape: 1,000 radio-less boards adopt ONE
// immutable flash image holding the duty app. The fleet must commit >=5x less
// host memory than an eager fleet would — boards x (flash + RAM), one flat
// allocation per bank — and the total must reconcile exactly against whole
// 4 KiB pages: every board holds the same, recorded page count. Stepped by 1 and
// by 4 host threads, the fleet ends with every board identical.
TEST(PagedFleet, ThousandBoardsShareOneFlashImage) {
  constexpr size_t kBoards = 1000;
  constexpr uint64_t kPagesPerBoard = 2;  // recorded after 150k cycles

  auto flash = std::make_shared<std::vector<uint8_t>>(MemoryMap::kFlashSize, uint8_t{0xFF});
  AppSpec duty;
  duty.name = "duty";
  duty.source = kDutyApp;
  std::string error;
  std::vector<uint8_t> image =
      BuildAppImage(duty, SimBoard::kAppFlashBase, SimBoard::kDeviceKey, &error);
  ASSERT_FALSE(image.empty()) << error;
  ASSERT_LE(SimBoard::kAppFlashBase + image.size(), SimBoard::kAppFlashEnd);
  std::copy(image.begin(), image.end(), flash->begin() + SimBoard::kAppFlashBase);
  const std::shared_ptr<const std::vector<uint8_t>> base = flash;
  const uint32_t next_addr = SimBoard::kAppFlashBase + static_cast<uint32_t>(image.size());

  struct Outcome {
    std::vector<std::string> prints;
    std::vector<uint64_t> resident;
  };
  auto run = [&](unsigned threads) {
    FleetConfig config;
    config.threads = threads;
    config.slice = 50'000;
    Fleet fleet(config);
    std::vector<std::unique_ptr<SimBoard>> boards;
    boards.reserve(kBoards);
    for (size_t i = 0; i < kBoards; ++i) {
      BoardConfig bc;
      bc.rng_seed = 0xB0A7 + static_cast<uint32_t>(i);
      bc.allow_scheduler_env = false;
      auto board = std::make_unique<SimBoard>(bc);
      board->mcu().bus().AdoptFlashBase(base);
      board->installer().set_next_addr(next_addr);
      EXPECT_EQ(board->Boot(), 1) << "board " << i;
      fleet.AddBoard(board.get());
      boards.push_back(std::move(board));
    }
    fleet.AlignClocks();
    fleet.Run(150'000);
    Outcome out;
    for (auto& board : boards) {
      std::string print = "cycles=" + std::to_string(board->mcu().CyclesNow()) +
                          " insns=" + std::to_string(board->kernel().instructions_retired()) +
                          "\n";
      board->kernel().trace().DumpStats(print);
      board->kernel().trace().DumpTrace(print);
      out.prints.push_back(std::move(print));
      out.resident.push_back(board->mcu().bus().resident_bytes());
    }
    return out;
  };
  const Outcome solo = run(1);
  const Outcome quad = run(4);

  uint64_t total = 0;
  for (size_t i = 0; i < kBoards; ++i) {
    EXPECT_EQ(solo.prints[i], quad.prints[i]) << "board " << i;
    EXPECT_EQ(solo.resident[i], quad.resident[i]) << "board " << i;
    EXPECT_EQ(quad.resident[i], kPagesPerBoard * kPage) << "board " << i;
    total += quad.resident[i];
  }
  const uint64_t eager = kBoards * (uint64_t{MemoryMap::kFlashSize} + MemoryMap::kRamSize);
  EXPECT_GE(eager, 5 * total);
}

}  // namespace
}  // namespace tock
