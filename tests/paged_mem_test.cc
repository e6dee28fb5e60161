// Paged copy-on-write board memory (hw/paged_mem.h) and its integration with
// the kernel: paging must be invisible to the simulation — the results pinned
// here were recorded on eager (one flat vector per bank) boards — while the
// host-side resident footprint shrinks to the pages a board actually diverged.
// These tests pin the bank semantics (fill reads, page-line straddles,
// base-image sharing, range resets) and the two kernel-visible consequences:
// decode-cache invalidation still flows through ProgramFlash on paged flash, and
// a process restart releases its reclaimed grant pages back to the shared
// backing.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

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

}  // namespace
}  // namespace tock
