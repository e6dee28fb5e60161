// Integration tests: full boards booting real (assembled RV32) applications and
// exercising the kernel, capsules, chips and simulated hardware end to end.
#include <gtest/gtest.h>

#include <string>

#include "board/sim_board.h"

namespace tock {
namespace {

TEST(Integration, HelloWorldPrintsOverConsole) {
  SimBoard board;

  AppSpec app;
  app.name = "hello";
  app.source = R"(
_start:
    la a0, msg
    li a1, 13
    call console_print
    li a0, 0
    call tock_exit_terminate
msg:
    .asciz "Hello, Tock!\n"
)";
  ASSERT_NE(board.installer().Install(app), 0u) << board.installer().error();
  ASSERT_EQ(board.Boot(), 1);
  board.Run(10'000'000);

  EXPECT_NE(board.uart_hw().output().find("Hello, Tock!"), std::string::npos)
      << "uart output was: '" << board.uart_hw().output() << "'";
  Process* p = board.kernel().process(0);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->state, ProcessState::kTerminated);
}

TEST(Integration, TwoProcessesInterleaveOutput) {
  SimBoard board;

  auto printer = [](const std::string& text, int reps) {
    std::string source = "_start:\n    li s1, " + std::to_string(reps) +
                         "\nloop:\n"
                         "    la a0, msg\n"
                         "    li a1, " +
                         std::to_string(text.size()) +
                         "\n"
                         "    call console_print\n"
                         "    addi s1, s1, -1\n"
                         "    bnez s1, loop\n"
                         "    li a0, 0\n"
                         "    call tock_exit_terminate\n"
                         "msg:\n"
                         "    .asciz \"" +
                         text + "\"\n";
    return source;
  };

  AppSpec a;
  a.name = "alpha";
  a.source = printer("A", 5);
  AppSpec b;
  b.name = "beta";
  b.source = printer("B", 5);
  ASSERT_NE(board.installer().Install(a), 0u) << board.installer().error();
  ASSERT_NE(board.installer().Install(b), 0u) << board.installer().error();
  ASSERT_EQ(board.Boot(), 2);
  board.Run(50'000'000);

  const std::string& out = board.uart_hw().output();
  EXPECT_EQ(std::count(out.begin(), out.end(), 'A'), 5);
  EXPECT_EQ(std::count(out.begin(), out.end(), 'B'), 5);
  // Both processes multiprogram the console: output interleaves rather than one
  // finishing entirely before the other starts.
  EXPECT_NE(out.find("AB"), std::string::npos);
}

// The host hot-path workload: a compute-bound app (tight ALU/branch loop,
// preempted by SysTick) beside a syscall-heavy one (command + yield-wait-for
// against the async temperature driver, so every iteration crosses the syscall
// boundary twice, delivers one upcall and re-arms the virtual alarm). The
// counts were recorded identical on all four interpreter engines this code
// base has had — per-instruction fetch/decode, per-instruction over the decode
// cache, threaded batches, and threaded batches with superblocks — so any
// engine change that moves the simulation by one instruction fails here.
TEST(Integration, HotPathWorkloadMatchesPinnedEngineCounts) {
  BoardConfig config;
  config.allow_scheduler_env = false;  // pinned under round-robin in every policy leg
  SimBoard board(config);
  AppSpec compute;
  compute.name = "compute";
  compute.include_runtime = false;
  compute.source = R"(
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
  AppSpec syscalls;
  syscalls.name = "syscalls";
  syscalls.include_runtime = false;
  syscalls.source = R"(
_start:
loop:
    # command(temp, 1 = sample)
    li a0, 0x60000
    li a1, 1
    li a2, 0
    li a3, 0
    li a4, 2
    ecall
    # yield-wait-for(temp, completion sub 0)
    li a0, 2
    li a1, 0x60000
    li a2, 0
    li a4, 0
    ecall
    mv s2, a1
    j loop
)";
  ASSERT_NE(board.installer().Install(compute), 0u) << board.installer().error();
  ASSERT_NE(board.installer().Install(syscalls), 0u) << board.installer().error();
  ASSERT_EQ(board.Boot(), 2);
  board.Run(30'000'000);

  uint64_t syscall_count = 0;
  uint64_t upcalls = 0;
  for (size_t i = 0; i < 2; ++i) {
    syscall_count += board.kernel().process(i)->syscall_count;
    upcalls += board.kernel().process(i)->upcalls_delivered;
  }
  EXPECT_EQ(board.kernel().instructions_retired(), 27'860'458u);
  EXPECT_EQ(syscall_count, 11'596u);
  EXPECT_EQ(upcalls, 5'797u);
  EXPECT_EQ(board.mcu().CyclesNow(), 30'000'040u);
  if (KernelTrace::kEnabled) {
    EXPECT_EQ(board.kernel().stats().SyscallsTotal(), syscall_count);
    EXPECT_EQ(board.kernel().stats().upcalls_delivered, upcalls);
  }
}

}  // namespace
}  // namespace tock
