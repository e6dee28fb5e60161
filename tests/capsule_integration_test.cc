// Capsule-level integration tests: every userspace driver exercised by real
// assembled applications, plus the multi-board radio path and the grant-based
// resource-isolation scenario of E5.
#include <gtest/gtest.h>

#include <cstring>

#include "board/fleet.h"
#include "board/sim_board.h"
#include "crypto/aes128.h"
#include "crypto/hmac_sha256.h"

namespace tock {
namespace {

uint32_t RamWord(SimBoard& board, Process& p, uint32_t off) {
  return *board.mcu().bus().Read(p.ram_start + off, 4, Privilege::kPrivileged);
}

TEST(CapsuleIntegration, LedsToggleFromUserspace) {
  SimBoard board;
  AppSpec app;
  app.name = "blink";
  app.source = R"(
_start:
    li s1, 6
loop:
    # led toggle(0): command(led=2, 3, 0, 0)
    li a0, 2
    li a1, 3
    li a2, 0
    li a3, 0
    li a4, 2
    ecall
    # sleep 1000 ticks
    li a0, 1000
    call sleep_ticks
    addi s1, s1, -1
    bnez s1, loop
    li a0, 0
    call tock_exit_terminate
)";
  ASSERT_NE(board.installer().Install(app), 0u) << board.installer().error();
  ASSERT_EQ(board.Boot(), 1);
  board.Run(50'000'000);
  EXPECT_EQ(board.kernel().process(0)->state, ProcessState::kTerminated);
  EXPECT_EQ(board.gpio_hw().output_toggles(SimBoard::kLed0), 6u);
}

TEST(CapsuleIntegration, TempSensorSyncReadReturnsPlausibleValue) {
  SimBoard board;
  board.temp_hw().SetAmbient(-500);  // -5 °C, exercises signed plumbing
  AppSpec app;
  app.name = "temp";
  app.source = R"(
_start:
    mv s0, a0
    call temp_read_sync
    sw a0, 0(s0)
    li a0, 0
    call tock_exit_terminate
)";
  ASSERT_NE(board.installer().Install(app), 0u);
  ASSERT_EQ(board.Boot(), 1);
  board.Run(10'000'000);
  Process& p = *board.kernel().process(0);
  ASSERT_EQ(p.state, ProcessState::kTerminated);
  EXPECT_NEAR(static_cast<int32_t>(RamWord(board, p, 0)), -500, 30);
}

TEST(CapsuleIntegration, RngFillsUserBuffer) {
  SimBoard board;
  AppSpec app;
  app.name = "rng";
  app.source = R"(
_start:
    mv s0, a0
    # clear destination
    sw zero, 64(s0)
    sw zero, 68(s0)
    # allow_rw(rng=0x40001, 0, ram+64, 8)
    li a0, 0x40001
    li a1, 0
    addi a2, s0, 64
    li a3, 8
    li a4, 3
    ecall
    # command(rng, 1, 8 bytes, 0)
    li a0, 0x40001
    li a1, 1
    li a2, 8
    li a3, 0
    li a4, 2
    ecall
    # yield-wait-for(rng, 0) -> a1 = bytes delivered
    li a0, 2
    li a1, 0x40001
    li a2, 0
    li a4, 0
    ecall
    sw a1, 0(s0)
    li a0, 0
    call tock_exit_terminate
)";
  ASSERT_NE(board.installer().Install(app), 0u);
  ASSERT_EQ(board.Boot(), 1);
  board.Run(10'000'000);
  Process& p = *board.kernel().process(0);
  ASSERT_EQ(p.state, ProcessState::kTerminated);
  EXPECT_EQ(RamWord(board, p, 0), 8u);  // delivered count
  // Destination no longer zero (xorshift with a non-zero seed can't emit 8 zero
  // bytes in a row).
  EXPECT_TRUE(RamWord(board, p, 64) != 0 || RamWord(board, p, 68) != 0);
}

TEST(CapsuleIntegration, HmacDriverMatchesHostComputation) {
  SimBoard board;
  AppSpec app;
  app.name = "hmac";
  app.source = R"(
_start:
    mv s0, a0
    # allow_ro(hmac=0x40003, 0 = key in flash, 32)
    li a0, 0x40003
    li a1, 0
    la a2, key
    li a3, 32
    li a4, 4
    ecall
    # allow_ro(hmac, 1 = data in flash, 11)
    li a0, 0x40003
    li a1, 1
    la a2, data
    li a3, 11
    li a4, 4
    ecall
    # allow_rw(hmac, 2 = digest out, ram+64, 32)
    li a0, 0x40003
    li a1, 2
    addi a2, s0, 64
    li a3, 32
    li a4, 3
    ecall
    # command(hmac, 1 = run, len=11, 0)
    li a0, 0x40003
    li a1, 1
    li a2, 11
    li a3, 0
    li a4, 2
    ecall
    sw a0, 0(s0)
    # yield-wait-for(hmac, 0) -> a1 = digest bytes written
    li a0, 2
    li a1, 0x40003
    li a2, 0
    li a4, 0
    ecall
    sw a1, 4(s0)
    li a0, 0
    call tock_exit_terminate
key:
    .byte 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15
    .byte 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31
data:
    .asciz "hello tock"
)";
  ASSERT_NE(board.installer().Install(app), 0u) << board.installer().error();
  ASSERT_EQ(board.Boot(), 1);
  board.Run(20'000'000);
  Process& p = *board.kernel().process(0);
  ASSERT_EQ(p.state, ProcessState::kTerminated);
  EXPECT_EQ(RamWord(board, p, 4), 32u);

  uint8_t key[32];
  for (int i = 0; i < 32; ++i) {
    key[i] = static_cast<uint8_t>(i);
  }
  auto expected = HmacSha256::Compute(key, 32, reinterpret_cast<const uint8_t*>("hello tock"),
                                      11);
  uint8_t actual[32];
  board.mcu().bus().ReadBlock(p.ram_start + 64, actual, 32);
  EXPECT_EQ(std::memcmp(actual, expected.data(), 32), 0);
}

TEST(CapsuleIntegration, AesCtrRoundTripsThroughDriver) {
  SimBoard board;
  AppSpec app;
  app.name = "aes";
  app.source = R"(
_start:
    mv s0, a0
    # plaintext at ram+64: 16 bytes of 0x41 ('A')
    li t0, 0
    li t1, 16
fill:
    addi t2, s0, 64
    add t2, t2, t0
    li t3, 0x41
    sb t3, 0(t2)
    addi t0, t0, 1
    blt t0, t1, fill
    # allow_ro(aes=0x40006, 0 = key, flash, 16)
    li a0, 0x40006
    li a1, 0
    la a2, key
    li a3, 16
    li a4, 4
    ecall
    # allow_ro(aes, 1 = iv, flash, 16)
    li a0, 0x40006
    li a1, 1
    la a2, iv
    li a3, 16
    li a4, 4
    ecall
    # allow_rw(aes, 2 = data, ram+64, 16)
    li a0, 0x40006
    li a1, 2
    addi a2, s0, 64
    li a3, 16
    li a4, 3
    ecall
    # command(aes, 1 = ctr-crypt, 16, 0); wait
    li a0, 0x40006
    li a1, 1
    li a2, 16
    li a3, 0
    li a4, 2
    ecall
    li a0, 2
    li a1, 0x40006
    li a2, 0
    li a4, 0
    ecall
    li a0, 0
    call tock_exit_terminate
key:
    .byte 0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6
    .byte 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c
iv:
    .byte 0xf0, 0xf1, 0xf2, 0xf3, 0xf4, 0xf5, 0xf6, 0xf7
    .byte 0xf8, 0xf9, 0xfa, 0xfb, 0xfc, 0xfd, 0xfe, 0xff
)";
  ASSERT_NE(board.installer().Install(app), 0u) << board.installer().error();
  ASSERT_EQ(board.Boot(), 1);
  board.Run(20'000'000);
  Process& p = *board.kernel().process(0);
  ASSERT_EQ(p.state, ProcessState::kTerminated);

  uint8_t key[16] = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
                     0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};
  uint8_t counter[16] = {0xf0, 0xf1, 0xf2, 0xf3, 0xf4, 0xf5, 0xf6, 0xf7,
                         0xf8, 0xf9, 0xfa, 0xfb, 0xfc, 0xfd, 0xfe, 0xff};
  uint8_t expected[16];
  std::memset(expected, 0x41, sizeof(expected));
  Aes128 aes(key);
  aes.CtrCrypt(counter, expected, sizeof(expected));

  uint8_t actual[16];
  board.mcu().bus().ReadBlock(p.ram_start + 64, actual, 16);
  EXPECT_EQ(std::memcmp(actual, expected, 16), 0);
}

TEST(CapsuleIntegration, ButtonPressDeliversUpcall) {
  SimBoard board;
  AppSpec app;
  app.name = "button";
  app.source = R"(
_start:
    mv s0, a0
    # subscribe(button=3, 0, handler, 0)
    li a0, 3
    li a1, 0
    la a2, handler
    li a3, 0
    li a4, 1
    ecall
    # enable events for button 0: command(3, 1, 0, 0)
    li a0, 3
    li a1, 1
    li a2, 0
    li a3, 0
    li a4, 2
    ecall
    # yield-wait
    li a0, 1
    li a4, 0
    ecall
    li a0, 0
    call tock_exit_terminate
handler:
    sw a0, 0(s0)    # button index
    sw a1, 4(s0)    # level (1 = pressed)
    li t0, 1
    sw t0, 8(s0)
    jr ra
)";
  ASSERT_NE(board.installer().Install(app), 0u);
  ASSERT_EQ(board.Boot(), 1);
  board.Run(100'000);  // app subscribes and parks in yield

  board.gpio_hw().SetInput(SimBoard::kButton0, true);  // press
  board.Run(5'000'000);
  Process& p = *board.kernel().process(0);
  EXPECT_EQ(p.state, ProcessState::kTerminated);
  EXPECT_EQ(RamWord(board, p, 0), 0u);
  EXPECT_EQ(RamWord(board, p, 4), 1u);
  EXPECT_EQ(RamWord(board, p, 8), 1u);
}

TEST(CapsuleIntegration, ConsoleReadReceivesInjectedBytes) {
  SimBoard board;
  AppSpec app;
  app.name = "reader";
  app.source = R"(
_start:
    mv s0, a0
    # allow_rw(console=1, 1 = read buffer, ram+64, 4)
    li a0, 1
    li a1, 1
    addi a2, s0, 64
    li a3, 4
    li a4, 3
    ecall
    # command(console, 2 = read, 4, 0)
    li a0, 1
    li a1, 2
    li a2, 4
    li a3, 0
    li a4, 2
    ecall
    sw a0, 8(s0)
    # yield-wait-for(console, sub 2) -> a1 = bytes
    li a0, 2
    li a1, 1
    li a2, 2
    li a4, 0
    ecall
    sw a1, 0(s0)
    li a0, 0
    call tock_exit_terminate
)";
  ASSERT_NE(board.installer().Install(app), 0u);
  ASSERT_EQ(board.Boot(), 1);
  board.Run(100'000);  // allow + start read, park in yield
  board.uart_hw().InjectRx("ping");
  board.Run(20'000'000);
  Process& p = *board.kernel().process(0);
  ASSERT_EQ(p.state, ProcessState::kTerminated);
  EXPECT_EQ(RamWord(board, p, 0), 4u);
  uint8_t data[4];
  board.mcu().bus().ReadBlock(p.ram_start + 64, data, 4);
  EXPECT_EQ(std::memcmp(data, "ping", 4), 0);
}

TEST(CapsuleIntegration, ProcessInfoRestartFromUserspace) {
  // Exercises the capability-gated privileged path (§4.4): the ProcessInfo capsule
  // restarts the *calling* process using its minted token.
  SimBoard board;
  AppSpec app;
  app.name = "phoenix";
  app.source = R"(
_start:
    mv s0, a0
    lw t0, 0(s0)
    bnez t0, after_restart
    li t0, 1
    sw t0, 0(s0)
    # command(procinfo=0xA0001, 4 = restart self, 0, 0)
    li a0, 0xA0001
    li a1, 4
    li a2, 0
    li a3, 0
    li a4, 2
    ecall
    # unreachable
    li a0, 0
    call tock_exit_terminate
after_restart:
    li a0, 0
    li a1, 55
    li a4, 6
    ecall
)";
  ASSERT_NE(board.installer().Install(app), 0u);
  ASSERT_EQ(board.Boot(), 1);
  board.Run(10'000'000);
  Process& p = *board.kernel().process(0);
  EXPECT_EQ(p.state, ProcessState::kTerminated);
  EXPECT_EQ(p.completion_code, 55u);
  EXPECT_EQ(p.restart_count, 1u);
}

TEST(CapsuleIntegration, RadioPingBetweenTwoBoards) {
  // The Signpost scenario (§2): two boards on a shared medium; node 1 transmits a
  // packet to node 2, whose app forwards it to its console.
  Fleet fleet;
  BoardConfig config_tx;
  config_tx.radio_addr = 1;
  config_tx.medium = &fleet.medium();
  BoardConfig config_rx;
  config_rx.radio_addr = 2;
  config_rx.medium = &fleet.medium();
  SimBoard tx_board(config_tx);
  SimBoard rx_board(config_rx);
  fleet.AddBoard(&tx_board);
  fleet.AddBoard(&rx_board);

  AppSpec sender;
  sender.name = "sender";
  sender.source = R"(
_start:
    # allow_ro(radio=0x30001, 0 = payload, flash, 5)
    li a0, 0x30001
    li a1, 0
    la a2, msg
    li a3, 5
    li a4, 4
    ecall
    # give the receiver time to arm: sleep 20000
    li a0, 20000
    call sleep_ticks
    # command(radio, 1 = tx, dst=2, len=5)
    li a0, 0x30001
    li a1, 1
    li a2, 2
    li a3, 5
    li a4, 2
    ecall
    # yield-wait-for(radio, 0 = tx done)
    li a0, 2
    li a1, 0x30001
    li a2, 0
    li a4, 0
    ecall
    li a0, 0
    call tock_exit_terminate
msg:
    .asciz "PING!"
)";
  AppSpec receiver;
  receiver.name = "receiver";
  receiver.source = R"(
_start:
    mv s0, a0
    # allow_rw(radio, 1 = rx sink, ram+64, 16)
    li a0, 0x30001
    li a1, 1
    addi a2, s0, 64
    li a3, 16
    li a4, 3
    ecall
    # command(radio, 2 = listen)
    li a0, 0x30001
    li a1, 2
    li a2, 0
    li a3, 0
    li a4, 2
    ecall
    # yield-wait-for(radio, 1 = packet) -> a1 = len
    li a0, 2
    li a1, 0x30001
    li a2, 1
    li a4, 0
    ecall
    sw a1, 0(s0)
    # print the received bytes
    addi a0, s0, 64
    li a1, 5
    call console_print
    li a0, 0
    call tock_exit_terminate
)";
  ASSERT_NE(tx_board.installer().Install(sender), 0u) << tx_board.installer().error();
  ASSERT_NE(rx_board.installer().Install(receiver), 0u) << rx_board.installer().error();
  ASSERT_EQ(tx_board.Boot(), 1);
  ASSERT_EQ(rx_board.Boot(), 1);

  fleet.Run(50'000'000);
  Process& rx_proc = *rx_board.kernel().process(0);
  EXPECT_EQ(rx_proc.state, ProcessState::kTerminated);
  EXPECT_EQ(RamWord(rx_board, rx_proc, 0), 5u);
  EXPECT_NE(rx_board.uart_hw().output().find("PING!"), std::string::npos)
      << "rx uart: '" << rx_board.uart_hw().output() << "'";
}

TEST(CapsuleIntegration, GrantHogCannotStarveNeighbor) {
  // E5's scenario in miniature: a process burns through its own grant-backed
  // resources (console writes with a huge claimed length each round); the neighbor
  // keeps printing happily. With a shared kernel heap the hog's allocations would
  // have been everyone's problem.
  SimBoard board;
  AppSpec hog;
  hog.name = "hog";
  hog.source = R"(
_start:
    mv s0, a0
    # grow our break until it fails, consuming our own quota
grow:
    li a0, 1
    li a1, 256
    li a4, 5
    ecall            # sbrk(+256)
    li t0, 129
    beq a0, t0, grow # variant 129 = success, keep growing
    # quota exhausted; now loop forever politely
spin:
    li a0, 1000
    call sleep_ticks
    j spin
)";
  AppSpec victim;
  victim.name = "victim";
  victim.source = R"(
_start:
    li s1, 3
loop:
    la a0, msg
    li a1, 2
    call console_print
    addi s1, s1, -1
    bnez s1, loop
    li a0, 0
    call tock_exit_terminate
msg:
    .asciz "v\n"
)";
  ASSERT_NE(board.installer().Install(hog), 0u);
  ASSERT_NE(board.installer().Install(victim), 0u);
  ASSERT_EQ(board.Boot(), 2);
  board.Run(50'000'000);

  Process& hog_proc = *board.kernel().process(0);
  Process& victim_proc = *board.kernel().process(1);
  // The hog consumed (nearly) its whole quota...
  EXPECT_GE(hog_proc.app_break, hog_proc.ram_start + hog_proc.ram_size - 512);
  // ...and the victim was completely unaffected.
  EXPECT_EQ(victim_proc.state, ProcessState::kTerminated);
  const std::string& out = board.uart_hw().output();
  EXPECT_EQ(std::count(out.begin(), out.end(), 'v'), 3);
}

}  // namespace
}  // namespace tock
