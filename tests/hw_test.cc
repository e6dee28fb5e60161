// Hardware-substrate tests: clock, bus, MPU, and every peripheral model.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "crypto/aes128.h"
#include "crypto/sha256.h"
#include "hw/costs.h"
#include "hw/crypto_accel.h"
#include "hw/flash_ctrl.h"
#include "hw/gpio.h"
#include "hw/mcu.h"
#include "hw/memory_map.h"
#include "hw/radio.h"
#include "hw/rng.h"
#include "hw/spi.h"
#include "hw/temp_sensor.h"
#include "hw/timer.h"
#include "hw/uart.h"
#include "kernel/fault_injector.h"

namespace tock {
namespace {

// ---- SimClock ------------------------------------------------------------------------

// A test event source: one compare channel whose handler runs `fn`.
struct Source {
  Source(SimClock* clock, std::function<void()> fn) : fn(std::move(fn)) {
    channel.Open<&Source::Fire>(clock, this);
  }
  void Fire() { fn(); }

  std::function<void()> fn;
  SimClock::Channel channel;
};

TEST(SimClock, EventsFireInDeadlineOrder) {
  SimClock clock;
  std::vector<int> order;
  Source a(&clock, [&] { order.push_back(1); });
  Source b(&clock, [&] { order.push_back(2); });
  Source c(&clock, [&] { order.push_back(3); });
  a.channel.ArmAt(100);
  b.channel.ArmAt(50);
  c.channel.ArmAt(75);
  clock.Advance(200);
  EXPECT_EQ(order, (std::vector<int>{2, 3, 1}));
  EXPECT_EQ(clock.Now(), 200u);
}

TEST(SimClock, SameCycleEventsFireFifo) {
  SimClock clock;
  std::vector<int> order;
  Source a(&clock, [&] { order.push_back(1); });
  Source b(&clock, [&] { order.push_back(2); });
  a.channel.ArmAt(10);
  b.channel.ArmAt(10);
  clock.Advance(10);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(SimClock, SameCycleTiesFollowArmOrderNotTableOrder) {
  // After a firing the next channel is found by scanning the table: a tie on
  // the deadline still goes to the earlier arm, not to the lower table slot.
  SimClock clock;
  std::vector<int> order;
  Source x(&clock, [&] { order.push_back(1); });  // table slot 0
  Source y(&clock, [&] { order.push_back(2); });  // table slot 1
  Source z(&clock, [&] { order.push_back(3); });
  y.channel.ArmAt(10);
  x.channel.ArmAt(10);
  z.channel.ArmAt(5);
  clock.Advance(20);
  EXPECT_EQ(order, (std::vector<int>{3, 2, 1}));
}

TEST(SimClock, EventsObserveTheirOwnDeadlineAsNow) {
  SimClock clock;
  uint64_t seen = 0;
  Source a(&clock, [&] { seen = clock.Now(); });
  a.channel.ArmAt(42);
  clock.Advance(100);
  EXPECT_EQ(seen, 42u);
}

TEST(SimClock, EventsScheduledDuringAdvanceFireInWindow) {
  SimClock clock;
  bool nested = false;
  Source inner(&clock, [&] { nested = true; });
  Source outer(&clock, [&] { inner.channel.ArmAfter(5); });
  outer.channel.ArmAt(10);
  clock.Advance(20);
  EXPECT_TRUE(nested);
}

TEST(SimClock, CancelPreventsFiring) {
  SimClock clock;
  bool fired = false;
  Source a(&clock, [&] { fired = true; });
  a.channel.ArmAt(10);
  EXPECT_TRUE(a.channel.armed());
  a.channel.Disarm();
  EXPECT_FALSE(a.channel.armed());
  clock.Advance(20);
  EXPECT_FALSE(fired);
  EXPECT_FALSE(clock.HasPendingEvents());
}

TEST(SimClock, NextEventSkipsCancelled) {
  SimClock clock;
  Source early(&clock, [] {});
  Source late(&clock, [] {});
  early.channel.ArmAt(10);
  late.channel.ArmAt(20);
  EXPECT_EQ(clock.NextEventAt(), 10u);
  early.channel.Disarm();
  EXPECT_EQ(clock.NextEventAt(), 20u);

  // The SysTick re-arm pattern: the earliest channel is disarmed and re-armed
  // later, again and again. Every SysTick arm is disarmed while still live, so
  // its -1 tag must never fire.
  SimClock systick_clock;
  std::vector<int> fired;
  Source systick(&systick_clock, [&] { fired.push_back(-1); });
  Source one(&systick_clock, [&] { fired.push_back(1); });
  Source two(&systick_clock, [&] { fired.push_back(2); });
  Source three(&systick_clock, [&] { fired.push_back(3); });
  auto disarm = [&] {
    EXPECT_TRUE(systick.channel.armed());
    systick.channel.Disarm();
  };
  systick.channel.ArmAt(10);
  one.channel.ArmAt(30);
  EXPECT_EQ(systick_clock.NextEventAt(), 10u);
  disarm();
  systick.channel.ArmAt(20);
  EXPECT_EQ(systick_clock.NextEventAt(), 20u);
  disarm();
  systick.channel.ArmAt(30);  // same deadline as the live event, behind it
  EXPECT_EQ(systick_clock.NextEventAt(), 30u);
  disarm();
  systick.channel.ArmAt(40);
  EXPECT_EQ(systick_clock.NextEventAt(), 30u);
  systick_clock.Advance(35);
  EXPECT_EQ(fired, (std::vector<int>{1}));
  EXPECT_EQ(systick_clock.NextEventAt(), 40u);

  // Several re-arms between two reads, the last one armed ahead of live
  // events with its own deadline.
  disarm();
  systick.channel.ArmAt(45);
  disarm();
  systick.channel.ArmAt(50);
  two.channel.ArmAt(50);
  disarm();
  three.channel.ArmAt(50);
  EXPECT_EQ(systick_clock.NextEventAt(), 50u);
  systick_clock.Advance(100);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(systick_clock.NextEventAt(), UINT64_MAX);
  EXPECT_FALSE(systick_clock.HasPendingEvents());
}

TEST(SimClock, PastDeadlinesClampToNow) {
  SimClock clock;
  clock.Advance(100);
  bool fired = false;
  Source a(&clock, [&] { fired = true; });
  a.channel.ArmAt(50);
  clock.Advance(1);
  EXPECT_TRUE(fired);
}

TEST(SimClock, RearmToEarlierDeadlineFiresOnceThere) {
  SimClock clock;
  std::vector<uint64_t> fired_at;
  Source a(&clock, [&] { fired_at.push_back(clock.Now()); });
  a.channel.ArmAt(100);
  a.channel.ArmAt(40);
  EXPECT_EQ(clock.NextEventAt(), 40u);
  clock.Advance(200);
  EXPECT_EQ(fired_at, (std::vector<uint64_t>{40}));
  EXPECT_FALSE(clock.HasPendingEvents());
}

TEST(SimClock, DestroyedSourceLeavesTheTable) {
  Mcu mcu;
  mcu.irq().Enable(10);
  {
    SysTick systick(&mcu.clock(), InterruptLine(&mcu.irq(), 10));
    systick.ArmCycles(100);
    EXPECT_EQ(mcu.clock().NextEventAt(), 100u);
  }
  mcu.Tick(200);
  EXPECT_FALSE(mcu.irq().IsPending(10));
  EXPECT_EQ(mcu.clock().NextEventAt(), UINT64_MAX);
  EXPECT_FALSE(mcu.clock().HasPendingEvents());
}

// ---- MPU -----------------------------------------------------------------------------

TEST(Mpu, DeniesByDefault) {
  Mpu mpu;
  EXPECT_FALSE(mpu.CheckAccess(0x20000000, 4, AccessType::kRead));
}

TEST(Mpu, RegionGrantsConfiguredPermissions) {
  Mpu mpu;
  mpu.ConfigureRegion(0, {0x20000000, 0x1000, true, true, false, true});
  EXPECT_TRUE(mpu.CheckAccess(0x20000000, 4, AccessType::kRead));
  EXPECT_TRUE(mpu.CheckAccess(0x20000FFC, 4, AccessType::kWrite));
  EXPECT_FALSE(mpu.CheckAccess(0x20000000, 4, AccessType::kExecute));
}

TEST(Mpu, AccessMustFitEntirelyInRegion) {
  Mpu mpu;
  mpu.ConfigureRegion(0, {0x1000, 0x10, true, false, false, true});
  EXPECT_TRUE(mpu.CheckAccess(0x100C, 4, AccessType::kRead));
  EXPECT_FALSE(mpu.CheckAccess(0x100E, 4, AccessType::kRead));  // straddles the end
  EXPECT_FALSE(mpu.CheckAccess(0xFFE, 4, AccessType::kRead));   // straddles the start
}

TEST(Mpu, DisabledRegionDoesNotMatch) {
  Mpu mpu;
  mpu.ConfigureRegion(0, {0x1000, 0x10, true, true, true, true});
  mpu.DisableRegion(0);
  EXPECT_FALSE(mpu.CheckAccess(0x1000, 4, AccessType::kRead));
}

TEST(Mpu, ConfigWritesAreCounted) {
  Mpu mpu;
  uint64_t before = mpu.config_writes();
  mpu.ConfigureRegion(0, {});
  mpu.ConfigureRegion(1, {});
  EXPECT_EQ(mpu.config_writes(), before + 2);
}

// ---- MemoryBus -----------------------------------------------------------------------

class BusTest : public ::testing::Test {
 protected:
  Mcu mcu_;
};

TEST_F(BusTest, RamRoundTripLittleEndian) {
  MemoryBus& bus = mcu_.bus();
  EXPECT_TRUE(bus.Write(MemoryMap::kRamBase, 0xA1B2C3D4, 4, Privilege::kPrivileged));
  EXPECT_EQ(*bus.Read(MemoryMap::kRamBase, 4, Privilege::kPrivileged), 0xA1B2C3D4u);
  EXPECT_EQ(*bus.Read(MemoryMap::kRamBase, 1, Privilege::kPrivileged), 0xD4u);
  EXPECT_EQ(*bus.Read(MemoryMap::kRamBase + 3, 1, Privilege::kPrivileged), 0xA1u);
}

TEST_F(BusTest, DirectFlashWriteFaults) {
  MemoryBus& bus = mcu_.bus();
  EXPECT_FALSE(bus.Write(0x100, 1, 4, Privilege::kPrivileged));
  EXPECT_EQ(bus.last_fault().kind, BusFaultKind::kFlashWrite);
  // ...but the flash-controller backdoor works.
  uint8_t data[4] = {1, 2, 3, 4};
  EXPECT_TRUE(bus.ProgramFlash(0x100, data, 4));
  EXPECT_EQ(*bus.Read(0x100, 4, Privilege::kPrivileged), 0x04030201u);
}

TEST_F(BusTest, UnmappedAddressFaults) {
  EXPECT_FALSE(mcu_.bus().Read(0x90000000, 4, Privilege::kPrivileged).has_value());
  EXPECT_EQ(mcu_.bus().last_fault().kind, BusFaultKind::kUnmapped);
}

TEST_F(BusTest, UnprivilegedAccessGoesThroughMpu) {
  MemoryBus& bus = mcu_.bus();
  EXPECT_FALSE(bus.Read(MemoryMap::kRamBase, 4, Privilege::kUnprivileged).has_value());
  EXPECT_EQ(bus.last_fault().kind, BusFaultKind::kMpuViolation);
  mcu_.mpu().ConfigureRegion(0, {MemoryMap::kRamBase, 0x100, true, false, false, true});
  EXPECT_TRUE(bus.Read(MemoryMap::kRamBase, 4, Privilege::kUnprivileged).has_value());
  EXPECT_FALSE(bus.Write(MemoryMap::kRamBase, 0, 4, Privilege::kUnprivileged));
}

TEST_F(BusTest, MmioRequiresAlignedWordAccess) {
  Gpio gpio{InterruptLine(&mcu_.irq(), 2)};
  mcu_.bus().AttachDevice(MemoryMap::kGpio, &gpio);
  uint32_t base = MemoryMap::SlotBase(MemoryMap::kGpio);
  EXPECT_TRUE(mcu_.bus().Write(base, 0xF, 4, Privilege::kPrivileged));
  EXPECT_FALSE(mcu_.bus().Write(base + 2, 0xF, 4, Privilege::kPrivileged));
  EXPECT_EQ(mcu_.bus().last_fault().kind, BusFaultKind::kUnalignedMmio);
  EXPECT_FALSE(mcu_.bus().Read(base, 2, Privilege::kPrivileged).has_value());
}

// ---- Mcu energy accounting --------------------------------------------------------------

TEST(Mcu, SleepSkipsToNextEventAndBooksSleepCycles) {
  Mcu mcu;
  mcu.irq().Enable(0);
  Source wake(&mcu.clock(), [&] { mcu.irq().Raise(0); });
  wake.channel.ArmAt(10'000);
  uint64_t slept = mcu.SleepUntilInterrupt();
  EXPECT_EQ(slept, 10'000u);
  EXPECT_EQ(mcu.sleep_cycles(), 10'000u);
  EXPECT_TRUE(mcu.irq().AnyPending());
  EXPECT_GT(mcu.SleepFraction(), 0.99);
}

TEST(Mcu, SleepWithNoFutureEventWedges) {
  Mcu mcu;
  EXPECT_EQ(mcu.SleepUntilInterrupt(), 0u);
  EXPECT_TRUE(mcu.wedged());
}

TEST(Mcu, ActiveCyclesCostMoreEnergyThanSleep) {
  Mcu active;
  active.Tick(1000);
  Mcu sleepy;
  sleepy.irq().Enable(0);
  Source wake(&sleepy.clock(), [&] { sleepy.irq().Raise(0); });
  wake.channel.ArmAt(1000);
  sleepy.SleepUntilInterrupt();
  EXPECT_GT(active.Energy(), 50 * (sleepy.Energy() - 10.0));  // sleep ~1000x cheaper
}

// ---- UART ----------------------------------------------------------------------------

class UartTest : public ::testing::Test {
 protected:
  UartTest() : uart_(&mcu_.clock(), &mcu_.bus(), InterruptLine(&mcu_.irq(), 0)) {
    mcu_.bus().AttachDevice(MemoryMap::kUart0, &uart_);
    mcu_.irq().Enable(0);
    base_ = MemoryMap::SlotBase(MemoryMap::kUart0);
  }
  void Write(uint32_t reg, uint32_t value) {
    mcu_.bus().Write(base_ + reg, value, 4, Privilege::kPrivileged);
  }
  uint32_t Read(uint32_t reg) {
    return *mcu_.bus().Read(base_ + reg, 4, Privilege::kPrivileged);
  }
  Mcu mcu_;
  Uart uart_;
  uint32_t base_;
};

TEST_F(UartTest, SingleByteTransmitTakesWireTime) {
  Write(UartRegs::kCtrl, UartRegs::Ctrl::kTxEnable.Set().value);
  Write(UartRegs::kTxData, 'X');
  EXPECT_EQ(uart_.output(), "");
  mcu_.Tick(CycleCosts::kUartCyclesPerByte);
  EXPECT_EQ(uart_.output(), "X");
  EXPECT_TRUE(mcu_.irq().IsPending(0));
  EXPECT_TRUE(UartRegs::Status::kTxDone.IsSetIn(Read(UartRegs::kStatus)));
}

TEST_F(UartTest, DmaTransmitMovesWholeBuffer) {
  const char* msg = "dma hello";
  mcu_.bus().WriteBlock(MemoryMap::kRamBase, reinterpret_cast<const uint8_t*>(msg), 9);
  Write(UartRegs::kCtrl, UartRegs::Ctrl::kTxEnable.Set().value);
  Write(UartRegs::kDmaTxAddr, MemoryMap::kRamBase);
  Write(UartRegs::kDmaTxLen, 9);
  mcu_.Tick(9 * CycleCosts::kUartCyclesPerByte);
  EXPECT_EQ(uart_.output(), "dma hello");
}

TEST_F(UartTest, TransmitWhileBusyIsIgnored) {
  // One transfer in flight: a byte write or a DMA start before TX goes idle
  // again is dropped, and the first transfer completes once.
  const char* msg = "dma";
  mcu_.bus().WriteBlock(MemoryMap::kRamBase, reinterpret_cast<const uint8_t*>(msg), 3);
  Write(UartRegs::kCtrl, UartRegs::Ctrl::kTxEnable.Set().value);
  Write(UartRegs::kDmaTxAddr, MemoryMap::kRamBase);
  Write(UartRegs::kTxData, 'X');
  Write(UartRegs::kTxData, 'Y');
  Write(UartRegs::kDmaTxLen, 3);
  mcu_.Tick(10 * CycleCosts::kUartCyclesPerByte);
  EXPECT_EQ(uart_.output(), "X");
  EXPECT_TRUE(UartRegs::Status::kTxIdle.IsSetIn(Read(UartRegs::kStatus)));

  // Busy is the transfer in flight, not the status bit: clearing every status
  // bit through INTCLR must not leave TX refusing new transfers.
  Write(UartRegs::kIntClr, 0xF);
  Write(UartRegs::kDmaTxLen, 3);
  Write(UartRegs::kTxData, 'Y');
  mcu_.Tick(10 * CycleCosts::kUartCyclesPerByte);
  EXPECT_EQ(uart_.output(), "Xdma");
}

TEST_F(UartTest, TransmitDisabledDoesNothing) {
  Write(UartRegs::kTxData, 'X');
  mcu_.Tick(10 * CycleCosts::kUartCyclesPerByte);
  EXPECT_EQ(uart_.output(), "");
}

TEST_F(UartTest, InjectedRxBytesArrivePaced) {
  Write(UartRegs::kCtrl,
        (UartRegs::Ctrl::kTxEnable.Set() + UartRegs::Ctrl::kRxEnable.Set()).value);
  uart_.InjectRx("ab");
  mcu_.Tick(CycleCosts::kUartCyclesPerByte);
  EXPECT_TRUE(UartRegs::Status::kRxAvail.IsSetIn(Read(UartRegs::kStatus)));
  EXPECT_EQ(Read(UartRegs::kRxData), static_cast<uint32_t>('a'));
  // Reading RXDATA clears the available flag until the next byte lands.
  EXPECT_FALSE(UartRegs::Status::kRxAvail.IsSetIn(Read(UartRegs::kStatus)));
  mcu_.Tick(CycleCosts::kUartCyclesPerByte);
  EXPECT_EQ(Read(UartRegs::kRxData), static_cast<uint32_t>('b'));
}

TEST_F(UartTest, DmaReceiveFillsRamAndInterrupts) {
  Write(UartRegs::kDmaRxAddr, MemoryMap::kRamBase + 64);
  Write(UartRegs::kDmaRxLen, 4);
  uart_.InjectRx("wxyz");
  mcu_.Tick(5 * CycleCosts::kUartCyclesPerByte);
  uint8_t received[4];
  mcu_.bus().ReadBlock(MemoryMap::kRamBase + 64, received, 4);
  EXPECT_EQ(std::memcmp(received, "wxyz", 4), 0);
  EXPECT_TRUE(UartRegs::Status::kRxDone.IsSetIn(Read(UartRegs::kStatus)));
}

// ---- Timers --------------------------------------------------------------------------

TEST(AlarmTimer, FiresAtCompareValue) {
  Mcu mcu;
  AlarmTimer timer(&mcu.clock(), InterruptLine(&mcu.irq(), 1));
  mcu.bus().AttachDevice(MemoryMap::kAlarm, &timer);
  mcu.irq().Enable(1);
  uint32_t base = MemoryMap::SlotBase(MemoryMap::kAlarm);

  mcu.bus().Write(base + AlarmRegs::kCompare, 500, 4, Privilege::kPrivileged);
  mcu.bus().Write(base + AlarmRegs::kCtrl, 1, 4, Privilege::kPrivileged);
  mcu.Tick(499);
  EXPECT_FALSE(mcu.irq().IsPending(1));
  mcu.Tick(1);
  EXPECT_TRUE(mcu.irq().IsPending(1));
  uint32_t status = *mcu.bus().Read(base + AlarmRegs::kStatus, 4, Privilege::kPrivileged);
  EXPECT_TRUE(AlarmRegs::Status::kFired.IsSetIn(status));
}

TEST(AlarmTimer, DisableCancelsPendingMatch) {
  Mcu mcu;
  AlarmTimer timer(&mcu.clock(), InterruptLine(&mcu.irq(), 1));
  mcu.bus().AttachDevice(MemoryMap::kAlarm, &timer);
  mcu.irq().Enable(1);
  uint32_t base = MemoryMap::SlotBase(MemoryMap::kAlarm);
  mcu.bus().Write(base + AlarmRegs::kCompare, 100, 4, Privilege::kPrivileged);
  mcu.bus().Write(base + AlarmRegs::kCtrl, 1, 4, Privilege::kPrivileged);
  mcu.bus().Write(base + AlarmRegs::kCtrl, 0, 4, Privilege::kPrivileged);
  mcu.Tick(200);
  EXPECT_FALSE(mcu.irq().IsPending(1));
}

TEST(SysTick, ExpiresAfterReload) {
  Mcu mcu;
  SysTick systick(&mcu.clock(), InterruptLine(&mcu.irq(), 10));
  mcu.irq().Enable(10);
  systick.ArmCycles(1000);
  mcu.Tick(999);
  EXPECT_FALSE(systick.Expired());
  mcu.Tick(1);
  EXPECT_TRUE(systick.Expired());
  EXPECT_TRUE(mcu.irq().IsPending(10));
  systick.DisarmAndClear();
  EXPECT_FALSE(systick.Expired());
}

TEST(SysTick, RearmReplacesCountdown) {
  Mcu mcu;
  SysTick systick(&mcu.clock(), InterruptLine(&mcu.irq(), 10));
  systick.ArmCycles(100);
  mcu.Tick(50);
  systick.ArmCycles(100);  // re-arm pushes the deadline out
  mcu.Tick(60);
  EXPECT_FALSE(systick.Expired());
  mcu.Tick(40);
  EXPECT_TRUE(systick.Expired());
}

// ---- GPIO ----------------------------------------------------------------------------

TEST(GpioHw, OutputTogglesAreObservable) {
  Mcu mcu;
  Gpio gpio{InterruptLine(&mcu.irq(), 2)};
  mcu.bus().AttachDevice(MemoryMap::kGpio, &gpio);
  uint32_t base = MemoryMap::SlotBase(MemoryMap::kGpio);
  mcu.bus().Write(base + GpioRegs::kDir, 0x1, 4, Privilege::kPrivileged);
  mcu.bus().Write(base + GpioRegs::kOut, 0x1, 4, Privilege::kPrivileged);
  EXPECT_TRUE(gpio.GetOutput(0));
  mcu.bus().Write(base + GpioRegs::kOut, 0x0, 4, Privilege::kPrivileged);
  EXPECT_FALSE(gpio.GetOutput(0));
  EXPECT_EQ(gpio.output_toggles(0), 2u);
}

TEST(GpioHw, EdgeInterruptsRespectEnableMasks) {
  Mcu mcu;
  Gpio gpio{InterruptLine(&mcu.irq(), 2)};
  mcu.bus().AttachDevice(MemoryMap::kGpio, &gpio);
  mcu.irq().Enable(2);
  uint32_t base = MemoryMap::SlotBase(MemoryMap::kGpio);
  mcu.bus().Write(base + GpioRegs::kIrqRise, 1u << 4, 4, Privilege::kPrivileged);

  gpio.SetInput(4, true);  // rising edge, enabled
  EXPECT_TRUE(mcu.irq().IsPending(2));
  mcu.irq().Complete(2);
  mcu.bus().Write(base + GpioRegs::kIntClr, 1u << 4, 4, Privilege::kPrivileged);

  gpio.SetInput(4, false);  // falling edge, not enabled
  EXPECT_FALSE(mcu.irq().IsPending(2));
  gpio.SetInput(4, false);  // no edge at all
  EXPECT_FALSE(mcu.irq().IsPending(2));
}

// ---- RNG -----------------------------------------------------------------------------

TEST(RngHw, DeterministicPerSeedAsyncReady) {
  Mcu mcu;
  Rng rng(&mcu.clock(), InterruptLine(&mcu.irq(), 4), 1234);
  mcu.bus().AttachDevice(MemoryMap::kRng, &rng);
  mcu.irq().Enable(4);
  uint32_t base = MemoryMap::SlotBase(MemoryMap::kRng);

  mcu.bus().Write(base + RngRegs::kCtrl, 1, 4, Privilege::kPrivileged);
  EXPECT_FALSE(RngRegs::Status::kReady.IsSetIn(
      *mcu.bus().Read(base + RngRegs::kStatus, 4, Privilege::kPrivileged)));
  mcu.Tick(CycleCosts::kRngCyclesPerWord);
  EXPECT_TRUE(RngRegs::Status::kReady.IsSetIn(
      *mcu.bus().Read(base + RngRegs::kStatus, 4, Privilege::kPrivileged)));
  uint32_t v1 = *mcu.bus().Read(base + RngRegs::kData, 4, Privilege::kPrivileged);

  Mcu mcu2;
  Rng rng2(&mcu2.clock(), InterruptLine(&mcu2.irq(), 4), 1234);
  mcu2.bus().AttachDevice(MemoryMap::kRng, &rng2);
  mcu2.bus().Write(base + RngRegs::kCtrl, 1, 4, Privilege::kPrivileged);
  mcu2.Tick(CycleCosts::kRngCyclesPerWord);
  EXPECT_EQ(*mcu2.bus().Read(base + RngRegs::kData, 4, Privilege::kPrivileged), v1);
}

TEST(RngHw, StartWhileGatheringIsIgnored) {
  Mcu mcu;
  Rng rng(&mcu.clock(), InterruptLine(&mcu.irq(), 4), 1234);
  mcu.bus().AttachDevice(MemoryMap::kRng, &rng);
  mcu.irq().Enable(4);
  uint32_t base = MemoryMap::SlotBase(MemoryMap::kRng);

  mcu.bus().Write(base + RngRegs::kCtrl, 1, 4, Privilege::kPrivileged);
  mcu.Tick(CycleCosts::kRngCyclesPerWord / 2);
  mcu.bus().Write(base + RngRegs::kCtrl, 1, 4, Privilege::kPrivileged);
  mcu.Tick(CycleCosts::kRngCyclesPerWord - CycleCosts::kRngCyclesPerWord / 2);
  EXPECT_TRUE(mcu.irq().IsPending(4));  // the first start's word, on time
  (void)mcu.bus().Read(base + RngRegs::kData, 4, Privilege::kPrivileged);
  mcu.irq().Complete(4);

  mcu.Tick(2 * CycleCosts::kRngCyclesPerWord);
  EXPECT_FALSE(mcu.irq().IsPending(4));  // no second word was gathered
  EXPECT_FALSE(RngRegs::Status::kReady.IsSetIn(
      *mcu.bus().Read(base + RngRegs::kStatus, 4, Privilege::kPrivileged)));
}

// ---- Crypto accelerators ------------------------------------------------------------------

class AccelTest : public ::testing::Test {
 protected:
  AccelTest()
      : aes_(&mcu_.clock(), &mcu_.bus(), InterruptLine(&mcu_.irq(), 5)),
        sha_(&mcu_.clock(), &mcu_.bus(), InterruptLine(&mcu_.irq(), 6)) {
    mcu_.bus().AttachDevice(MemoryMap::kAes, &aes_);
    mcu_.bus().AttachDevice(MemoryMap::kSha, &sha_);
    mcu_.irq().Enable(5);
    mcu_.irq().Enable(6);
  }
  void W(MemoryMap::Slot slot, uint32_t reg, uint32_t v) {
    mcu_.bus().Write(MemoryMap::SlotBase(slot) + reg, v, 4, Privilege::kPrivileged);
  }
  uint32_t R(MemoryMap::Slot slot, uint32_t reg) {
    return *mcu_.bus().Read(MemoryMap::SlotBase(slot) + reg, 4, Privilege::kPrivileged);
  }
  Mcu mcu_;
  AesAccel aes_;
  ShaAccel sha_;
};

TEST_F(AccelTest, AesEcbMatchesSoftwareImplementation) {
  uint8_t key[16];
  uint8_t plain[16];
  for (int i = 0; i < 16; ++i) {
    key[i] = static_cast<uint8_t>(i);
    plain[i] = static_cast<uint8_t>(0xF0 + i);
  }
  mcu_.bus().WriteBlock(MemoryMap::kRamBase, plain, 16);
  for (int i = 0; i < 4; ++i) {
    uint32_t word;
    std::memcpy(&word, key + 4 * i, 4);
    W(MemoryMap::kAes, AesRegs::kKey0 + 4 * i, word);
  }
  W(MemoryMap::kAes, AesRegs::kSrc, MemoryMap::kRamBase);
  W(MemoryMap::kAes, AesRegs::kDst, MemoryMap::kRamBase + 64);
  W(MemoryMap::kAes, AesRegs::kLen, 16);
  W(MemoryMap::kAes, AesRegs::kCtrl, AesRegs::Ctrl::kStart.Set().value);

  EXPECT_TRUE(AesRegs::Status::kBusy.IsSetIn(R(MemoryMap::kAes, AesRegs::kStatus)));
  mcu_.Tick(CycleCosts::kAesCyclesPerBlock);
  EXPECT_TRUE(AesRegs::Status::kDone.IsSetIn(R(MemoryMap::kAes, AesRegs::kStatus)));
  EXPECT_TRUE(mcu_.irq().IsPending(5));

  uint8_t hw_out[16];
  mcu_.bus().ReadBlock(MemoryMap::kRamBase + 64, hw_out, 16);
  Aes128 sw(key);
  uint8_t sw_out[16];
  std::memcpy(sw_out, plain, 16);
  sw.EncryptBlock(sw_out);
  EXPECT_EQ(std::memcmp(hw_out, sw_out, 16), 0);
}

TEST_F(AccelTest, AesEcbRejectsPartialBlocks) {
  W(MemoryMap::kAes, AesRegs::kSrc, MemoryMap::kRamBase);
  W(MemoryMap::kAes, AesRegs::kDst, MemoryMap::kRamBase);
  W(MemoryMap::kAes, AesRegs::kLen, 10);
  W(MemoryMap::kAes, AesRegs::kCtrl, AesRegs::Ctrl::kStart.Set().value);
  EXPECT_TRUE(AesRegs::Status::kError.IsSetIn(R(MemoryMap::kAes, AesRegs::kStatus)));
}

TEST_F(AccelTest, ShaDigestMatchesSoftware) {
  const char* msg = "abc";
  mcu_.bus().WriteBlock(MemoryMap::kRamBase, reinterpret_cast<const uint8_t*>(msg), 3);
  W(MemoryMap::kSha, ShaRegs::kSrc, MemoryMap::kRamBase);
  W(MemoryMap::kSha, ShaRegs::kLen, 3);
  W(MemoryMap::kSha, ShaRegs::kCtrl, ShaRegs::Ctrl::kStart.Set().value);
  mcu_.Tick(10 * CycleCosts::kShaCyclesPerBlock);
  ASSERT_TRUE(ShaRegs::Status::kDone.IsSetIn(R(MemoryMap::kSha, ShaRegs::kStatus)));

  auto expected = Sha256::Digest(reinterpret_cast<const uint8_t*>(msg), 3);
  for (int i = 0; i < 8; ++i) {
    uint32_t word = R(MemoryMap::kSha, ShaRegs::kDigest0 + 4 * i);
    uint32_t expected_word;
    std::memcpy(&expected_word, expected.data() + 4 * i, 4);
    EXPECT_EQ(word, expected_word) << "digest word " << i;
  }
}

TEST_F(AccelTest, ShaLatencyScalesWithInputSize) {
  // Completion must NOT be instantaneous — the asynchrony is what forces the
  // loader's state machine (§3.4).
  std::vector<uint8_t> data(512, 0xAB);
  mcu_.bus().WriteBlock(MemoryMap::kRamBase, data.data(), data.size());
  W(MemoryMap::kSha, ShaRegs::kSrc, MemoryMap::kRamBase);
  W(MemoryMap::kSha, ShaRegs::kLen, 512);
  W(MemoryMap::kSha, ShaRegs::kCtrl, ShaRegs::Ctrl::kStart.Set().value);
  mcu_.Tick(CycleCosts::kShaCyclesPerBlock);
  EXPECT_FALSE(ShaRegs::Status::kDone.IsSetIn(R(MemoryMap::kSha, ShaRegs::kStatus)));
  mcu_.Tick(9 * CycleCosts::kShaCyclesPerBlock);
  EXPECT_TRUE(ShaRegs::Status::kDone.IsSetIn(R(MemoryMap::kSha, ShaRegs::kStatus)));
}

// ---- Flash controller ------------------------------------------------------------------

TEST(FlashCtrl, ProgramCopiesRamToFlashAsynchronously) {
  Mcu mcu;
  FlashController ctrl(&mcu.clock(), &mcu.bus(), InterruptLine(&mcu.irq(), 7));
  mcu.bus().AttachDevice(MemoryMap::kFlashCtrl, &ctrl);
  mcu.irq().Enable(7);
  uint32_t base = MemoryMap::SlotBase(MemoryMap::kFlashCtrl);

  const char* payload = "persist me";
  mcu.bus().WriteBlock(MemoryMap::kRamBase, reinterpret_cast<const uint8_t*>(payload), 10);
  mcu.bus().Write(base + FlashRegs::kDstAddr, 0x10000, 4, Privilege::kPrivileged);
  mcu.bus().Write(base + FlashRegs::kSrcAddr, MemoryMap::kRamBase, 4, Privilege::kPrivileged);
  mcu.bus().Write(base + FlashRegs::kLen, 10, 4, Privilege::kPrivileged);
  mcu.bus().Write(base + FlashRegs::kCtrl, 1, 4, Privilege::kPrivileged);

  uint8_t before[10];
  mcu.bus().ReadBlock(0x10000, before, 10);
  EXPECT_NE(std::memcmp(before, payload, 10), 0);  // not yet written

  mcu.Tick(CycleCosts::kFlashWriteCyclesPerPage);
  uint8_t after[10];
  mcu.bus().ReadBlock(0x10000, after, 10);
  EXPECT_EQ(std::memcmp(after, payload, 10), 0);
  EXPECT_TRUE(mcu.irq().IsPending(7));
}

TEST(FlashCtrl, EraseSetsPageToOnes) {
  Mcu mcu;
  FlashController ctrl(&mcu.clock(), &mcu.bus(), InterruptLine(&mcu.irq(), 7));
  mcu.bus().AttachDevice(MemoryMap::kFlashCtrl, &ctrl);
  uint32_t base = MemoryMap::SlotBase(MemoryMap::kFlashCtrl);

  uint8_t zeros[16] = {};
  mcu.bus().ProgramFlash(0x10000, zeros, sizeof(zeros));
  mcu.bus().Write(base + FlashRegs::kDstAddr, 0x10000, 4, Privilege::kPrivileged);
  mcu.bus().Write(base + FlashRegs::kCtrl, 2, 4, Privilege::kPrivileged);
  mcu.Tick(CycleCosts::kFlashWriteCyclesPerPage);

  uint8_t data[16];
  mcu.bus().ReadBlock(0x10000, data, sizeof(data));
  for (uint8_t b : data) {
    EXPECT_EQ(b, 0xFF);
  }
}

// ---- Radio + medium ------------------------------------------------------------------------

TEST(RadioHw, BroadcastReachesPeerAfterAirTime) {
  Mcu a, b;
  Radio radio_a(&a.clock(), &a.bus(), InterruptLine(&a.irq(), 8), 1);
  Radio radio_b(&b.clock(), &b.bus(), InterruptLine(&b.irq(), 8), 2);
  a.bus().AttachDevice(MemoryMap::kRadio, &radio_a);
  b.bus().AttachDevice(MemoryMap::kRadio, &radio_b);
  b.irq().Enable(8);
  RadioMedium medium;
  medium.Attach(&radio_a);
  medium.Attach(&radio_b);

  uint32_t base = MemoryMap::SlotBase(MemoryMap::kRadio);
  // Receiver: enabled, RX armed.
  b.bus().Write(base + RadioRegs::kCtrl, 0x3, 4, Privilege::kPrivileged);
  b.bus().Write(base + RadioRegs::kRxAddr, MemoryMap::kRamBase, 4, Privilege::kPrivileged);
  b.bus().Write(base + RadioRegs::kRxMaxLen, 64, 4, Privilege::kPrivileged);

  // Sender.
  const char* packet = "ping!";
  a.bus().WriteBlock(MemoryMap::kRamBase, reinterpret_cast<const uint8_t*>(packet), 5);
  a.bus().Write(base + RadioRegs::kCtrl, 0x1, 4, Privilege::kPrivileged);
  a.bus().Write(base + RadioRegs::kDstAddr, 0xFFFF, 4, Privilege::kPrivileged);
  a.bus().Write(base + RadioRegs::kTxAddr, MemoryMap::kRamBase, 4, Privilege::kPrivileged);
  a.bus().Write(base + RadioRegs::kTxLen, 5, 4, Privilege::kPrivileged);
  radio_b.PumpInbox();  // the epoch boundary a Fleet would provide

  EXPECT_EQ(radio_b.packets_received(), 0u);
  b.Tick(CycleCosts::kRadioCyclesPerByte * 13 + 10);
  EXPECT_EQ(radio_b.packets_received(), 1u);
  uint8_t received[5];
  b.bus().ReadBlock(MemoryMap::kRamBase, received, 5);
  EXPECT_EQ(std::memcmp(received, packet, 5), 0);
  EXPECT_TRUE(b.irq().IsPending(8));
}

TEST(RadioHw, UnicastIgnoredByWrongAddress) {
  Mcu a, b;
  Radio radio_a(&a.clock(), &a.bus(), InterruptLine(&a.irq(), 8), 0);
  Radio radio_b(&b.clock(), &b.bus(), InterruptLine(&b.irq(), 8), 2);
  a.bus().AttachDevice(MemoryMap::kRadio, &radio_a);
  b.bus().AttachDevice(MemoryMap::kRadio, &radio_b);
  RadioMedium medium;
  medium.Attach(&radio_a);
  medium.Attach(&radio_b);

  uint32_t base = MemoryMap::SlotBase(MemoryMap::kRadio);
  b.bus().Write(base + RadioRegs::kCtrl, 0x3, 4, Privilege::kPrivileged);
  b.bus().Write(base + RadioRegs::kRxAddr, MemoryMap::kRamBase, 4, Privilege::kPrivileged);
  b.bus().Write(base + RadioRegs::kRxMaxLen, 64, 4, Privilege::kPrivileged);

  uint8_t payload[3] = {1, 2, 3};
  a.bus().WriteBlock(MemoryMap::kRamBase, payload, 3);
  a.bus().Write(base + RadioRegs::kCtrl, 0x1, 4, Privilege::kPrivileged);
  a.bus().Write(base + RadioRegs::kDstAddr, 77, 4, Privilege::kPrivileged);  // not node 2
  a.bus().Write(base + RadioRegs::kTxAddr, MemoryMap::kRamBase, 4, Privilege::kPrivileged);
  a.bus().Write(base + RadioRegs::kTxLen, 3, 4, Privilege::kPrivileged);
  radio_b.PumpInbox();
  b.Tick(CycleCosts::kRadioCyclesPerByte * 20);
  EXPECT_EQ(radio_b.packets_received(), 0u);
}

TEST(RadioHw, UnicastEnqueuesOnlyAtItsAddressee) {
  // A unicast frame is decided at transmit: the bystander gets nothing in flight,
  // so its clock has no event to wake it; the addressee receives the frame.
  Mcu a, b, c;
  Radio radio_a(&a.clock(), &a.bus(), InterruptLine(&a.irq(), 8), 1);
  Radio radio_b(&b.clock(), &b.bus(), InterruptLine(&b.irq(), 8), 2);
  Radio radio_c(&c.clock(), &c.bus(), InterruptLine(&c.irq(), 8), 3);
  a.bus().AttachDevice(MemoryMap::kRadio, &radio_a);
  b.bus().AttachDevice(MemoryMap::kRadio, &radio_b);
  c.bus().AttachDevice(MemoryMap::kRadio, &radio_c);
  RadioMedium medium;
  medium.Attach(&radio_a);
  medium.Attach(&radio_b);
  medium.Attach(&radio_c);

  uint32_t base = MemoryMap::SlotBase(MemoryMap::kRadio);
  for (Mcu* m : {&b, &c}) {
    m->bus().Write(base + RadioRegs::kCtrl, 0x3, 4, Privilege::kPrivileged);
    m->bus().Write(base + RadioRegs::kRxAddr, MemoryMap::kRamBase, 4, Privilege::kPrivileged);
    m->bus().Write(base + RadioRegs::kRxMaxLen, 64, 4, Privilege::kPrivileged);
  }
  a.bus().WriteBlock(MemoryMap::kRamBase, reinterpret_cast<const uint8_t*>("to C"), 4);
  a.bus().Write(base + RadioRegs::kCtrl, 0x1, 4, Privilege::kPrivileged);
  a.bus().Write(base + RadioRegs::kDstAddr, 3, 4, Privilege::kPrivileged);
  a.bus().Write(base + RadioRegs::kTxAddr, MemoryMap::kRamBase, 4, Privilege::kPrivileged);
  a.bus().Write(base + RadioRegs::kTxLen, 4, 4, Privilege::kPrivileged);
  radio_b.PumpInbox();
  radio_c.PumpInbox();

  EXPECT_EQ(b.clock().NextEventAt(), UINT64_MAX);
  const uint64_t air = CycleCosts::kRadioCyclesPerByte * (4 + 8);
  EXPECT_EQ(c.clock().NextEventAt(), air);
  b.Tick(air + 10);
  c.Tick(air + 10);
  EXPECT_EQ(radio_b.packets_received(), 0u);
  EXPECT_EQ(radio_c.packets_received(), 1u);
  uint8_t received[4];
  c.bus().ReadBlock(MemoryMap::kRamBase, received, 4);
  EXPECT_EQ(std::memcmp(received, "to C", 4), 0);

  // The address is a strap: a bus write cannot move it.
  b.bus().Write(base + RadioRegs::kNodeAddr, 3, 4, Privilege::kPrivileged);
  EXPECT_EQ(*b.bus().Read(base + RadioRegs::kNodeAddr, 4, Privilege::kPrivileged), 2u);
  EXPECT_EQ(radio_b.node_addr(), 2u);
}

TEST(RadioHw, RxOverrunDropsPacketAndLatchesStatus) {
  Mcu a, b;
  Radio radio_a(&a.clock(), &a.bus(), InterruptLine(&a.irq(), 8), 1);
  Radio radio_b(&b.clock(), &b.bus(), InterruptLine(&b.irq(), 8), 2);
  a.bus().AttachDevice(MemoryMap::kRadio, &radio_a);
  b.bus().AttachDevice(MemoryMap::kRadio, &radio_b);
  RadioMedium medium;
  medium.Attach(&radio_a);
  medium.Attach(&radio_b);

  uint32_t base = MemoryMap::SlotBase(MemoryMap::kRadio);
  b.bus().Write(base + RadioRegs::kCtrl, 0x3, 4, Privilege::kPrivileged);
  b.bus().Write(base + RadioRegs::kRxAddr, MemoryMap::kRamBase, 4, Privilege::kPrivileged);
  b.bus().Write(base + RadioRegs::kRxMaxLen, 64, 4, Privilege::kPrivileged);

  a.bus().Write(base + RadioRegs::kCtrl, 0x1, 4, Privilege::kPrivileged);
  a.bus().Write(base + RadioRegs::kDstAddr, 2, 4, Privilege::kPrivileged);
  a.bus().Write(base + RadioRegs::kTxAddr, MemoryMap::kRamBase, 4, Privilege::kPrivileged);

  // First packet lands normally. (Tick the sender too so its TxBusy clears and
  // its clock tracks the shared timeline.)
  a.bus().WriteBlock(MemoryMap::kRamBase, reinterpret_cast<const uint8_t*>("first"), 5);
  a.bus().Write(base + RadioRegs::kTxLen, 5, 4, Privilege::kPrivileged);
  radio_b.PumpInbox();
  a.Tick(CycleCosts::kRadioCyclesPerByte * 13 + 10);
  b.Tick(CycleCosts::kRadioCyclesPerByte * 13 + 10);
  ASSERT_EQ(radio_b.packets_received(), 1u);

  // Second packet arrives while kRxDone is still set (receiver never consumed the
  // first): it must be dropped whole — the RX buffer keeps the first payload — and
  // the overrun latched in status + counter. This is the bug this test pins: the
  // old model overwrote the unconsumed frame in place.
  a.bus().WriteBlock(MemoryMap::kRamBase, reinterpret_cast<const uint8_t*>("wrong"), 5);
  a.bus().Write(base + RadioRegs::kTxLen, 5, 4, Privilege::kPrivileged);
  radio_b.PumpInbox();
  a.Tick(CycleCosts::kRadioCyclesPerByte * 13 + 10);
  b.Tick(CycleCosts::kRadioCyclesPerByte * 13 + 10);
  EXPECT_EQ(radio_b.packets_received(), 1u);
  EXPECT_EQ(radio_b.rx_overruns(), 1u);
  uint32_t status = *b.bus().Read(base + RadioRegs::kStatus, 4, Privilege::kPrivileged);
  EXPECT_TRUE(RadioRegs::Status::kRxDone.IsSetIn(status));
  EXPECT_TRUE(RadioRegs::Status::kRxOverrun.IsSetIn(status));
  uint8_t kept[5];
  b.bus().ReadBlock(MemoryMap::kRamBase, kept, 5);
  EXPECT_EQ(std::memcmp(kept, "first", 5), 0);

  // Acknowledging (IntClr) frees the buffer: the next packet is accepted again.
  b.bus().Write(base + RadioRegs::kIntClr,
                RadioRegs::Status::kRxDone.Set().value |
                    RadioRegs::Status::kRxOverrun.Set().value,
                4, Privilege::kPrivileged);
  status = *b.bus().Read(base + RadioRegs::kStatus, 4, Privilege::kPrivileged);
  EXPECT_FALSE(RadioRegs::Status::kRxOverrun.IsSetIn(status));
  a.bus().WriteBlock(MemoryMap::kRamBase, reinterpret_cast<const uint8_t*>("third"), 5);
  a.bus().Write(base + RadioRegs::kTxLen, 5, 4, Privilege::kPrivileged);
  radio_b.PumpInbox();
  a.Tick(CycleCosts::kRadioCyclesPerByte * 13 + 10);
  b.Tick(CycleCosts::kRadioCyclesPerByte * 13 + 10);
  EXPECT_EQ(radio_b.packets_received(), 2u);
  EXPECT_EQ(radio_b.rx_overruns(), 1u);
  b.bus().ReadBlock(MemoryMap::kRamBase, kept, 5);
  EXPECT_EQ(std::memcmp(kept, "third", 5), 0);
}

TEST(RadioHw, SameCycleArrivalsDeliverInAttachOrder) {
  // Two senders transmit equal-length packets at the same shared-timeline cycle.
  // The total order is (deliver_at, attach index, seq): the radio attached first
  // must win the RX buffer regardless of which Transmit ran first.
  Mcu a, b, c;
  Radio radio_a(&a.clock(), &a.bus(), InterruptLine(&a.irq(), 8), 1);
  Radio radio_b(&b.clock(), &b.bus(), InterruptLine(&b.irq(), 8), 2);
  Radio radio_c(&c.clock(), &c.bus(), InterruptLine(&c.irq(), 8), 3);
  a.bus().AttachDevice(MemoryMap::kRadio, &radio_a);
  b.bus().AttachDevice(MemoryMap::kRadio, &radio_b);
  c.bus().AttachDevice(MemoryMap::kRadio, &radio_c);
  RadioMedium medium;
  medium.Attach(&radio_a);  // attach index 0
  medium.Attach(&radio_b);  // attach index 1
  medium.Attach(&radio_c);  // attach index 2
  radio_b.EnableDeliveryLog();

  uint32_t base = MemoryMap::SlotBase(MemoryMap::kRadio);
  b.bus().Write(base + RadioRegs::kCtrl, 0x3, 4, Privilege::kPrivileged);
  b.bus().Write(base + RadioRegs::kRxAddr, MemoryMap::kRamBase, 4, Privilege::kPrivileged);
  b.bus().Write(base + RadioRegs::kRxMaxLen, 64, 4, Privilege::kPrivileged);

  for (Mcu* m : {&a, &c}) {
    m->bus().Write(base + RadioRegs::kCtrl, 0x1, 4, Privilege::kPrivileged);
    m->bus().Write(base + RadioRegs::kDstAddr, 2, 4, Privilege::kPrivileged);
    m->bus().Write(base + RadioRegs::kTxAddr, MemoryMap::kRamBase, 4, Privilege::kPrivileged);
  }
  a.bus().WriteBlock(MemoryMap::kRamBase, reinterpret_cast<const uint8_t*>("AA"), 2);
  c.bus().WriteBlock(MemoryMap::kRamBase, reinterpret_cast<const uint8_t*>("CC"), 2);

  // Both clocks sit at cycle 0, so both frames arrive at the same cycle. Fire the
  // later-attached sender FIRST: enqueue order must not leak into delivery order.
  c.bus().Write(base + RadioRegs::kTxLen, 2, 4, Privilege::kPrivileged);
  a.bus().Write(base + RadioRegs::kTxLen, 2, 4, Privilege::kPrivileged);
  radio_b.PumpInbox();
  b.Tick(CycleCosts::kRadioCyclesPerByte * 10 + 10);

  ASSERT_EQ(radio_b.delivery_log().size(), 2u);
  EXPECT_EQ(radio_b.delivery_log()[0].src, 1u);  // attach index 0 delivered first
  EXPECT_FALSE(radio_b.delivery_log()[0].overrun);
  EXPECT_EQ(radio_b.delivery_log()[1].src, 3u);  // loser dropped as an overrun
  EXPECT_TRUE(radio_b.delivery_log()[1].overrun);
  uint8_t kept[2];
  b.bus().ReadBlock(MemoryMap::kRamBase, kept, 2);
  EXPECT_EQ(std::memcmp(kept, "AA", 2), 0);
}

TEST(RadioHw, OutOfOrderPumpsLandAtTheirOwnCycles) {
  // The receiver pumps a long frame first, then a shorter one that arrives
  // earlier, then one that ties the long frame's arrival cycle. The delivery
  // channel must land each at exactly its own cycle, in (deliver_at, sender,
  // seq) order.
  Mcu a, b, c;
  Radio radio_a(&a.clock(), &a.bus(), InterruptLine(&a.irq(), 8), 1);
  Radio radio_b(&b.clock(), &b.bus(), InterruptLine(&b.irq(), 8), 2);
  Radio radio_c(&c.clock(), &c.bus(), InterruptLine(&c.irq(), 8), 3);
  a.bus().AttachDevice(MemoryMap::kRadio, &radio_a);
  b.bus().AttachDevice(MemoryMap::kRadio, &radio_b);
  c.bus().AttachDevice(MemoryMap::kRadio, &radio_c);
  RadioMedium medium;
  medium.Attach(&radio_a);  // attach index 0
  medium.Attach(&radio_b);  // attach index 1
  medium.Attach(&radio_c);  // attach index 2
  radio_b.EnableDeliveryLog();

  uint32_t base = MemoryMap::SlotBase(MemoryMap::kRadio);
  b.bus().Write(base + RadioRegs::kCtrl, 0x3, 4, Privilege::kPrivileged);
  b.bus().Write(base + RadioRegs::kRxAddr, MemoryMap::kRamBase, 4, Privilege::kPrivileged);
  b.bus().Write(base + RadioRegs::kRxMaxLen, 64, 4, Privilege::kPrivileged);
  for (Mcu* m : {&a, &c}) {
    m->bus().Write(base + RadioRegs::kCtrl, 0x1, 4, Privilege::kPrivileged);
    m->bus().Write(base + RadioRegs::kDstAddr, 2, 4, Privilege::kPrivileged);
    m->bus().Write(base + RadioRegs::kTxAddr, MemoryMap::kRamBase, 4, Privilege::kPrivileged);
  }
  auto send = [&](Mcu& m, uint32_t len) {
    m.bus().Write(base + RadioRegs::kTxLen, len, 4, Privilege::kPrivileged);
    radio_b.PumpInbox();
  };

  constexpr uint64_t kByte = CycleCosts::kRadioCyclesPerByte;
  send(a, 20);            // arrives at 28 * kByte
  send(c, 2);             // arrives at 10 * kByte, ahead of the armed deadline
  c.Tick(10 * kByte);     // c's TX-done
  send(c, 10);            // arrives at 28 * kByte, behind a's frame (sender 0)

  b.Tick(10 * kByte - 1);
  EXPECT_TRUE(radio_b.delivery_log().empty());
  b.Tick(1);
  ASSERT_EQ(radio_b.delivery_log().size(), 1u);
  b.bus().Write(base + RadioRegs::kIntClr, RadioRegs::Status::kRxDone.Set().value, 4,
                Privilege::kPrivileged);
  b.Tick(18 * kByte - 1);
  EXPECT_EQ(radio_b.delivery_log().size(), 1u);
  b.Tick(1);

  const auto& log = radio_b.delivery_log();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0].cycle, 10 * kByte);
  EXPECT_EQ(log[0].src, 3u);
  EXPECT_FALSE(log[0].overrun);
  EXPECT_EQ(log[1].cycle, 28 * kByte);
  EXPECT_EQ(log[1].src, 1u);
  EXPECT_FALSE(log[1].overrun);
  EXPECT_EQ(log[2].cycle, 28 * kByte);
  EXPECT_EQ(log[2].src, 3u);
  EXPECT_TRUE(log[2].overrun);  // the RX buffer still holds a's frame
  EXPECT_EQ(b.clock().NextEventAt(), UINT64_MAX);
}

// ---- Link-fault layer -----------------------------------------------------------------------

// Two-node bench for the medium's seeded fault injection: node 1 transmits
// unicast frames to node 2; the test controls the LinkFaultConfig and inspects
// the receiver's buffer, counters, and delivery log.
struct FaultBench {
  FaultBench() {
    a.bus().AttachDevice(MemoryMap::kRadio, &radio_a);
    b.bus().AttachDevice(MemoryMap::kRadio, &radio_b);
    medium.Attach(&radio_a);
    medium.Attach(&radio_b);
    radio_b.EnableDeliveryLog();
    uint32_t base = MemoryMap::SlotBase(MemoryMap::kRadio);
    b.bus().Write(base + RadioRegs::kCtrl, 0x3, 4, Privilege::kPrivileged);
    b.bus().Write(base + RadioRegs::kRxAddr, MemoryMap::kRamBase, 4, Privilege::kPrivileged);
    b.bus().Write(base + RadioRegs::kRxMaxLen, 64, 4, Privilege::kPrivileged);
    a.bus().Write(base + RadioRegs::kCtrl, 0x1, 4, Privilege::kPrivileged);
    a.bus().Write(base + RadioRegs::kDstAddr, 2, 4, Privilege::kPrivileged);
    a.bus().Write(base + RadioRegs::kTxAddr, MemoryMap::kRamBase, 4, Privilege::kPrivileged);
  }

  // Transmits `payload` and advances both clocks through its air time plus any
  // configured fault delays.
  void Send(const std::vector<uint8_t>& payload) {
    uint32_t base = MemoryMap::SlotBase(MemoryMap::kRadio);
    a.bus().WriteBlock(MemoryMap::kRamBase, payload.data(),
                       static_cast<uint32_t>(payload.size()));
    a.bus().Write(base + RadioRegs::kTxLen, static_cast<uint32_t>(payload.size()), 4,
                  Privilege::kPrivileged);
    radio_b.PumpInbox();
    uint64_t air = CycleCosts::kRadioCyclesPerByte * (payload.size() + 8) + 10 +
                   medium.link_faults().reorder_delay + medium.link_faults().duplicate_delay;
    a.Tick(air);
    b.Tick(air);
  }

  // Consumes the received frame (clears kRxDone) so the next one is accepted.
  void Consume() {
    uint32_t base = MemoryMap::SlotBase(MemoryMap::kRadio);
    b.bus().Write(base + RadioRegs::kIntClr,
                  RadioRegs::Status::kRxDone.Set().value |
                      RadioRegs::Status::kRxOverrun.Set().value,
                  4, Privilege::kPrivileged);
  }

  Mcu a, b;
  Radio radio_a{&a.clock(), &a.bus(), InterruptLine(&a.irq(), 8), 1};
  Radio radio_b{&b.clock(), &b.bus(), InterruptLine(&b.irq(), 8), 2};
  RadioMedium medium;
};

TEST(RadioFaults, DropAllLosesEveryFrameAndCountsIt) {
  FaultBench bench;
  LinkFaultConfig faults;
  faults.seed = 1;
  faults.drop_permille = 1000;
  bench.medium.SetLinkFaults(faults);

  for (int i = 0; i < 5; ++i) {
    bench.Send({1, 2, 3});
  }
  EXPECT_EQ(bench.radio_b.packets_received(), 0u);
  EXPECT_EQ(bench.radio_b.fault_counters().dropped, 5u);
  EXPECT_EQ(bench.radio_a.packets_sent(), 5u);  // the sender never knows
}

TEST(RadioFaults, CorruptFlipsExactlyOneSeededBit) {
  FaultBench bench;
  LinkFaultConfig faults;
  faults.seed = 2;
  faults.corrupt_permille = 1000;
  bench.medium.SetLinkFaults(faults);

  std::vector<uint8_t> sent = {0x55, 0xAA, 0x0F, 0xF0, 0x00};
  bench.Send(sent);
  ASSERT_EQ(bench.radio_b.packets_received(), 1u);
  uint8_t got[5];
  bench.b.bus().ReadBlock(MemoryMap::kRamBase, got, 5);
  int bits_flipped = 0;
  for (size_t i = 0; i < sent.size(); ++i) {
    uint8_t diff = static_cast<uint8_t>(got[i] ^ sent[i]);
    while (diff != 0) {
      bits_flipped += diff & 1;
      diff >>= 1;
    }
  }
  EXPECT_EQ(bits_flipped, 1);
  EXPECT_EQ(bench.radio_b.fault_counters().corrupted, 1u);
  ASSERT_EQ(bench.radio_b.delivery_log().size(), 1u);
  EXPECT_EQ(bench.radio_b.delivery_log()[0].fault_bits, kFaultCorrupted);
}

TEST(RadioFaults, DuplicateDeliversASecondMarkedCopy) {
  FaultBench bench;
  LinkFaultConfig faults;
  faults.seed = 3;
  faults.duplicate_permille = 1000;
  bench.medium.SetLinkFaults(faults);

  uint32_t base = MemoryMap::SlotBase(MemoryMap::kRadio);
  bench.a.bus().WriteBlock(MemoryMap::kRamBase, reinterpret_cast<const uint8_t*>("dup"), 3);
  bench.a.bus().Write(base + RadioRegs::kTxLen, 3, 4, Privilege::kPrivileged);
  bench.radio_b.PumpInbox();
  // Original arrives after the air time; consume it so the duplicate (one
  // duplicate_delay later) lands in the freed buffer instead of overrunning.
  uint64_t air = CycleCosts::kRadioCyclesPerByte * (3 + 8) + 10;
  bench.a.Tick(air);
  bench.b.Tick(air);
  ASSERT_EQ(bench.radio_b.packets_received(), 1u);
  bench.Consume();
  bench.a.Tick(faults.duplicate_delay);
  bench.b.Tick(faults.duplicate_delay);

  EXPECT_EQ(bench.radio_b.packets_received(), 2u);
  EXPECT_EQ(bench.radio_b.fault_counters().duplicated, 1u);
  ASSERT_EQ(bench.radio_b.delivery_log().size(), 2u);
  EXPECT_EQ(bench.radio_b.delivery_log()[0].fault_bits, 0u);
  EXPECT_EQ(bench.radio_b.delivery_log()[1].fault_bits, kFaultDuplicated);
  EXPECT_EQ(bench.radio_b.delivery_log()[0].payload_sum,
            bench.radio_b.delivery_log()[1].payload_sum);
}

TEST(RadioFaults, ReorderDelaysArrivalPastLaterTraffic) {
  FaultBench bench;
  LinkFaultConfig faults;
  faults.seed = 4;
  faults.reorder_permille = 1000;
  bench.medium.SetLinkFaults(faults);

  uint32_t base = MemoryMap::SlotBase(MemoryMap::kRadio);
  bench.a.bus().WriteBlock(MemoryMap::kRamBase, reinterpret_cast<const uint8_t*>("late"), 4);
  bench.a.bus().Write(base + RadioRegs::kTxLen, 4, 4, Privilege::kPrivileged);
  bench.radio_b.PumpInbox();
  uint64_t air = CycleCosts::kRadioCyclesPerByte * (4 + 8) + 10;
  bench.a.Tick(air);
  bench.b.Tick(air);
  // On-time arrival cycle: nothing yet — the frame was pushed back.
  EXPECT_EQ(bench.radio_b.packets_received(), 0u);
  bench.a.Tick(faults.reorder_delay);
  bench.b.Tick(faults.reorder_delay);
  EXPECT_EQ(bench.radio_b.packets_received(), 1u);
  EXPECT_EQ(bench.radio_b.fault_counters().reordered, 1u);
  ASSERT_EQ(bench.radio_b.delivery_log().size(), 1u);
  EXPECT_EQ(bench.radio_b.delivery_log()[0].fault_bits, kFaultReordered);
}

TEST(RadioFaults, BystanderTalliesEveryLinkFault) {
  // Node 1 unicasts to node 3 under every fault kind. The fault draws run on the
  // bystander's link too, and its counters tally their outcome exactly as if the
  // frame had been enqueued there; it receives nothing.
  Mcu a, b, c;
  Radio radio_a(&a.clock(), &a.bus(), InterruptLine(&a.irq(), 8), 1);
  Radio radio_b(&b.clock(), &b.bus(), InterruptLine(&b.irq(), 8), 2);
  Radio radio_c(&c.clock(), &c.bus(), InterruptLine(&c.irq(), 8), 3);
  a.bus().AttachDevice(MemoryMap::kRadio, &radio_a);
  b.bus().AttachDevice(MemoryMap::kRadio, &radio_b);
  c.bus().AttachDevice(MemoryMap::kRadio, &radio_c);
  RadioMedium medium;
  medium.Attach(&radio_a);
  medium.Attach(&radio_b);
  medium.Attach(&radio_c);
  LinkFaultConfig faults;
  faults.seed = 0x0B57;
  faults.drop_permille = 100;
  faults.duplicate_permille = 20;
  faults.reorder_permille = 20;
  faults.corrupt_permille = 20;
  medium.SetLinkFaults(faults);

  uint32_t base = MemoryMap::SlotBase(MemoryMap::kRadio);
  for (Mcu* m : {&b, &c}) {
    m->bus().Write(base + RadioRegs::kCtrl, 0x3, 4, Privilege::kPrivileged);
    m->bus().Write(base + RadioRegs::kRxAddr, MemoryMap::kRamBase, 4, Privilege::kPrivileged);
    m->bus().Write(base + RadioRegs::kRxMaxLen, 64, 4, Privilege::kPrivileged);
  }
  radio_b.EnableDeliveryLog();
  a.bus().Write(base + RadioRegs::kCtrl, 0x1, 4, Privilege::kPrivileged);
  a.bus().Write(base + RadioRegs::kDstAddr, 3, 4, Privilege::kPrivileged);
  a.bus().Write(base + RadioRegs::kTxAddr, MemoryMap::kRamBase, 4, Privilege::kPrivileged);
  const uint64_t air = CycleCosts::kRadioCyclesPerByte * (4 + 8) + faults.reorder_delay +
                       faults.duplicate_delay;
  for (int i = 0; i < 200; ++i) {
    const uint8_t payload[4] = {static_cast<uint8_t>(i), 0x5A, 0xA5, 0x0F};
    a.bus().WriteBlock(MemoryMap::kRamBase, payload, 4);
    a.bus().Write(base + RadioRegs::kTxLen, 4, 4, Privilege::kPrivileged);
    radio_b.PumpInbox();
    radio_c.PumpInbox();
    for (Mcu* m : {&a, &b, &c}) {
      m->Tick(air);
    }
    c.bus().Write(base + RadioRegs::kIntClr,
                  RadioRegs::Status::kRxDone.Set().value |
                      RadioRegs::Status::kRxOverrun.Set().value,
                  4, Privilege::kPrivileged);
  }
  ASSERT_EQ(radio_a.packets_sent(), 200u);
  EXPECT_EQ(radio_b.packets_received(), 0u);
  EXPECT_TRUE(radio_b.delivery_log().empty());
  // {dropped, duplicated, reordered, corrupted}, as recorded when every radio got
  // every frame and dropped the ones addressed elsewhere on arrival.
  EXPECT_EQ(radio_b.fault_counters(), (LinkFaultCounters{18, 1, 3, 2}));
  EXPECT_EQ(radio_c.fault_counters(), (LinkFaultCounters{25, 3, 4, 2}));
  EXPECT_EQ(radio_c.packets_received(), 175u);
}

TEST(RadioFaults, SameSeedReproducesIdenticalFaultPattern) {
  // Two independent benches under the same seed and rates must drop the exact
  // same frames — the foundation of the fleet determinism guarantee. A third
  // bench under another seed shows the pattern is seed-driven, not positional.
  auto run = [](uint64_t seed) {
    FaultBench bench;
    LinkFaultConfig faults;
    faults.seed = seed;
    faults.drop_permille = 300;
    bench.medium.SetLinkFaults(faults);
    std::string pattern;
    for (int i = 0; i < 40; ++i) {
      uint64_t before = bench.radio_b.packets_received();
      bench.Send({static_cast<uint8_t>(i)});
      pattern += bench.radio_b.packets_received() > before ? 'R' : '.';
      bench.Consume();
    }
    // Statistical sanity: with p=0.3 over 40 frames, both outcomes occur.
    EXPECT_GT(bench.radio_b.packets_received(), 0u);
    EXPECT_GT(bench.radio_b.fault_counters().dropped, 0u);
    return pattern;
  };
  std::string first = run(0xFEED);
  std::string second = run(0xFEED);
  std::string other = run(0xFACE);
  EXPECT_EQ(first, second);
  EXPECT_NE(first, other);
}

// ---- SPI -----------------------------------------------------------------------------

class EchoSlave : public SpiSlaveModel {
 public:
  uint8_t Exchange(uint8_t mosi) override { return static_cast<uint8_t>(mosi ^ 0xFF); }
  void CsAsserted() override { ++selections; }
  int selections = 0;
};

TEST(SpiHw, FullDuplexTransferWithAttachedSlave) {
  Mcu mcu;
  Spi spi(&mcu.clock(), &mcu.bus(), InterruptLine(&mcu.irq(), 3), /*active-low only*/ 0b01);
  mcu.bus().AttachDevice(MemoryMap::kSpi0, &spi);
  mcu.irq().Enable(3);
  EchoSlave slave;
  spi.AttachSlave(0, &slave);

  uint8_t tx[4] = {0x00, 0x0F, 0xF0, 0xFF};
  mcu.bus().WriteBlock(MemoryMap::kRamBase, tx, 4);
  uint32_t base = MemoryMap::SlotBase(MemoryMap::kSpi0);
  mcu.bus().Write(base + SpiRegs::kCtrl, SpiRegs::Ctrl::kEnable.Set().value, 4,
                  Privilege::kPrivileged);
  mcu.bus().Write(base + SpiRegs::kDmaTxAddr, MemoryMap::kRamBase, 4, Privilege::kPrivileged);
  mcu.bus().Write(base + SpiRegs::kDmaRxAddr, MemoryMap::kRamBase + 16, 4,
                  Privilege::kPrivileged);
  mcu.bus().Write(base + SpiRegs::kLen, 4, 4, Privilege::kPrivileged);
  mcu.Tick(4 * CycleCosts::kSpiCyclesPerByte);

  uint8_t rx[4];
  mcu.bus().ReadBlock(MemoryMap::kRamBase + 16, rx, 4);
  EXPECT_EQ(rx[0], 0xFF);
  EXPECT_EQ(rx[3], 0x00);
  EXPECT_EQ(slave.selections, 1);
  EXPECT_TRUE(mcu.irq().IsPending(3));
}

TEST(SpiHw, UnsupportedPolarityIsLatentMisconfiguration) {
  Mcu mcu;
  Spi spi(&mcu.clock(), &mcu.bus(), InterruptLine(&mcu.irq(), 3), /*active-low only*/ 0b01);
  mcu.bus().AttachDevice(MemoryMap::kSpi0, &spi);
  EchoSlave slave;
  spi.AttachSlave(0, &slave);
  uint32_t base = MemoryMap::SlotBase(MemoryMap::kSpi0);
  // Request active-high CS on an active-low-only controller: the bug class Fig 3's
  // compile-time checks eliminate.
  mcu.bus().Write(base + SpiRegs::kCtrl,
                  (SpiRegs::Ctrl::kEnable.Set() + SpiRegs::Ctrl::kCsPolarity.Val(1)).value, 4,
                  Privilege::kPrivileged);
  EXPECT_TRUE(spi.polarity_config_error());

  uint8_t tx[2] = {0xAA, 0xBB};
  mcu.bus().WriteBlock(MemoryMap::kRamBase, tx, 2);
  mcu.bus().Write(base + SpiRegs::kDmaTxAddr, MemoryMap::kRamBase, 4, Privilege::kPrivileged);
  mcu.bus().Write(base + SpiRegs::kDmaRxAddr, MemoryMap::kRamBase + 8, 4,
                  Privilege::kPrivileged);
  mcu.bus().Write(base + SpiRegs::kLen, 2, 4, Privilege::kPrivileged);
  mcu.Tick(2 * CycleCosts::kSpiCyclesPerByte);
  // Device never selected: reads float high and the slave saw nothing.
  uint8_t rx[2];
  mcu.bus().ReadBlock(MemoryMap::kRamBase + 8, rx, 2);
  EXPECT_EQ(rx[0], 0xFF);
  EXPECT_EQ(slave.selections, 0);
}

// ---- Temperature sensor ---------------------------------------------------------------

TEST(TempSensorHw, ConversionTakesTimeAndTracksAmbient) {
  Mcu mcu;
  TempSensor sensor(&mcu.clock(), InterruptLine(&mcu.irq(), 9));
  mcu.bus().AttachDevice(MemoryMap::kTempSensor, &sensor);
  mcu.irq().Enable(9);
  sensor.SetAmbient(2500);
  uint32_t base = MemoryMap::SlotBase(MemoryMap::kTempSensor);

  mcu.bus().Write(base + TempRegs::kCtrl, 1, 4, Privilege::kPrivileged);
  EXPECT_FALSE(mcu.irq().IsPending(9));
  mcu.Tick(CycleCosts::kTempConversionCycles);
  EXPECT_TRUE(mcu.irq().IsPending(9));
  int32_t value =
      static_cast<int32_t>(*mcu.bus().Read(base + TempRegs::kValue, 4, Privilege::kPrivileged));
  EXPECT_NEAR(value, 2500, 25);
}

TEST(TempSensorHw, StartMidConversionIsIgnored) {
  Mcu mcu;
  TempSensor sensor(&mcu.clock(), InterruptLine(&mcu.irq(), 9));
  mcu.bus().AttachDevice(MemoryMap::kTempSensor, &sensor);
  mcu.irq().Enable(9);
  uint32_t base = MemoryMap::SlotBase(MemoryMap::kTempSensor);

  mcu.bus().Write(base + TempRegs::kCtrl, 1, 4, Privilege::kPrivileged);
  mcu.Tick(CycleCosts::kTempConversionCycles / 2);
  mcu.bus().Write(base + TempRegs::kCtrl, 1, 4, Privilege::kPrivileged);
  mcu.Tick(CycleCosts::kTempConversionCycles - CycleCosts::kTempConversionCycles / 2);
  EXPECT_TRUE(mcu.irq().IsPending(9));  // the first conversion, on time
  mcu.irq().Complete(9);
  mcu.bus().Write(base + TempRegs::kIntClr, TempRegs::Status::kDone.Set().value, 4,
                  Privilege::kPrivileged);

  mcu.Tick(2 * CycleCosts::kTempConversionCycles);
  EXPECT_FALSE(mcu.irq().IsPending(9));  // no second conversion ran
}

// ---- Fault injector IRQ storm ------------------------------------------------------------

TEST(IrqStormHw, SecondStormWhileRunningIsIgnored) {
  Mcu mcu;
  mcu.irq().Enable(2);
  mcu.irq().Enable(3);
  FaultInjector injector(&mcu, /*seed=*/1);
  injector.StartIrqStorm(2, /*period_cycles=*/100, /*count=*/3);
  injector.StartIrqStorm(3, /*period_cycles=*/10, /*count=*/50);
  for (int i = 0; i < 10; ++i) {
    mcu.Tick(100);
    EXPECT_EQ(mcu.irq().IsPending(2), i < 3) << "tick " << i;
    mcu.irq().Complete(2);
    EXPECT_FALSE(mcu.irq().IsPending(3));
  }
  EXPECT_EQ(injector.irqs_injected(), 3u);

  // Once the first storm has run out, a new one starts.
  injector.StartIrqStorm(3, /*period_cycles=*/10, /*count=*/2);
  mcu.Tick(100);
  EXPECT_EQ(injector.irqs_injected(), 5u);
  EXPECT_TRUE(mcu.irq().IsPending(3));
}

}  // namespace
}  // namespace tock
