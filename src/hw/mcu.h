// ERA: 1
// The simulated microcontroller: clock, interrupt controller, MPU, memory bus, and
// the active/sleep energy accounting that underpins the duty-cycle experiments (E4).
//
// Execution model: kernel C++ code charges cycles explicitly via Tick() (at the
// documented CycleCosts); the userspace VM charges one cycle per instruction; and
// peripherals complete work through compare channels on the clock. When the kernel
// has nothing to do it calls SleepUntilInterrupt(), which fast-forwards to the next
// hardware event and books the skipped cycles as (cheap) sleep instead of (expensive)
// active time — the "asynchronous all the way down" payoff from §2.5.
#ifndef TOCK_HW_MCU_H_
#define TOCK_HW_MCU_H_

#include <algorithm>
#include <cstdint>

#include "hw/costs.h"
#include "hw/interrupt.h"
#include "hw/memory_bus.h"
#include "hw/mpu.h"
#include "hw/sim_clock.h"

namespace tock {

class Mcu {
 public:
  Mcu() : bus_(&mpu_) {}

  SimClock& clock() { return clock_; }
  InterruptController& irq() { return irq_; }
  Mpu& mpu() { return mpu_; }
  MemoryBus& bus() { return bus_; }

  // Charges `cycles` of active CPU time and advances the clock (firing any hardware
  // events that become due while the CPU is busy).
  void Tick(uint64_t cycles) {
    active_cycles_ += cycles;
    clock_.Advance(cycles);
  }

  // Enters the sleep state until an enabled interrupt is pending, or until the
  // clock reaches `limit_cycle` (whichever is first — callers running the kernel to
  // a deadline, e.g. lockstepped multi-board worlds, must not overshoot it).
  // Returns the number of cycles slept. If no hardware event will ever arrive and
  // no limit applies, returns with wedged() set — the simulation equivalent of a
  // system that would hang in WFI forever.
  uint64_t SleepUntilInterrupt(uint64_t limit_cycle = UINT64_MAX) {
    wedged_ = false;  // a fresh sleep re-evaluates; peers may have scheduled events
    if (irq_.AnyPending()) {
      return 0;
    }
    uint64_t slept = 0;
    while (!irq_.AnyPending()) {
      uint64_t next = clock_.NextEventAt();
      wedged_ = next == UINT64_MAX;
      if (next >= limit_cycle && (limit_cycle == UINT64_MAX || clock_.Now() >= limit_cycle)) {
        return slept;
      }
      uint64_t delta = std::min(next, limit_cycle) - clock_.Now();
      clock_.Advance(delta);
      slept += delta;
      sleep_cycles_ += delta;
      if (next >= limit_cycle) {
        return slept;  // reached the limit before any interrupt
      }
    }
    active_cycles_ += CycleCosts::kSleepTransition;
    clock_.Advance(CycleCosts::kSleepTransition);
    return slept;
  }

  uint64_t CyclesNow() const { return clock_.Now(); }
  uint64_t active_cycles() const { return active_cycles_; }
  uint64_t sleep_cycles() const { return sleep_cycles_; }
  bool wedged() const { return wedged_; }

  // Total energy in normalized power-model units (see PowerModel).
  double Energy() const {
    return static_cast<double>(active_cycles_) * PowerModel::kActivePowerPerCycle +
           static_cast<double>(sleep_cycles_) * PowerModel::kSleepPowerPerCycle;
  }

  // Fraction of elapsed time spent asleep (the paper's duty-cycle metric).
  double SleepFraction() const {
    uint64_t total = active_cycles_ + sleep_cycles_;
    return total == 0 ? 0.0 : static_cast<double>(sleep_cycles_) / static_cast<double>(total);
  }

  void ResetEnergyAccounting() {
    active_cycles_ = 0;
    sleep_cycles_ = 0;
  }

 private:
  SimClock clock_;
  InterruptController irq_;
  Mpu mpu_;
  MemoryBus bus_;
  uint64_t active_cycles_ = 0;
  uint64_t sleep_cycles_ = 0;
  bool wedged_ = false;
};

}  // namespace tock

#endif  // TOCK_HW_MCU_H_
