// ERA: 1
// Hardware timers: a free-running 32-bit alarm/compare timer (the substrate under the
// virtual alarm mux, §5.4) and a SysTick-style countdown timer the kernel uses to
// preempt userspace processes (§2.3).
#ifndef TOCK_HW_TIMER_H_
#define TOCK_HW_TIMER_H_

#include <cstdint>

#include "hw/interrupt.h"
#include "hw/memory_bus.h"
#include "hw/sim_clock.h"
#include "util/registers.h"

namespace tock {

// Free-running counter (truncated clock cycles) with a compare register. Raises its
// interrupt when the counter passes COMPARE while enabled. Handles 32-bit wraparound
// the way real counters do: the match is "counter reaches compare value", up to one
// full wrap in the future.
struct AlarmRegs {
  static constexpr uint32_t kNow = 0x00;      // RO: current counter value
  static constexpr uint32_t kCompare = 0x04;  // RW: match value
  static constexpr uint32_t kCtrl = 0x08;     // bit0: enable
  static constexpr uint32_t kStatus = 0x0C;   // bit0: fired (latched)
  static constexpr uint32_t kIntClr = 0x10;   // W1C

  struct Ctrl {
    static constexpr Field<uint32_t> kEnable{0, 1};
  };
  struct Status {
    static constexpr Field<uint32_t> kFired{0, 1};
  };
};

class AlarmTimer : public MmioDevice {
 public:
  AlarmTimer(SimClock* clock, InterruptLine irq) : clock_(clock), irq_(irq) {
    match_.Open<&AlarmTimer::Fire>(clock, this);
  }

  uint32_t MmioRead(uint32_t offset) override;
  void MmioWrite(uint32_t offset, uint32_t value) override;

 private:
  void Arm();
  void Fire() {
    status_.HwModify(AlarmRegs::Status::kFired.Set());
    irq_.Raise();
  }

  SimClock* clock_;
  InterruptLine irq_;
  ReadWriteReg<uint32_t> compare_;
  ReadWriteReg<uint32_t> ctrl_;
  ReadOnlyReg<uint32_t> status_;
  SimClock::Channel match_;
};

// Countdown timer for preemption. Writing RELOAD arms it; it raises its interrupt
// `reload` cycles later unless re-armed or disabled first.
struct SysTickRegs {
  static constexpr uint32_t kReload = 0x00;  // write arms the countdown
  static constexpr uint32_t kCtrl = 0x04;    // bit0: enable
  static constexpr uint32_t kStatus = 0x08;  // bit0: expired (latched)
  static constexpr uint32_t kIntClr = 0x0C;  // W1C

  struct Ctrl {
    static constexpr Field<uint32_t> kEnable{0, 1};
  };
  struct Status {
    static constexpr Field<uint32_t> kExpired{0, 1};
  };
};

class SysTick : public MmioDevice {
 public:
  SysTick(SimClock* clock, InterruptLine irq) : irq_(irq) {
    countdown_.Open<&SysTick::Expire>(clock, this);
  }

  uint32_t MmioRead(uint32_t offset) override;
  void MmioWrite(uint32_t offset, uint32_t value) override;

  // Convenience for the kernel scheduler (which owns this device directly rather
  // than going through the bus — it is core, trusted code).
  void ArmCycles(uint32_t cycles);
  void DisarmAndClear();
  bool Expired() const;

 private:
  void Expire() {
    status_.HwModify(SysTickRegs::Status::kExpired.Set());
    irq_.Raise();
  }

  InterruptLine irq_;
  ReadOnlyReg<uint32_t> status_;
  bool enabled_ = true;
  SimClock::Channel countdown_;
};

}  // namespace tock

#endif  // TOCK_HW_TIMER_H_
