// ERA: 1
// Entropy peripheral: deterministic xorshift32 behind the asynchronous
// start/ready/read interface of a real TRNG (entropy takes time to gather).
#ifndef TOCK_HW_RNG_H_
#define TOCK_HW_RNG_H_

#include <cstdint>

#include "hw/costs.h"
#include "hw/interrupt.h"
#include "hw/memory_bus.h"
#include "hw/sim_clock.h"
#include "util/registers.h"

namespace tock {

struct RngRegs {
  static constexpr uint32_t kCtrl = 0x00;    // bit0: start gathering one word
  static constexpr uint32_t kStatus = 0x04;  // bit0: ready
  static constexpr uint32_t kData = 0x08;    // RO: reading clears ready
  static constexpr uint32_t kIntClr = 0x0C;

  struct Status {
    static constexpr Field<uint32_t> kReady{0, 1};
  };
};

class Rng : public MmioDevice {
 public:
  Rng(SimClock* clock, InterruptLine irq, uint32_t seed)
      : irq_(irq), state_(seed == 0 ? 0xdeadbeef : seed) {
    gather_.Open<&Rng::Ready>(clock, this);
  }

  uint32_t MmioRead(uint32_t offset) override {
    switch (offset) {
      case RngRegs::kStatus:
        return status_.Get();
      case RngRegs::kData:
        status_.HwModify(RngRegs::Status::kReady.Clear());
        return data_;
      default:
        return 0;
    }
  }

  void MmioWrite(uint32_t offset, uint32_t value) override {
    if (offset == RngRegs::kCtrl && (value & 1) != 0 && !gather_.armed()) {  // busy: ignored
      gather_.ArmAfter(CycleCosts::kRngCyclesPerWord);
    } else if (offset == RngRegs::kIntClr) {
      status_.HwModify(FieldValue<uint32_t>{value, 0});
    }
  }

 private:
  void Ready() {
    data_ = NextWord();
    status_.HwModify(RngRegs::Status::kReady.Set());
    irq_.Raise();
  }

  uint32_t NextWord() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 17;
    state_ ^= state_ << 5;
    return state_;
  }

  InterruptLine irq_;
  ReadOnlyReg<uint32_t> status_;
  uint32_t data_ = 0;
  uint32_t state_;
  SimClock::Channel gather_;
};

}  // namespace tock

#endif  // TOCK_HW_RNG_H_
