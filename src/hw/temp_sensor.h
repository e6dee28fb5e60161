// ERA: 1
// On-chip temperature sensor with asynchronous conversion — the simplest split-phase
// peripheral, used heavily by the urban-sensing examples (§2).
#ifndef TOCK_HW_TEMP_SENSOR_H_
#define TOCK_HW_TEMP_SENSOR_H_

#include <cstdint>

#include "hw/costs.h"
#include "hw/interrupt.h"
#include "hw/memory_bus.h"
#include "hw/sim_clock.h"
#include "util/registers.h"

namespace tock {

struct TempRegs {
  static constexpr uint32_t kCtrl = 0x00;    // bit0: start conversion
  static constexpr uint32_t kStatus = 0x04;  // bit0: done
  static constexpr uint32_t kIntClr = 0x08;
  static constexpr uint32_t kValue = 0x0C;  // RO: centi-degrees Celsius, signed

  struct Status {
    static constexpr Field<uint32_t> kDone{0, 1};
  };
};

class TempSensor : public MmioDevice {
 public:
  TempSensor(SimClock* clock, InterruptLine irq) : irq_(irq) {
    conversion_.Open<&TempSensor::Convert>(clock, this);
  }

  uint32_t MmioRead(uint32_t offset) override {
    switch (offset) {
      case TempRegs::kStatus:
        return status_.Get();
      case TempRegs::kValue:
        return static_cast<uint32_t>(value_centi_);
      default:
        return 0;
    }
  }

  void MmioWrite(uint32_t offset, uint32_t value) override {
    if (offset == TempRegs::kCtrl && (value & 1) != 0 && !conversion_.armed()) {  // busy: ignored
      conversion_.ArmAfter(CycleCosts::kTempConversionCycles);
    } else if (offset == TempRegs::kIntClr) {
      status_.HwModify(FieldValue<uint32_t>{value, 0});
    }
  }

  // Host-side: sets the ambient temperature in centi-degrees.
  void SetAmbient(int32_t centi_degrees) { ambient_centi_ = centi_degrees; }

 private:
  void Convert() {
    // Ambient temperature plus a deterministic pseudo-noise wobble so repeated
    // samples differ (sensing apps exercise their whole pipeline).
    ++conversions_;
    int32_t wobble = static_cast<int32_t>((conversions_ * 7919) % 41) - 20;
    value_centi_ = ambient_centi_ + wobble;
    status_.HwModify(TempRegs::Status::kDone.Set());
    irq_.Raise();
  }

  InterruptLine irq_;
  ReadOnlyReg<uint32_t> status_;
  int32_t ambient_centi_ = 2150;  // 21.5 °C
  int32_t value_centi_ = 0;
  uint64_t conversions_ = 0;
  SimClock::Channel conversion_;
};

}  // namespace tock

#endif  // TOCK_HW_TEMP_SENSOR_H_
