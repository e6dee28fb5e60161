// ERA: 1
#include "hw/timer.h"

namespace tock {

uint32_t AlarmTimer::MmioRead(uint32_t offset) {
  switch (offset) {
    case AlarmRegs::kNow:
      return static_cast<uint32_t>(clock_->Now());
    case AlarmRegs::kCompare:
      return compare_.Get();
    case AlarmRegs::kCtrl:
      return ctrl_.Get();
    case AlarmRegs::kStatus:
      return status_.Get();
    default:
      return 0;
  }
}

void AlarmTimer::MmioWrite(uint32_t offset, uint32_t value) {
  switch (offset) {
    case AlarmRegs::kCompare:
      compare_.Set(value);
      if (ctrl_.IsSet(AlarmRegs::Ctrl::kEnable)) {
        Arm();
      }
      return;
    case AlarmRegs::kCtrl:
      ctrl_.Set(value);
      if (ctrl_.IsSet(AlarmRegs::Ctrl::kEnable)) {
        Arm();
      } else {
        match_.Disarm();
      }
      return;
    case AlarmRegs::kIntClr:
      status_.HwModify(FieldValue<uint32_t>{value, 0});
      return;
    default:
      return;
  }
}

void AlarmTimer::Arm() {
  // 32-bit wrapping distance from the current counter value to the compare value.
  // A compare equal to "now" fires a full wrap later, matching typical hardware.
  uint32_t now32 = static_cast<uint32_t>(clock_->Now());
  uint32_t delta = compare_.Get() - now32;
  if (delta == 0) {
    delta = UINT32_MAX;
  }
  match_.ArmAfter(delta);
}

uint32_t SysTick::MmioRead(uint32_t offset) {
  switch (offset) {
    case SysTickRegs::kCtrl:
      return enabled_ ? 1 : 0;
    case SysTickRegs::kStatus:
      return status_.Get();
    default:
      return 0;
  }
}

void SysTick::MmioWrite(uint32_t offset, uint32_t value) {
  switch (offset) {
    case SysTickRegs::kReload:
      ArmCycles(value);
      return;
    case SysTickRegs::kCtrl:
      enabled_ = (value & 1) != 0;
      if (!enabled_) {
        countdown_.Disarm();
      }
      return;
    case SysTickRegs::kIntClr:
      status_.HwModify(FieldValue<uint32_t>{value, 0});
      return;
    default:
      return;
  }
}

void SysTick::ArmCycles(uint32_t cycles) {
  status_.HwModify(SysTickRegs::Status::kExpired.Clear());
  if (!enabled_ || cycles == 0) {
    countdown_.Disarm();
    return;
  }
  countdown_.ArmAfter(cycles);
}

void SysTick::DisarmAndClear() {
  countdown_.Disarm();
  status_.HwModify(SysTickRegs::Status::kExpired.Clear());
}

bool SysTick::Expired() const { return status_.IsSet(SysTickRegs::Status::kExpired); }

}  // namespace tock
