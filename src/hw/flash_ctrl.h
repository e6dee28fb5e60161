// ERA: 3
// Flash controller: the only path by which flash contents change. Program/erase are
// asynchronous page operations with realistic (very long) latencies, which is why
// storage drivers above it must be split-phase (§2.1's file-system example).
#ifndef TOCK_HW_FLASH_CTRL_H_
#define TOCK_HW_FLASH_CTRL_H_

#include <cstdint>
#include <vector>

#include "hw/costs.h"
#include "hw/interrupt.h"
#include "hw/memory_bus.h"
#include "hw/sim_clock.h"
#include "util/registers.h"

namespace tock {

struct FlashRegs {
  static constexpr uint32_t kCtrl = 0x00;
  static constexpr uint32_t kStatus = 0x04;
  static constexpr uint32_t kIntClr = 0x08;
  static constexpr uint32_t kDstAddr = 0x0C;  // flash byte address (page aligned)
  static constexpr uint32_t kSrcAddr = 0x10;  // RAM source for program
  static constexpr uint32_t kLen = 0x14;

  static constexpr uint32_t kPageSize = 512;

  struct Ctrl {
    static constexpr Field<uint32_t> kProgram{0, 1};
    static constexpr Field<uint32_t> kErase{1, 1};
  };
  struct Status {
    static constexpr Field<uint32_t> kBusy{0, 1};
    static constexpr Field<uint32_t> kDone{1, 1};
    static constexpr Field<uint32_t> kError{2, 1};
  };
};

class FlashController : public MmioDevice {
 public:
  FlashController(SimClock* clock, MemoryBus* bus, InterruptLine irq) : bus_(bus), irq_(irq) {
    done_.Open<&FlashController::Finish>(clock, this);
  }

  uint32_t MmioRead(uint32_t offset) override {
    switch (offset) {
      case FlashRegs::kStatus:
        return status_.Get();
      case FlashRegs::kDstAddr:
        return dst_;
      case FlashRegs::kSrcAddr:
        return src_;
      case FlashRegs::kLen:
        return len_;
      default:
        return 0;
    }
  }

  void MmioWrite(uint32_t offset, uint32_t value) override {
    switch (offset) {
      case FlashRegs::kCtrl:
        if ((value & FlashRegs::Ctrl::kProgram.Mask()) != 0) {
          Start(/*erase=*/false);
        } else if ((value & FlashRegs::Ctrl::kErase.Mask()) != 0) {
          Start(/*erase=*/true);
        }
        return;
      case FlashRegs::kIntClr:
        status_.HwModify(FieldValue<uint32_t>{value, 0});
        return;
      case FlashRegs::kDstAddr:
        dst_ = value;
        return;
      case FlashRegs::kSrcAddr:
        src_ = value;
        return;
      case FlashRegs::kLen:
        len_ = value;
        return;
      default:
        return;
    }
  }

 private:
  // The data is latched at the start, the destination is read at completion.
  void Start(bool erase) {
    if (status_.IsSet(FlashRegs::Status::kBusy)) {
      return;
    }
    if (erase) {
      pending_.assign(FlashRegs::kPageSize, 0xFF);
    } else {
      pending_.resize(len_);
      if (len_ == 0 || !bus_->ReadBlock(src_, pending_.data(), len_)) {
        Complete(false);
        return;
      }
    }
    erase_ = erase;
    status_.HwModify(FlashRegs::Status::kBusy.Set());
    uint64_t pages = (pending_.size() + FlashRegs::kPageSize - 1) / FlashRegs::kPageSize;
    done_.ArmAfter(pages * CycleCosts::kFlashWriteCyclesPerPage);
  }

  void Finish() {
    uint32_t dst = erase_ ? dst_ & ~(FlashRegs::kPageSize - 1) : dst_;
    Complete(bus_->ProgramFlash(dst, pending_.data(), static_cast<uint32_t>(pending_.size())));
  }

  void Complete(bool ok) {
    status_.HwModify(FlashRegs::Status::kBusy.Clear());
    status_.HwModify(ok ? FlashRegs::Status::kDone.Set()
                        : FlashRegs::Status::kError.Set() + FlashRegs::Status::kDone.Set());
    irq_.Raise();
  }

  MemoryBus* bus_;
  InterruptLine irq_;
  ReadOnlyReg<uint32_t> status_;
  uint32_t dst_ = 0;
  uint32_t src_ = 0;
  uint32_t len_ = 0;
  std::vector<uint8_t> pending_;  // program data, or a page of 0xFF to erase
  bool erase_ = false;
  SimClock::Channel done_;
};

}  // namespace tock

#endif  // TOCK_HW_FLASH_CTRL_H_
