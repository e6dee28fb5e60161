// ERA: 1
// hil::PacketRadio over the packet radio peripheral.
#ifndef TOCK_CHIP_CHIP_RADIO_H_
#define TOCK_CHIP_CHIP_RADIO_H_

#include "chip/kernel_ram.h"
#include "chip/regio.h"
#include "hw/radio.h"
#include "kernel/driver.h"
#include "kernel/hil.h"
#include "util/cells.h"

namespace tock {

class ChipRadio : public hil::PacketRadio, public InterruptService {
 public:
  ChipRadio(Mcu* mcu, uint32_t base, KernelRamAllocator* kram)
      : regs_(mcu, base),
        tx_staging_(kram->Allocate(Radio::kMaxPacket)),
        rx_staging_(kram->Allocate(Radio::kMaxPacket)) {}

  // Hardware bring-up; must run after bus attachment.
  void Init() {
    // The node address is a read-only strap the board fixed when it built the
    // radio. Bring-up reads it back: one MMIO access, part of every boot.
    regs_.Read(RadioRegs::kNodeAddr);
    regs_.WriteField(RadioRegs::kCtrl,
                     RadioRegs::Ctrl::kEnable.Set() + RadioRegs::Ctrl::kRxEnable.Set());
    regs_.Write(RadioRegs::kRxAddr, rx_staging_);
    regs_.Write(RadioRegs::kRxMaxLen, Radio::kMaxPacket);
  }

  hil::BufResult TransmitPacket(uint16_t dst, SubSliceMut buffer) override {
    if (tx_buffer_.IsSome()) {
      return hil::Refused(ErrorCode::kBusy, buffer);
    }
    uint32_t len = static_cast<uint32_t>(buffer.Size());
    if (len == 0 || len > Radio::kMaxPacket) {
      return hil::Refused(ErrorCode::kSize, buffer);
    }
    regs_.mcu()->bus().WriteBlock(tx_staging_, buffer.Active().data(), len);
    tx_buffer_.Set(buffer);
    regs_.Write(RadioRegs::kDstAddr, dst);
    regs_.Write(RadioRegs::kTxAddr, tx_staging_);
    regs_.Write(RadioRegs::kTxLen, len);
    return hil::Started();
  }

  hil::BufResult StartReceive(SubSliceMut buffer) override {
    if (rx_buffer_.IsSome()) {
      return hil::Refused(ErrorCode::kBusy, buffer);
    }
    rx_buffer_.Set(buffer);
    return hil::Started();
  }

  void SetRadioClient(hil::RadioClient* client) override { client_ = client; }

  uint16_t LocalAddress() override {
    return static_cast<uint16_t>(regs_.Read(RadioRegs::kNodeAddr));
  }

  // Dropped-on-arrival frames observed via the status register (hw keeps its own
  // count too; this one is what the kernel side saw and acknowledged).
  uint64_t rx_overruns() const { return rx_overruns_; }

  void HandleInterrupt(unsigned line) override {
    (void)line;
    uint32_t status = regs_.Read(RadioRegs::kStatus);
    regs_.Write(RadioRegs::kIntClr,
                (RadioRegs::Status::kTxDone.Set() + RadioRegs::Status::kRxDone.Set() +
                 RadioRegs::Status::kRxOverrun.Set())
                    .value);
    if (RadioRegs::Status::kRxOverrun.IsSetIn(status)) {
      ++rx_overruns_;  // a frame was dropped while the RX buffer held unread data
    }

    if (RadioRegs::Status::kTxDone.IsSetIn(status)) {
      if (auto buffer = tx_buffer_.Take()) {
        if (client_ != nullptr) {
          client_->TransmitDone(*buffer, Result<void>::Ok());
        }
      }
    }
    if (RadioRegs::Status::kRxDone.IsSetIn(status)) {
      uint32_t len = regs_.Read(RadioRegs::kRxLen);
      if (auto buffer = rx_buffer_.Take()) {
        uint32_t copy = len;
        if (copy > buffer->Size()) {
          copy = static_cast<uint32_t>(buffer->Size());
        }
        regs_.mcu()->bus().ReadBlock(rx_staging_, buffer->Active().data(), copy);
        if (client_ != nullptr) {
          client_->PacketReceived(*buffer, copy);
        }
      }
      // If no buffer was armed the packet is lost, as on real radios.
    }
  }

 private:
  RegIo regs_;
  uint32_t tx_staging_;
  uint32_t rx_staging_;
  hil::RadioClient* client_ = nullptr;
  uint64_t rx_overruns_ = 0;
  OptionalCell<SubSliceMut> tx_buffer_;
  OptionalCell<SubSliceMut> rx_buffer_;
};

}  // namespace tock

#endif  // TOCK_CHIP_CHIP_RADIO_H_
