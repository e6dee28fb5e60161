// ERA: 1
// SPI controller with DMA transfers against host-modelled slave devices. Chip-select
// polarity is part of the controller's configuration; which polarities a given
// controller instance *can* generate is hardware-fixed and surfaced to the
// compile-time composition checks of §4.1 / Figure 3 (see board/composition.h).
#ifndef TOCK_HW_SPI_H_
#define TOCK_HW_SPI_H_

#include <cstdint>
#include <vector>

#include "hw/costs.h"
#include "hw/interrupt.h"
#include "hw/memory_bus.h"
#include "hw/sim_clock.h"
#include "util/registers.h"

namespace tock {

// Host-side model of an external SPI device (sensor, flash chip, ...).
class SpiSlaveModel {
 public:
  virtual ~SpiSlaveModel() = default;
  // Full-duplex byte exchange: receives the controller's byte, returns the slave's.
  virtual uint8_t Exchange(uint8_t mosi) = 0;
  // Chip-select edge notifications (level is the *logical* selected state).
  virtual void CsAsserted() {}
  virtual void CsDeasserted() {}
};

enum class CsPolarity : uint32_t { kActiveLow = 0, kActiveHigh = 1 };

struct SpiRegs {
  static constexpr uint32_t kCtrl = 0x00;
  static constexpr uint32_t kStatus = 0x04;
  static constexpr uint32_t kDmaTxAddr = 0x08;
  static constexpr uint32_t kDmaRxAddr = 0x0C;
  static constexpr uint32_t kLen = 0x10;  // write starts the transfer
  static constexpr uint32_t kCsSelect = 0x14;
  static constexpr uint32_t kIntClr = 0x18;

  struct Ctrl {
    static constexpr Field<uint32_t> kEnable{0, 1};
    static constexpr Field<uint32_t> kCsPolarity{1, 1};  // CsPolarity value
  };
  struct Status {
    static constexpr Field<uint32_t> kBusy{0, 1};
    static constexpr Field<uint32_t> kDone{1, 1};
  };
};

class Spi : public MmioDevice {
 public:
  static constexpr unsigned kMaxSlaves = 4;

  // `supported_polarity_mask`: bit 0 = can generate active-low CS, bit 1 =
  // active-high (mirrors real controllers where polarity support varies, §4.1).
  Spi(SimClock* clock, MemoryBus* bus, InterruptLine irq, uint32_t supported_polarity_mask)
      : bus_(bus), irq_(irq), supported_polarity_mask_(supported_polarity_mask) {
    done_.Open<&Spi::FinishTransfer>(clock, this);
  }

  uint32_t MmioRead(uint32_t offset) override;
  void MmioWrite(uint32_t offset, uint32_t value) override;

  // Host-side: attaches a slave model at a chip-select index.
  void AttachSlave(unsigned cs_index, SpiSlaveModel* slave) {
    if (cs_index < kMaxSlaves) {
      slaves_[cs_index] = slave;
    }
  }

  // True if a configuration write requested an unsupported CS polarity — the runtime
  // misbehaviour that the compile-time checks of Fig 3 exist to prevent.
  bool polarity_config_error() const { return polarity_config_error_; }

 private:
  void StartTransfer(uint32_t len);
  void FinishTransfer();

  MemoryBus* bus_;
  InterruptLine irq_;
  uint32_t supported_polarity_mask_;

  ReadWriteReg<uint32_t> ctrl_;
  ReadOnlyReg<uint32_t> status_;
  ReadWriteReg<uint32_t> dma_tx_addr_;
  ReadWriteReg<uint32_t> dma_rx_addr_;
  ReadWriteReg<uint32_t> cs_select_;

  SpiSlaveModel* slaves_[kMaxSlaves] = {};
  bool polarity_config_error_ = false;
  std::vector<uint8_t> rx_;  // the transfer in flight: bytes clocked in, and where they go
  uint32_t rx_addr_ = 0;
  SimClock::Channel done_;
};

}  // namespace tock

#endif  // TOCK_HW_SPI_H_
