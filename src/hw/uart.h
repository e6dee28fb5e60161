// ERA: 1
// Simulated UART with byte-at-a-time and DMA transmit/receive paths, programmed
// through MMIO registers described with the register DSL (§4.3). TX output is
// captured host-side; RX bytes are injected host-side and delivered with realistic
// per-byte pacing so drivers see genuinely asynchronous completion.
#ifndef TOCK_HW_UART_H_
#define TOCK_HW_UART_H_

#include <cstdint>
#include <deque>
#include <string>

#include "hw/costs.h"
#include "hw/interrupt.h"
#include "hw/memory_bus.h"
#include "hw/sim_clock.h"
#include "util/registers.h"

namespace tock {

// Register map (word offsets from peripheral base).
struct UartRegs {
  static constexpr uint32_t kCtrl = 0x00;
  static constexpr uint32_t kStatus = 0x04;
  static constexpr uint32_t kTxData = 0x08;
  static constexpr uint32_t kRxData = 0x0C;
  static constexpr uint32_t kDmaTxAddr = 0x10;
  static constexpr uint32_t kDmaTxLen = 0x14;  // write starts DMA TX
  static constexpr uint32_t kDmaRxAddr = 0x18;
  static constexpr uint32_t kDmaRxLen = 0x1C;  // write starts DMA RX
  static constexpr uint32_t kIntClr = 0x20;    // W1C of STATUS bits

  struct Ctrl {
    static constexpr Field<uint32_t> kTxEnable{0, 1};
    static constexpr Field<uint32_t> kRxEnable{1, 1};
  };
  struct Status {
    static constexpr Field<uint32_t> kTxIdle{0, 1};
    static constexpr Field<uint32_t> kRxAvail{1, 1};
    static constexpr Field<uint32_t> kTxDone{2, 1};
    static constexpr Field<uint32_t> kRxDone{3, 1};
  };
};

class Uart : public MmioDevice {
 public:
  Uart(SimClock* clock, MemoryBus* bus, InterruptLine irq) : bus_(bus), irq_(irq) {
    status_.HwModify(UartRegs::Status::kTxIdle.Set());
    tx_.Open<&Uart::FinishTx>(clock, this);
    rx_.Open<&Uart::ReceiveByte>(clock, this);
  }

  uint32_t MmioRead(uint32_t offset) override;
  void MmioWrite(uint32_t offset, uint32_t value) override;

  // --- Host-side test/example API ---

  // Everything the UART has transmitted since boot.
  const std::string& output() const { return output_; }

  // Queues bytes "on the wire"; they arrive paced at the simulated baud rate.
  void InjectRx(const std::string& bytes);

 private:
  void StartDmaTx(uint32_t len);
  void FinishTx();
  void StartDmaRx(uint32_t len);
  void DeliverNextRxByte();
  void ReceiveByte();

  MemoryBus* bus_;
  InterruptLine irq_;

  ReadWriteReg<uint32_t> ctrl_;
  ReadOnlyReg<uint32_t> status_;
  ReadWriteReg<uint32_t> dma_tx_addr_;
  ReadWriteReg<uint32_t> dma_rx_addr_;

  std::string output_;
  std::string tx_shift_;         // the transfer in flight, latched at its start
  std::deque<uint8_t> rx_wire_;  // injected, not yet delivered
  uint8_t rx_data_ = 0;

  // Active DMA RX transfer.
  bool dma_rx_active_ = false;
  uint32_t dma_rx_pos_ = 0;
  uint32_t dma_rx_len_ = 0;

  SimClock::Channel tx_;  // transfer done; armed exactly while kTxIdle is clear
  SimClock::Channel rx_;  // next wire byte lands
};

}  // namespace tock

#endif  // TOCK_HW_UART_H_
