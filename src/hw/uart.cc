// ERA: 1
#include "hw/uart.h"

namespace tock {

uint32_t Uart::MmioRead(uint32_t offset) {
  switch (offset) {
    case UartRegs::kCtrl:
      return ctrl_.Get();
    case UartRegs::kStatus:
      return status_.Get();
    case UartRegs::kRxData:
      status_.HwModify(UartRegs::Status::kRxAvail.Clear());
      return rx_data_;
    case UartRegs::kDmaTxAddr:
      return dma_tx_addr_.Get();
    case UartRegs::kDmaRxAddr:
      return dma_rx_addr_.Get();
    default:
      return 0;
  }
}

void Uart::MmioWrite(uint32_t offset, uint32_t value) {
  switch (offset) {
    case UartRegs::kCtrl:
      ctrl_.Set(value);
      if (ctrl_.IsSet(UartRegs::Ctrl::kRxEnable) && !rx_wire_.empty()) {
        DeliverNextRxByte();
      }
      return;
    case UartRegs::kTxData:  // one transfer in flight: ignored while TX is busy
      if (ctrl_.IsSet(UartRegs::Ctrl::kTxEnable) && !tx_.armed()) {
        status_.HwModify(UartRegs::Status::kTxIdle.Clear());
        tx_shift_.assign(1, static_cast<char>(value));
        tx_.ArmAfter(CycleCosts::kUartCyclesPerByte);
      }
      return;
    case UartRegs::kDmaTxAddr:
      dma_tx_addr_.Set(value);
      return;
    case UartRegs::kDmaTxLen:
      StartDmaTx(value);
      return;
    case UartRegs::kDmaRxAddr:
      dma_rx_addr_.Set(value);
      return;
    case UartRegs::kDmaRxLen:
      StartDmaRx(value);
      return;
    case UartRegs::kIntClr:
      status_.HwModify(FieldValue<uint32_t>{value, 0});
      return;
    default:
      return;
  }
}

void Uart::StartDmaTx(uint32_t len) {
  if (!ctrl_.IsSet(UartRegs::Ctrl::kTxEnable) || tx_.armed() || len == 0) {
    return;
  }
  // DMA: latch the buffer contents at transfer start (the bus master reads ahead of
  // the shift register; close enough for the completion-timing behaviour we model).
  tx_shift_.resize(len);
  if (!bus_->ReadBlock(dma_tx_addr_.Get(), reinterpret_cast<uint8_t*>(tx_shift_.data()), len)) {
    // Bad DMA pointer: complete immediately with nothing sent. Real hardware would
    // bus-fault the DMA engine; drivers must have validated the buffer.
    tx_shift_.clear();
    FinishTx();
    return;
  }
  status_.HwModify(UartRegs::Status::kTxIdle.Clear());
  tx_.ArmAfter(CycleCosts::kUartCyclesPerByte * len);
}

void Uart::FinishTx() {
  output_ += tx_shift_;
  status_.HwModify(UartRegs::Status::kTxIdle.Set());
  status_.HwModify(UartRegs::Status::kTxDone.Set());
  irq_.Raise();
}

void Uart::StartDmaRx(uint32_t len) {
  if (len == 0) {
    return;
  }
  dma_rx_active_ = true;
  dma_rx_pos_ = 0;
  dma_rx_len_ = len;
  if (!rx_wire_.empty()) {
    DeliverNextRxByte();
  }
}

void Uart::InjectRx(const std::string& bytes) {
  for (char c : bytes) {
    rx_wire_.push_back(static_cast<uint8_t>(c));
  }
  if (ctrl_.IsSet(UartRegs::Ctrl::kRxEnable) || dma_rx_active_) {
    DeliverNextRxByte();
  }
}

void Uart::DeliverNextRxByte() {
  if (!rx_.armed() && !rx_wire_.empty()) {
    rx_.ArmAfter(CycleCosts::kUartCyclesPerByte);
  }
}

void Uart::ReceiveByte() {
  if (rx_wire_.empty()) {
    return;
  }
  uint8_t byte = rx_wire_.front();
  rx_wire_.pop_front();
  if (dma_rx_active_) {
    bus_->WriteBlock(dma_rx_addr_.Get() + dma_rx_pos_, &byte, 1);
    if (++dma_rx_pos_ == dma_rx_len_) {
      dma_rx_active_ = false;
      status_.HwModify(UartRegs::Status::kRxDone.Set());
      irq_.Raise();
    }
  } else {
    rx_data_ = byte;
    status_.HwModify(UartRegs::Status::kRxAvail.Set());
    irq_.Raise();
  }
  DeliverNextRxByte();
}

}  // namespace tock
