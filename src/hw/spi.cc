// ERA: 1
#include "hw/spi.h"

namespace tock {

uint32_t Spi::MmioRead(uint32_t offset) {
  switch (offset) {
    case SpiRegs::kCtrl:
      return ctrl_.Get();
    case SpiRegs::kStatus:
      return status_.Get();
    case SpiRegs::kDmaTxAddr:
      return dma_tx_addr_.Get();
    case SpiRegs::kDmaRxAddr:
      return dma_rx_addr_.Get();
    case SpiRegs::kCsSelect:
      return cs_select_.Get();
    default:
      return 0;
  }
}

void Spi::MmioWrite(uint32_t offset, uint32_t value) {
  switch (offset) {
    case SpiRegs::kCtrl: {
      ctrl_.Set(value);
      uint32_t polarity = ctrl_.Read(SpiRegs::Ctrl::kCsPolarity);
      if ((supported_polarity_mask_ & (1u << polarity)) == 0) {
        // The controller cannot generate this CS level. The device will never be
        // correctly selected; record the latent misconfiguration.
        polarity_config_error_ = true;
      }
      return;
    }
    case SpiRegs::kDmaTxAddr:
      dma_tx_addr_.Set(value);
      return;
    case SpiRegs::kDmaRxAddr:
      dma_rx_addr_.Set(value);
      return;
    case SpiRegs::kLen:
      StartTransfer(value);
      return;
    case SpiRegs::kCsSelect:
      cs_select_.Set(value);
      return;
    case SpiRegs::kIntClr:
      status_.HwModify(FieldValue<uint32_t>{value, 0});
      return;
    default:
      return;
  }
}

void Spi::StartTransfer(uint32_t len) {
  if (!ctrl_.IsSet(SpiRegs::Ctrl::kEnable) || len == 0 ||
      status_.IsSet(SpiRegs::Status::kBusy)) {
    return;
  }
  status_.HwModify(SpiRegs::Status::kBusy.Set());

  unsigned cs = cs_select_.Get() % kMaxSlaves;
  SpiSlaveModel* slave = slaves_[cs];
  std::vector<uint8_t> tx(len, 0);
  bus_->ReadBlock(dma_tx_addr_.Get(), tx.data(), len);

  // A polarity the controller can't generate means the device never sees its select
  // line: the transfer clocks out but the slave doesn't respond (reads as 0xFF).
  bool selected = slave != nullptr && !polarity_config_error_;

  rx_.assign(len, 0xFF);
  if (selected) {
    slave->CsAsserted();
    for (uint32_t i = 0; i < len; ++i) {
      rx_[i] = slave->Exchange(tx[i]);
    }
    slave->CsDeasserted();
  }

  rx_addr_ = dma_rx_addr_.Get();
  done_.ArmAfter(CycleCosts::kSpiCyclesPerByte * len);
}

void Spi::FinishTransfer() {
  if (rx_addr_ != 0) {
    bus_->WriteBlock(rx_addr_, rx_.data(), static_cast<uint32_t>(rx_.size()));
  }
  status_.HwModify(SpiRegs::Status::kBusy.Clear());
  status_.HwModify(SpiRegs::Status::kDone.Set());
  irq_.Raise();
}

}  // namespace tock
