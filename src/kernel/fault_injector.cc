// ERA: 6
#include "kernel/fault_injector.h"

#include "kernel/tbf.h"

namespace tock {

namespace {
bool FlipFlashBit(Mcu* mcu, uint32_t addr, uint32_t bit) {
  uint8_t byte;
  if (!mcu->bus().ReadBlock(addr + bit / 8, &byte, 1)) {
    return false;
  }
  byte ^= static_cast<uint8_t>(1u << (bit % 8));
  return mcu->bus().ProgramFlash(addr + bit / 8, &byte, 1);
}
}  // namespace

bool FaultInjector::FlipHeaderBit(Mcu* mcu, uint32_t header_addr, uint32_t bit_index) {
  if (bit_index >= TbfHeader::kHeaderSize * 8) {
    return false;
  }
  return FlipFlashBit(mcu, header_addr, bit_index);
}

bool FaultInjector::FlipSignatureBit(Mcu* mcu, uint32_t header_addr, uint32_t bit_index) {
  if (bit_index >= TbfHeader::kSignatureSize * 8) {
    return false;
  }
  TbfHeader header;
  if (!mcu->bus().ReadBlock(header_addr, reinterpret_cast<uint8_t*>(&header),
                            TbfHeader::kHeaderSize) ||
      header.magic != TbfHeader::kMagic || !header.IsSigned()) {
    return false;
  }
  uint32_t sig_addr = header_addr + TbfHeader::kHeaderSize + header.binary_size;
  return FlipFlashBit(mcu, sig_addr, bit_index);
}

void FaultInjector::StartIrqStorm(unsigned line, uint64_t period_cycles, uint32_t count) {
  if (count == 0 || storm_.armed()) {
    return;
  }
  storm_line_ = line;
  storm_period_ = period_cycles == 0 ? 1 : period_cycles;
  storm_left_ = count;
  storm_.ArmAfter(storm_period_);
}

void FaultInjector::StormTick() {
  mcu_->irq().Raise(storm_line_);
  ++irqs_injected_;
  if (--storm_left_ > 0) {
    storm_.ArmAfter(storm_period_);
  }
}

}  // namespace tock
