// ERA: 3
// Simulated cryptographic accelerators (§3.4): AES-128 and SHA-256/HMAC engines with
// DMA and interrupt-driven completion. "Cryptography implemented in hardware
// peripherals is asynchronous" — the key architectural fact that forced Tock's
// process loading into a state machine — is faithfully modelled: START returns
// immediately and a completion interrupt arrives after a size-dependent latency.
#ifndef TOCK_HW_CRYPTO_ACCEL_H_
#define TOCK_HW_CRYPTO_ACCEL_H_

#include <cstdint>
#include <vector>

#include "hw/costs.h"
#include "hw/interrupt.h"
#include "hw/memory_bus.h"
#include "hw/sim_clock.h"
#include "util/registers.h"

namespace tock {

struct AesRegs {
  static constexpr uint32_t kCtrl = 0x00;
  static constexpr uint32_t kStatus = 0x04;
  static constexpr uint32_t kIntClr = 0x08;
  static constexpr uint32_t kKey0 = 0x10;  // ..0x1C: 128-bit key
  static constexpr uint32_t kCtr0 = 0x20;  // ..0x2C: counter block / IV
  static constexpr uint32_t kSrc = 0x30;
  static constexpr uint32_t kDst = 0x34;
  static constexpr uint32_t kLen = 0x38;

  struct Ctrl {
    static constexpr Field<uint32_t> kStart{0, 1};
    static constexpr Field<uint32_t> kMode{1, 1};     // 0 = ECB, 1 = CTR
    static constexpr Field<uint32_t> kDecrypt{2, 1};  // ECB only
  };
  struct Status {
    static constexpr Field<uint32_t> kBusy{0, 1};
    static constexpr Field<uint32_t> kDone{1, 1};
    static constexpr Field<uint32_t> kError{2, 1};  // bad length / DMA fault
  };
};

class AesAccel : public MmioDevice {
 public:
  AesAccel(SimClock* clock, MemoryBus* bus, InterruptLine irq) : bus_(bus), irq_(irq) {
    done_.Open<&AesAccel::Finish>(clock, this);
  }

  uint32_t MmioRead(uint32_t offset) override;
  void MmioWrite(uint32_t offset, uint32_t value) override;

 private:
  void Start();
  void Finish();

  MemoryBus* bus_;
  InterruptLine irq_;
  ReadWriteReg<uint32_t> ctrl_;
  ReadOnlyReg<uint32_t> status_;
  uint32_t key_[4] = {};
  uint32_t ctr_[4] = {};
  uint32_t src_ = 0;
  uint32_t dst_ = 0;
  uint32_t len_ = 0;
  std::vector<uint8_t> result_;  // written to dst_ at completion
  SimClock::Channel done_;
};

struct ShaRegs {
  static constexpr uint32_t kCtrl = 0x00;
  static constexpr uint32_t kStatus = 0x04;
  static constexpr uint32_t kIntClr = 0x08;
  static constexpr uint32_t kSrc = 0x0C;
  static constexpr uint32_t kLen = 0x10;
  static constexpr uint32_t kDigest0 = 0x20;  // ..0x3C RO: 256-bit result
  static constexpr uint32_t kKey0 = 0x40;     // ..0x5C: 256-bit HMAC key

  struct Ctrl {
    static constexpr Field<uint32_t> kStart{0, 1};
    static constexpr Field<uint32_t> kMode{1, 1};  // 0 = SHA-256, 1 = HMAC-SHA256
  };
  struct Status {
    static constexpr Field<uint32_t> kBusy{0, 1};
    static constexpr Field<uint32_t> kDone{1, 1};
    static constexpr Field<uint32_t> kError{2, 1};
  };
};

class ShaAccel : public MmioDevice {
 public:
  ShaAccel(SimClock* clock, MemoryBus* bus, InterruptLine irq) : bus_(bus), irq_(irq) {
    done_.Open<&ShaAccel::Finish>(clock, this);
  }

  uint32_t MmioRead(uint32_t offset) override;
  void MmioWrite(uint32_t offset, uint32_t value) override;

 private:
  void Start();
  void Finish();

  MemoryBus* bus_;
  InterruptLine irq_;
  ReadWriteReg<uint32_t> ctrl_;
  ReadOnlyReg<uint32_t> status_;
  uint32_t src_ = 0;
  uint32_t len_ = 0;
  uint32_t digest_[8] = {};
  uint32_t key_[8] = {};
  uint32_t result_[8] = {};  // becomes digest_ at completion
  SimClock::Channel done_;
};

}  // namespace tock

#endif  // TOCK_HW_CRYPTO_ACCEL_H_
