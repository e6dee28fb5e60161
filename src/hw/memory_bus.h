// ERA: 1
// The MCU's memory bus: routes loads and stores to flash, RAM, or MMIO peripherals,
// and enforces the MPU on unprivileged accesses. Every memory access made by the
// simulated userspace VM flows through CheckedRead/CheckedWrite, which is what makes
// process isolation (§2.3) *actually enforced* in this reproduction rather than
// assumed.
//
// Backing storage is 4 KiB-paged copy-on-write (hw/paged_mem.h): flash pages can
// resolve from a fleet-shared immutable base image, RAM pages are zero-backed until
// first write. Paging is invisible to the simulation — only the host-side
// resident_bytes() gauge can tell the difference.
#ifndef TOCK_HW_MEMORY_BUS_H_
#define TOCK_HW_MEMORY_BUS_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "hw/memory_map.h"
#include "hw/mpu.h"
#include "hw/paged_mem.h"

namespace tock {

// A peripheral's register-bank interface. Offsets are byte offsets from the
// peripheral's base; accesses are whole 32-bit words (the simulated peripherals, like
// most real ones, only decode word accesses).
class MmioDevice {
 public:
  virtual ~MmioDevice() = default;
  virtual uint32_t MmioRead(uint32_t offset) = 0;
  virtual void MmioWrite(uint32_t offset, uint32_t value) = 0;
};

enum class Privilege { kPrivileged, kUnprivileged };

// Notified after any successful ProgramFlash — the single modeled flash-write path
// (flash controller, app installer, fault-injected bit flips). The kernel uses it to
// invalidate predecoded-instruction caches covering the programmed range.
class FlashWriteObserver {
 public:
  virtual ~FlashWriteObserver() = default;
  virtual void OnFlashProgrammed(uint32_t addr, uint32_t len) = 0;
};

enum class BusFaultKind {
  kNone,
  kUnmapped,       // no memory or device at this address
  kMpuViolation,   // unprivileged access denied by the MPU
  kFlashWrite,     // direct store to flash (must go through the flash controller)
  kUnalignedMmio,  // MMIO access not word-sized/word-aligned
};

struct BusFault {
  BusFaultKind kind = BusFaultKind::kNone;
  uint32_t addr = 0;
  AccessType access = AccessType::kRead;
};

class MemoryBus {
 public:
  explicit MemoryBus(Mpu* mpu)
      : mpu_(mpu), flash_(MemoryMap::kFlashSize, 0xFF), ram_(MemoryMap::kRamSize, 0x00) {}

  // Registers `device` at the given peripheral slot.
  void AttachDevice(MemoryMap::Slot slot, MmioDevice* device);

  // Load of `size` (1, 2 or 4) bytes, little-endian. Unprivileged accesses are
  // checked against the MPU; nullopt => fault, details in last_fault().
  std::optional<uint32_t> Read(uint32_t addr, unsigned size, Privilege priv);

  // Store of `size` bytes. Same checking rules as Read.
  bool Write(uint32_t addr, uint32_t value, unsigned size, Privilege priv);

  // Instruction fetch: a read that must also pass an MPU execute check when
  // unprivileged.
  std::optional<uint32_t> Fetch(uint32_t addr, Privilege priv);

  // DMA-style block accessors used by peripherals and by the kernel's process-memory
  // translation layer. Privileged: they bypass the MPU (as bus-master DMA does on
  // real parts). Return false if the range leaves mapped RAM/flash.
  bool ReadBlock(uint32_t addr, uint8_t* out, uint32_t len);
  bool WriteBlock(uint32_t addr, const uint8_t* data, uint32_t len);

  // TRUSTED-BEGIN(flash programming backdoor): only the flash controller peripheral
  // may write flash contents; it does so through this method after modelling the
  // program/erase latency.
  bool ProgramFlash(uint32_t addr, const uint8_t* data, uint32_t len);
  // Host-side raw flash patch that deliberately bypasses the flash-write observer
  // (no decode-cache invalidation). Test fixtures use it to plant stale bytes under
  // a cache and prove the *other* invalidation paths catch them.
  bool FlashWriteRaw(uint32_t addr, const uint8_t* data, uint32_t len);
  // TRUSTED-END

  // Shares an immutable flash base image across a fleet: boards flashed from the
  // same TBF set keep COW references into one copy until OTA/ProgramFlash diverges
  // them. Must be exactly kFlashSize bytes. Call before the board runs.
  void AdoptFlashBase(std::shared_ptr<const std::vector<uint8_t>> image) {
    flash_.AdoptBase(std::move(image));
  }

  // Resets a RAM range to zeros, releasing fully covered private pages back to
  // the shared backing. Process restart uses this to return the quota's pages.
  // Returns false if the range leaves RAM.
  bool ResetRam(uint32_t addr, uint32_t len);

  // Borrowed-pointer accessors for the kernel's zero-copy translation fast path.
  // Valid only while no other bus mutation happens; nullptr when the range spans
  // a 4 KiB page line (callers bounce via ReadBlock/WriteBlock) or leaves mapped
  // memory.
  uint8_t* RamWritePtr(uint32_t addr, uint32_t len);
  const uint8_t* MemReadPtr(uint32_t addr, uint32_t len);

  // At most one observer (the kernel); nullptr detaches.
  void set_flash_observer(FlashWriteObserver* observer) { flash_observer_ = observer; }

  const BusFault& last_fault() const { return last_fault_; }

  Mpu* mpu() { return mpu_; }

  // Host memory committed to this board's flash+RAM: private pages only (shared
  // base-image and fill pages ride free).
  uint64_t resident_bytes() const {
    return flash_.resident_bytes() + ram_.resident_bytes();
  }

  // Counters for the MMIO-cost experiments.
  uint64_t mmio_accesses() const { return mmio_accesses_; }

 private:
  bool InRam(uint32_t addr, uint32_t len) const {
    return addr >= MemoryMap::kRamBase &&
           static_cast<uint64_t>(addr) + len <= static_cast<uint64_t>(MemoryMap::kRamBase) + MemoryMap::kRamSize;
  }
  bool InFlash(uint32_t addr, uint32_t len) const {
    return static_cast<uint64_t>(addr) + len <= MemoryMap::kFlashBase + MemoryMap::kFlashSize;
  }

  MmioDevice* DeviceAt(uint32_t addr, uint32_t* offset_out);

  bool Fault(BusFaultKind kind, uint32_t addr, AccessType access) {
    last_fault_ = BusFault{kind, addr, access};
    return false;
  }

  Mpu* mpu_;
  PagedBank flash_;
  PagedBank ram_;
  MmioDevice* devices_[MemoryMap::kNumSlots] = {};
  FlashWriteObserver* flash_observer_ = nullptr;
  BusFault last_fault_;
  uint64_t mmio_accesses_ = 0;
};

}  // namespace tock

#endif  // TOCK_HW_MEMORY_BUS_H_
