// ERA: 1
// Memory protection unit model (§2.3): single address space, no translation, a small
// number of regions with read/write/execute permissions that constrain *unprivileged*
// accesses only. The kernel reprograms regions on every context switch; each region
// write costs CycleCosts::kMpuRegionConfig (charged by the caller).
//
// Simplification vs. Cortex-M PMSAv7: regions may have arbitrary base/size rather
// than power-of-two alignment. The paper's claims depend on the *presence and cost*
// of reprogrammable protection, not on alignment arithmetic.
#ifndef TOCK_HW_MPU_H_
#define TOCK_HW_MPU_H_

#include <array>
#include <cstdint>

namespace tock {

enum class AccessType { kRead, kWrite, kExecute };

struct MpuRegionConfig {
  uint32_t base = 0;
  uint32_t size = 0;
  bool read = false;
  bool write = false;
  bool execute = false;
  bool enabled = false;
};

class Mpu {
 public:
  static constexpr unsigned kNumRegions = 8;

  // Programs one region. Returns false for an out-of-range region index.
  bool ConfigureRegion(unsigned index, const MpuRegionConfig& config) {
    if (index >= kNumRegions) {
      return false;
    }
    regions_[index] = config;
    ++config_writes_;
    return true;
  }

  void DisableRegion(unsigned index) {
    if (index < kNumRegions) {
      regions_[index].enabled = false;
      ++config_writes_;
    }
  }

  // Checks an unprivileged access of `size` bytes at `addr`. The whole access must
  // fall inside a single enabled region granting the permission; regions are
  // first-match (lower index wins), adequate because the kernel never programs
  // overlapping regions for one process.
  bool CheckAccess(uint32_t addr, uint32_t size, AccessType type) const {
    for (const MpuRegionConfig& r : regions_) {
      if (!r.enabled) {
        continue;
      }
      uint64_t end = static_cast<uint64_t>(addr) + size;
      if (addr < r.base || end > static_cast<uint64_t>(r.base) + r.size) {
        continue;
      }
      switch (type) {
        case AccessType::kRead:
          return r.read;
        case AccessType::kWrite:
          return r.write;
        case AccessType::kExecute:
          return r.execute;
      }
    }
    return false;
  }

  // Total region-register writes since boot; the context-switch cost experiments (E2)
  // read this to attribute MPU reprogramming cost.
  uint64_t config_writes() const { return config_writes_; }

 private:
  std::array<MpuRegionConfig, kNumRegions> regions_{};
  uint64_t config_writes_ = 0;
};

}  // namespace tock

#endif  // TOCK_HW_MPU_H_
