// ERA: 3
// 4 KiB-paged backing store for a board memory bank (flash or RAM). The point is
// fleet scale: a thousand-board deployment where most boards never touch most of
// their address space should not pay 640 KiB of host RSS per board. Pages resolve
// copy-on-write — reads hit either a fleet-shared immutable base image (boards
// flashed from the same TBF set share flash pages until OTA/ProgramFlash diverges
// them), a static fill page (0x00 for RAM, 0xFF for erased flash), or a private
// page materialized by the first write.
//
// Determinism: paging is invisible to the simulation. Every read returns exactly
// the bytes an eager vector would hold, every write lands at the same offset; the
// only observable difference is the host-only `mem.resident_bytes` gauge.
#ifndef TOCK_HW_PAGED_MEM_H_
#define TOCK_HW_PAGED_MEM_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

namespace tock {

class PagedBank {
 public:
  static constexpr uint32_t kPageShift = 12;
  static constexpr uint32_t kPageSize = 1u << kPageShift;  // 4 KiB
  static constexpr uint32_t kPageMask = kPageSize - 1;

  // `size` must be a multiple of kPageSize; `fill` is the erased/background byte
  // (0xFF for flash, 0x00 for RAM). Nothing is committed until the first write.
  PagedBank(uint32_t size, uint8_t fill);

  // Bulk accessors; offsets are bank-relative and must be in bounds (the bus
  // checks ranges before calling). The single-page case is the hot path — all
  // 1/2/4-byte VM accesses land here unless they straddle a page line.
  void Read(uint32_t off, void* dst, uint32_t len) const {
    const uint32_t page = off >> kPageShift;
    if (((off + len - 1) >> kPageShift) == page) {
      std::memcpy(dst, read_ptrs_[page] + (off & kPageMask), len);
      return;
    }
    ReadSlow(off, static_cast<uint8_t*>(dst), len);
  }
  void Write(uint32_t off, const void* src, uint32_t len) {
    const uint32_t page = off >> kPageShift;
    if (((off + len - 1) >> kPageShift) == page) {
      uint8_t* dst = write_ptrs_[page];
      if (dst == nullptr) {
        dst = Materialize(page);
      }
      std::memcpy(dst + (off & kPageMask), src, len);
      return;
    }
    WriteSlow(off, static_cast<const uint8_t*>(src), len);
  }

  // Borrowed-pointer accessors for callers that need a real span (the kernel's
  // zero-copy translation fast path). A range crossing a page line returns
  // nullptr — callers must then bounce through Read/Write.
  const uint8_t* ContiguousRead(uint32_t off, uint32_t len) const {
    const uint32_t page = off >> kPageShift;
    if (len != 0 && ((off + len - 1) >> kPageShift) != page) {
      return nullptr;
    }
    return read_ptrs_[page] + (off & kPageMask);
  }
  uint8_t* ContiguousWrite(uint32_t off, uint32_t len) {
    const uint32_t page = off >> kPageShift;
    if (len != 0 && ((off + len - 1) >> kPageShift) != page) {
      return nullptr;
    }
    uint8_t* dst = write_ptrs_[page];
    if (dst == nullptr) {
      dst = Materialize(page);
    }
    return dst + (off & kPageMask);
  }

  // Shares an immutable base image across boards: pages that have not diverged
  // (no private copy yet) read straight from `base`. The image must be exactly
  // bank-sized. Writes after adoption materialize private copies — the base is
  // never mutated.
  void AdoptBase(std::shared_ptr<const std::vector<uint8_t>> base);

  // Resets [off, off+len) to its background contents (base image if adopted,
  // fill byte otherwise). Fully covered private pages are released back to the
  // shared/fill backing — this is how a process restart returns its RAM quota
  // to the fleet. Partially covered pages are rewritten in place.
  void ResetRange(uint32_t off, uint32_t len);

  // Host memory actually committed to this bank: its private (diverged) pages.
  // Shared base-image and fill pages are free riders and intentionally not
  // counted per board.
  uint64_t resident_bytes() const {
    return static_cast<uint64_t>(resident_pages_) * kPageSize;
  }

  uint32_t size() const { return size_; }

 private:
  // Copies the page's current backing into a freshly allocated private page and
  // repoints both pointer tables at it. Out-of-line: the COW miss is cold.
  uint8_t* Materialize(uint32_t page);
  void ReadSlow(uint32_t off, uint8_t* dst, uint32_t len) const;
  void WriteSlow(uint32_t off, const uint8_t* src, uint32_t len);
  // The page's non-private backing: base image if adopted, else the fill page.
  const uint8_t* BackingPage(uint32_t page) const;
  static const uint8_t* FillPage(uint8_t fill);

  uint32_t size_;
  uint8_t fill_;
  uint32_t resident_pages_ = 0;
  // Per-page read/write pointers. read_ptrs_[p] is always valid (private page,
  // base image, or shared fill page); write_ptrs_[p] is null until the page has
  // a private copy.
  std::vector<const uint8_t*> read_ptrs_;
  std::vector<uint8_t*> write_ptrs_;
  std::vector<std::unique_ptr<uint8_t[]>> private_pages_;  // owners of private pages
  std::shared_ptr<const std::vector<uint8_t>> base_;       // keeps base alive
};

}  // namespace tock

#endif  // TOCK_HW_PAGED_MEM_H_
