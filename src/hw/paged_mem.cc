// ERA: 3
#include "hw/paged_mem.h"

#include <cassert>
#include <cstring>

namespace tock {

PagedBank::PagedBank(uint32_t size, uint8_t fill) : size_(size), fill_(fill) {
  assert(size != 0 && (size & kPageMask) == 0);
  const uint32_t pages = size >> kPageShift;
  read_ptrs_.assign(pages, FillPage(fill));
  write_ptrs_.assign(pages, nullptr);
  private_pages_.resize(pages);
}

const uint8_t* PagedBank::FillPage(uint8_t fill) {
  // Shared immutable background pages. Only the two fills the memory map uses
  // exist (erased flash reads 0xFF, fresh RAM reads 0x00).
  static const uint8_t kZeroPage[kPageSize] = {};
  struct FfPage {
    uint8_t bytes[kPageSize];
    FfPage() { std::memset(bytes, 0xFF, sizeof(bytes)); }
  };
  static const FfPage kFfPage;
  if (fill == 0x00) {
    return kZeroPage;
  }
  assert(fill == 0xFF);
  return kFfPage.bytes;
}

const uint8_t* PagedBank::BackingPage(uint32_t page) const {
  if (base_ != nullptr) {
    return base_->data() + (static_cast<size_t>(page) << kPageShift);
  }
  return FillPage(fill_);
}

uint8_t* PagedBank::Materialize(uint32_t page) {
  auto owned = std::make_unique<uint8_t[]>(kPageSize);
  std::memcpy(owned.get(), read_ptrs_[page], kPageSize);
  uint8_t* ptr = owned.get();
  private_pages_[page] = std::move(owned);
  read_ptrs_[page] = ptr;
  write_ptrs_[page] = ptr;
  ++resident_pages_;
  return ptr;
}

void PagedBank::ReadSlow(uint32_t off, uint8_t* dst, uint32_t len) const {
  while (len > 0) {
    const uint32_t page = off >> kPageShift;
    const uint32_t in_page = off & kPageMask;
    const uint32_t chunk = len < kPageSize - in_page ? len : kPageSize - in_page;
    std::memcpy(dst, read_ptrs_[page] + in_page, chunk);
    off += chunk;
    dst += chunk;
    len -= chunk;
  }
}

void PagedBank::WriteSlow(uint32_t off, const uint8_t* src, uint32_t len) {
  while (len > 0) {
    const uint32_t page = off >> kPageShift;
    const uint32_t in_page = off & kPageMask;
    const uint32_t chunk = len < kPageSize - in_page ? len : kPageSize - in_page;
    uint8_t* dst = write_ptrs_[page];
    if (dst == nullptr) {
      dst = Materialize(page);
    }
    std::memcpy(dst + in_page, src, chunk);
    off += chunk;
    src += chunk;
    len -= chunk;
  }
}

void PagedBank::AdoptBase(std::shared_ptr<const std::vector<uint8_t>> base) {
  assert(base != nullptr && base->size() == size_);
  const uint8_t* data = base->data();
  const uint32_t pages = size_ >> kPageShift;
  for (uint32_t p = 0; p < pages; ++p) {
    if (write_ptrs_[p] == nullptr) {
      // Clean page: share the image directly. Diverged pages keep their copy.
      read_ptrs_[p] = data + (static_cast<size_t>(p) << kPageShift);
    }
  }
  base_ = std::move(base);
}

void PagedBank::ResetRange(uint32_t off, uint32_t len) {
  assert(static_cast<uint64_t>(off) + len <= size_);
  const uint32_t end = off + len;
  uint32_t pos = off;
  while (pos < end) {
    const uint32_t page = pos >> kPageShift;
    const uint32_t page_start = page << kPageShift;
    const uint32_t page_end = page_start + kPageSize;
    const uint32_t chunk_end = end < page_end ? end : page_end;
    if (private_pages_[page] != nullptr) {
      if (pos == page_start && chunk_end == page_end) {
        // Whole page covered: release the private copy back to the backing.
        private_pages_[page].reset();
        write_ptrs_[page] = nullptr;
        read_ptrs_[page] = BackingPage(page);
        --resident_pages_;
      } else {
        std::memcpy(write_ptrs_[page] + (pos - page_start),
                    BackingPage(page) + (pos - page_start), chunk_end - pos);
      }
    }
    // Clean pages already read from the backing — nothing to restore.
    pos = chunk_end;
  }
}

}  // namespace tock
