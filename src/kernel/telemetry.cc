// ERA: 8
#include "kernel/telemetry.h"

#include <cstring>

#include "kernel/kernel.h"
#include "kernel/process.h"

namespace tock {

namespace {

// Snapshot payload word offsets (after the seqlock word at index 0).
constexpr size_t kSnapCycleWord = 1;
constexpr size_t kSnapStatsWord = 2;
constexpr size_t kSnapNamesWord = kSnapStatsWord + kTelemetryStatWords;
constexpr size_t kSnapProcsWord =
    kSnapNamesWord + kTelemetryProcRows * kTelemetryProcNameWords;
static_assert(kSnapProcsWord + kTelemetryProcRows * kTelemetryProcStatWords ==
                  TelemetryLayout::SnapshotWords(),
              "snapshot offsets must cover exactly SnapshotWords()");

void PackName(const std::string& name, std::atomic<uint64_t>* words) {
  uint64_t packed[kTelemetryProcNameWords] = {};
  const size_t n = name.size() < kTelemetryProcNameWords * 8
                       ? name.size()
                       : kTelemetryProcNameWords * 8;
  for (size_t c = 0; c < n; ++c) {
    packed[c / 8] |= static_cast<uint64_t>(static_cast<uint8_t>(name[c]))
                     << (8 * (c % 8));
  }
  for (size_t w = 0; w < kTelemetryProcNameWords; ++w) {
    words[w].store(packed[w], std::memory_order_relaxed);
  }
}

std::string UnpackName(const uint64_t* words) {
  std::string name;
  for (size_t w = 0; w < kTelemetryProcNameWords; ++w) {
    for (size_t b = 0; b < 8; ++b) {
      const char c = static_cast<char>(words[w] >> (8 * b));
      if (c == '\0') {
        return name;
      }
      name += c;
    }
  }
  return name;
}

}  // namespace

// ---- BoardTelemetry -------------------------------------------------------

void BoardTelemetry::Bind(void* block, const TelemetryLayout& layout,
                          const TelemetryConfig& config) {
  block_ = static_cast<uint8_t*>(block);
  snap_ = reinterpret_cast<std::atomic<uint64_t>*>(block_);
  writer_.Init(block_ + TelemetryLayout::SnapshotBytes(), layout.ring_capacity,
               kTelemetryRecordWords);
  snapshot_period_ = config.snapshot_period_cycles;
  next_snapshot_cycle_ = 0;
}

void BoardTelemetry::OnTraceEvent(const TraceEvent& event, KernelStats& stats) {
  if (!bound()) {
    return;
  }
  uint64_t words[kTelemetryRecordWords];
  EncodeTelemetryRecord(event, words);
  writer_.Push(words);
  ++stats.telemetry_events_emitted;
  // Writer-side, exact, and independent of readers: records the ring can no
  // longer hand out. A reader reconciles: received + gaps == emitted.
  stats.telemetry_events_dropped = writer_.evicted();
  if (snapshot_period_ != 0 && event.cycle >= next_snapshot_cycle_) {
    PublishSnapshot(event.cycle);
  }
}

void BoardTelemetry::PublishSnapshot(uint64_t cycle) {
  if (!bound()) {
    return;
  }
  // Seqlock write: odd while the payload is inconsistent.
  const uint64_t seq = snap_[0].load(std::memory_order_relaxed);
  snap_[0].store(seq + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  WriteSnapshotPayload(cycle);
  snap_[0].store(seq + 2, std::memory_order_release);
  if (snapshot_period_ != 0) {
    next_snapshot_cycle_ = cycle + snapshot_period_;
  }
}

void BoardTelemetry::WriteSnapshotPayload(uint64_t cycle) {
  snap_[kSnapCycleWord].store(cycle, std::memory_order_relaxed);
  for (size_t i = 0; i < kTelemetryStatWords; ++i) {
    const uint64_t value =
        kernel_ != nullptr
            ? StatValue(kernel_->stats(), static_cast<StatId>(i))
            : 0;
    snap_[kSnapStatsWord + i].store(value, std::memory_order_relaxed);
  }
  for (size_t row = 0; row < kTelemetryProcRows; ++row) {
    const Process* p = kernel_ != nullptr ? kernel_->process(row) : nullptr;
    PackName(p != nullptr ? p->name : std::string(),
             snap_ + kSnapNamesWord + row * kTelemetryProcNameWords);
    ProcStats ps;
    if (kernel_ != nullptr) {
      ps = kernel_->GetProcStats(row);
    }
    std::atomic<uint64_t>* out =
        snap_ + kSnapProcsWord + row * kTelemetryProcStatWords;
    for (size_t f = 0; f < kTelemetryProcStatWords; ++f) {
      out[f].store(ProcStatValue(ps, static_cast<ProcStatField>(f)),
                   std::memory_order_relaxed);
    }
  }
}

// ---- TelemetryRegion ------------------------------------------------------

bool TelemetryRegion::Create(const Options& options,
                             const TelemetryConfig& config,
                             std::string* error) {
  if (options.board_count == 0) {
    if (error != nullptr) *error = "board_count must be >= 1";
    return false;
  }
  if (options.ring_capacity == 0 ||
      (options.ring_capacity & (options.ring_capacity - 1)) != 0) {
    if (error != nullptr) *error = "ring_capacity must be a power of two";
    return false;
  }
  layout_ = TelemetryLayout{options.board_count, options.ring_capacity};
  if (!region_.CreateOrReplace(options.name, layout_.TotalBytes(), error)) {
    return false;
  }
  auto* header = reinterpret_cast<TelemetryShmHeader*>(region_.base());
  header->version.store(kTelemetryLayoutVersion, std::memory_order_relaxed);
  header->board_count.store(options.board_count, std::memory_order_relaxed);
  header->ring_capacity.store(options.ring_capacity, std::memory_order_relaxed);
  header->record_words.store(kTelemetryRecordWords, std::memory_order_relaxed);
  header->stat_words.store(kTelemetryStatWords, std::memory_order_relaxed);
  header->proc_rows.store(kTelemetryProcRows, std::memory_order_relaxed);
  header->proc_name_words.store(kTelemetryProcNameWords,
                                std::memory_order_relaxed);
  header->proc_stat_words.store(kTelemetryProcStatWords,
                                std::memory_order_relaxed);
  header->block_stride.store(layout_.BlockStride(), std::memory_order_relaxed);
  header->block0_offset.store(TelemetryLayout::Block0Offset(),
                              std::memory_order_relaxed);
  uint8_t* base = static_cast<uint8_t*>(region_.base());
  boards_.clear();
  for (uint64_t i = 0; i < options.board_count; ++i) {
    auto board = std::make_unique<BoardTelemetry>();
    board->Bind(base + TelemetryLayout::Block0Offset() + i * layout_.BlockStride(),
                layout_, config);
    boards_.push_back(std::move(board));
  }
  header->boards_attached.store(options.board_count, std::memory_order_relaxed);
  // Magic last, released: a reader that sees it sees a fully formatted region.
  header->magic.store(kTelemetryMagic, std::memory_order_release);
  return true;
}

// ---- TelemetryTap ---------------------------------------------------------

bool TelemetryTap::Open(const std::string& name, std::string* error) {
  if (!region_.OpenReadOnly(name, error)) {
    return false;
  }
  return Bind(region_.base(), region_.size(), error);
}

bool TelemetryTap::Attach(const void* base, size_t bytes, std::string* error) {
  return Bind(base, bytes, error);
}

bool TelemetryTap::Bind(const void* base, size_t bytes, std::string* error) {
  readers_.clear();
  header_ = nullptr;
  if (base == nullptr || bytes < sizeof(TelemetryShmHeader)) {
    if (error != nullptr) *error = "region too small for header";
    return false;
  }
  const auto* header = reinterpret_cast<const TelemetryShmHeader*>(base);
  if (header->magic.load(std::memory_order_acquire) != kTelemetryMagic) {
    if (error != nullptr) *error = "bad magic (not a telemetry region, or still initializing)";
    return false;
  }
  if (header->version.load(std::memory_order_relaxed) != kTelemetryLayoutVersion) {
    if (error != nullptr) *error = "layout version mismatch";
    return false;
  }
  TelemetryLayout layout{header->board_count.load(std::memory_order_relaxed),
                         header->ring_capacity.load(std::memory_order_relaxed)};
  const bool geometry_ok =
      layout.board_count >= 1 &&
      layout.ring_capacity >= 1 &&
      (layout.ring_capacity & (layout.ring_capacity - 1)) == 0 &&
      header->record_words.load(std::memory_order_relaxed) == kTelemetryRecordWords &&
      header->stat_words.load(std::memory_order_relaxed) == kTelemetryStatWords &&
      header->proc_rows.load(std::memory_order_relaxed) == kTelemetryProcRows &&
      header->proc_name_words.load(std::memory_order_relaxed) == kTelemetryProcNameWords &&
      header->proc_stat_words.load(std::memory_order_relaxed) == kTelemetryProcStatWords &&
      header->block_stride.load(std::memory_order_relaxed) == layout.BlockStride() &&
      header->block0_offset.load(std::memory_order_relaxed) ==
          TelemetryLayout::Block0Offset() &&
      bytes >= layout.TotalBytes();
  if (!geometry_ok) {
    if (error != nullptr) *error = "geometry mismatch (different build or truncated region)";
    return false;
  }
  header_ = header;
  base_ = static_cast<const uint8_t*>(base);
  layout_ = layout;
  readers_.resize(layout.board_count);
  for (uint64_t i = 0; i < layout.board_count; ++i) {
    const uint8_t* ring = base_ + TelemetryLayout::Block0Offset() +
                          i * layout_.BlockStride() +
                          TelemetryLayout::SnapshotBytes();
    if (!readers_[i].Bind(ring, layout_.RingBytes())) {
      if (error != nullptr) *error = "ring geometry mismatch";
      readers_.clear();
      header_ = nullptr;
      return false;
    }
  }
  return true;
}

uint64_t TelemetryTap::boards_attached() const {
  return header_ != nullptr
             ? header_->boards_attached.load(std::memory_order_relaxed)
             : 0;
}

bool TelemetryTap::ReadSnapshot(size_t i, TelemetrySnapshot* out) const {
  if (header_ == nullptr || i >= readers_.size() || out == nullptr) {
    return false;
  }
  const auto* snap = reinterpret_cast<const std::atomic<uint64_t>*>(
      base_ + TelemetryLayout::Block0Offset() + i * layout_.BlockStride());
  uint64_t payload[TelemetryLayout::SnapshotWords()];
  for (int attempt = 0; attempt < kSnapshotRetryLimit; ++attempt) {
    const uint64_t s1 = snap[0].load(std::memory_order_acquire);
    if (s1 == 0) {
      *out = TelemetrySnapshot{};  // never published
      return true;
    }
    if ((s1 & 1) != 0) {
      continue;  // write in progress
    }
    for (size_t w = 1; w < TelemetryLayout::SnapshotWords(); ++w) {
      payload[w] = snap[w].load(std::memory_order_relaxed);
    }
    std::atomic_thread_fence(std::memory_order_acquire);
    if (snap[0].load(std::memory_order_relaxed) != s1) {
      continue;  // torn: overwritten while copying
    }
    out->seq = s1 / 2;
    out->cycle = payload[kSnapCycleWord];
    for (size_t j = 0; j < kTelemetryStatWords; ++j) {
      out->stats[j] = payload[kSnapStatsWord + j];
    }
    for (size_t row = 0; row < kTelemetryProcRows; ++row) {
      out->proc_names[row] =
          UnpackName(payload + kSnapNamesWord + row * kTelemetryProcNameWords);
      for (size_t f = 0; f < kTelemetryProcStatWords; ++f) {
        out->procs[row][f] = payload[kSnapProcsWord + row * kTelemetryProcStatWords + f];
      }
    }
    return true;
  }
  return false;
}

}  // namespace tock
