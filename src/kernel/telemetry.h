// ERA: 8
// Zero-perturbation live telemetry (ROADMAP item 4).
//
// A running board (or a whole fleet) publishes its observability state into a
// shared-memory region that any number of out-of-process readers (tools/tap)
// can follow live. Two channels per board:
//
//   * an event stream: every trace event the kernel records is also pushed
//     into a lossy single-writer ring (util/spsc_ring.h) — the writer never
//     blocks, readers detect exactly how many records they missed;
//   * a state snapshot: the full KernelStats vector, per-process names and
//     ProcStats rows, republished at most every
//     TelemetryConfig::snapshot_period_cycles under a seqlock, so a tap that
//     attaches mid-run gets absolute counters, not just the event tail.
//
// The invariant that names this file: publishing must not perturb the
// simulation. Nothing here arms clock events, sleeps, allocates on the record
// path, or depends on whether a reader exists; all publishing decisions are
// functions of *simulated* cycles, so golden traces and fleet fingerprints
// are bit-identical with telemetry on or off.
//
// Every shared word is a std::atomic<uint64_t>: the region is race-free by
// construction, and the TSan matrix leg maps it in-process and hammers it
// from a reader thread to prove it.
#ifndef TOCK_KERNEL_TELEMETRY_H_
#define TOCK_KERNEL_TELEMETRY_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "kernel/cycle_accounting.h"
#include "kernel/trace.h"
#include "util/shm_region.h"
#include "util/spsc_ring.h"

namespace tock {

class Kernel;

// ---- Wire format ----------------------------------------------------------

inline constexpr uint64_t kTelemetryMagic = 0x544F434B54454C45ull;  // "TOCKTELE"
inline constexpr uint64_t kTelemetryLayoutVersion = 1;

// One event record: [cycle][kind | pid<<8 | arg<<32].
inline constexpr uint32_t kTelemetryRecordWords = 2;

inline constexpr size_t kTelemetryProcRows = CycleAccounting::kMaxProcs;
inline constexpr size_t kTelemetryProcNameWords = 2;  // 16 chars, zero-padded
inline constexpr size_t kTelemetryStatWords =
    static_cast<size_t>(StatId::kNumStats);
inline constexpr size_t kTelemetryProcStatWords =
    static_cast<size_t>(ProcStatField::kNumFields);

inline void EncodeTelemetryRecord(const TraceEvent& event, uint64_t words[2]) {
  words[0] = event.cycle;
  words[1] = static_cast<uint64_t>(event.kind) |
             (static_cast<uint64_t>(event.pid) << 8) |
             (static_cast<uint64_t>(event.arg) << 32);
}

inline TraceEvent DecodeTelemetryRecord(const uint64_t words[2]) {
  TraceEvent event;
  event.cycle = words[0];
  event.kind = static_cast<TraceEventKind>(words[1] & 0xFF);
  event.pid = static_cast<uint8_t>(words[1] >> 8);
  event.arg = static_cast<uint32_t>(words[1] >> 32);
  return event;
}

// Region header, at offset 0. Written once by the creator (geometry) except
// boards_attached; readers validate every geometry word against their own
// compiled-in constants before touching a payload byte, so a version- or
// layout-mismatched tap fails closed instead of misparsing.
struct TelemetryShmHeader {
  std::atomic<uint64_t> magic;
  std::atomic<uint64_t> version;
  std::atomic<uint64_t> board_count;
  std::atomic<uint64_t> ring_capacity;  // records per board ring (power of two)
  std::atomic<uint64_t> record_words;
  std::atomic<uint64_t> stat_words;      // KernelStats counters per snapshot
  std::atomic<uint64_t> proc_rows;       // process slots per snapshot
  std::atomic<uint64_t> proc_name_words; // words per process name
  std::atomic<uint64_t> proc_stat_words; // ProcStats fields per row
  std::atomic<uint64_t> block_stride;    // bytes between per-board blocks
  std::atomic<uint64_t> block0_offset;   // byte offset of board 0's block
  std::atomic<uint64_t> boards_attached; // writers that have bound so far
};

// Byte offsets shared by writer and reader. A per-board block is
//   [seqlock snapshot area][64-aligned SpscRing]
// and the snapshot area is, in words:
//   [snap_seq][snap_cycle][stats...][proc names...][proc stat rows...]
struct TelemetryLayout {
  uint64_t board_count = 0;
  uint64_t ring_capacity = 0;

  static constexpr uint64_t Align64(uint64_t bytes) {
    return (bytes + 63) & ~uint64_t{63};
  }
  static constexpr uint64_t SnapshotWords() {
    return 2 + kTelemetryStatWords +
           kTelemetryProcRows * kTelemetryProcNameWords +
           kTelemetryProcRows * kTelemetryProcStatWords;
  }
  static constexpr uint64_t SnapshotBytes() {
    return Align64(SnapshotWords() * sizeof(uint64_t));
  }
  uint64_t RingBytes() const {
    return Align64(SpscRingBytes(ring_capacity, kTelemetryRecordWords));
  }
  uint64_t BlockStride() const { return SnapshotBytes() + RingBytes(); }
  static constexpr uint64_t Block0Offset() {
    return Align64(sizeof(TelemetryShmHeader));
  }
  uint64_t TotalBytes() const {
    return Block0Offset() + board_count * BlockStride();
  }
};

// A decoded snapshot, as the tap renders it.
struct TelemetrySnapshot {
  uint64_t seq = 0;    // publish count (0 = never published)
  uint64_t cycle = 0;  // simulated cycle the snapshot was taken at
  std::array<uint64_t, kTelemetryStatWords> stats{};
  std::array<std::string, kTelemetryProcRows> proc_names;
  std::array<std::array<uint64_t, kTelemetryProcStatWords>, kTelemetryProcRows>
      procs{};
};

// ---- Writer side ----------------------------------------------------------

// The per-board publisher: a TelemetrySink fed from KernelTrace::Push, plus
// the seqlock snapshot writer. Owns no memory — it writes into the block a
// TelemetryRegion carved out for it.
class BoardTelemetry : public TelemetrySink {
 public:
  // Binds to a zeroed per-board block (layout per TelemetryLayout) and
  // formats the ring. `config` supplies the snapshot period.
  void Bind(void* block, const TelemetryLayout& layout,
            const TelemetryConfig& config);

  // The kernel whose stats/procs the snapshots mirror. Must outlive this.
  void AttachKernel(const Kernel* kernel) { kernel_ = kernel; }

  bool bound() const { return block_ != nullptr; }

  // TelemetrySink: called inline from the kernel's trace hook. Never blocks;
  // cost is four atomic stores.
  void OnTraceEvent(const TraceEvent& event, KernelStats& stats) override;

  // Publishes a snapshot now (board teardown, fleet epoch barriers). `cycle`
  // is the board's current simulated time.
  void PublishSnapshot(uint64_t cycle);

  // Period-gated variant for opportunistic call sites (epoch barriers): a
  // no-op until snapshot_period_cycles have passed since the last publish.
  void MaybePublishSnapshot(uint64_t cycle) {
    if (bound() && snapshot_period_ != 0 && cycle >= next_snapshot_cycle_) {
      PublishSnapshot(cycle);
    }
  }

  uint64_t events_published() const { return writer_.published(); }

 private:
  void WriteSnapshotPayload(uint64_t cycle);

  uint8_t* block_ = nullptr;
  std::atomic<uint64_t>* snap_ = nullptr;  // snapshot area as atomic words
  SpscWriter writer_;
  const Kernel* kernel_ = nullptr;
  uint64_t snapshot_period_ = 0;
  uint64_t next_snapshot_cycle_ = 0;
};

// Owns the shm mapping for a board set: creates + formats the region, hands
// each board its BoardTelemetry block. The region file lives for the run and
// is unlinked on destruction unless KeepOnClose() was requested.
class TelemetryRegion {
 public:
  struct Options {
    std::string name;              // shm name, or a path containing '/'
    uint64_t board_count = 1;
    uint64_t ring_capacity = 4096; // records per board; power of two
  };

  bool Create(const Options& options, const TelemetryConfig& config,
              std::string* error);

  size_t board_count() const { return boards_.size(); }
  BoardTelemetry* board(size_t i) {
    return i < boards_.size() ? boards_[i].get() : nullptr;
  }
  const std::string& path() const { return region_.path(); }
  void* base() { return region_.base(); }
  size_t size() const { return region_.size(); }

  // Leave the region file behind after this process exits (tap smoke tests,
  // post-mortem inspection of a finished run).
  void KeepOnClose() { region_.ReleaseOwnership(); }

 private:
  ShmRegion region_;
  TelemetryLayout layout_;
  // unique_ptr: BoardTelemetry addresses are handed to kernels and must
  // survive vector reallocation.
  std::vector<std::unique_ptr<BoardTelemetry>> boards_;
};

// ---- Reader side ----------------------------------------------------------

// Read-only attachment to a telemetry region: out-of-process via shm name
// (tools/tap) or in-process via a raw base pointer (the TSan reader-thread
// test). Validates the header before exposing anything.
class TelemetryTap {
 public:
  // Maps the named region read-only.
  bool Open(const std::string& name, std::string* error);
  // Attaches to an already-mapped region (no ownership).
  bool Attach(const void* base, size_t bytes, std::string* error);

  size_t board_count() const { return readers_.size(); }
  uint64_t boards_attached() const;

  // The per-board event stream (each tap owns its own read cursors).
  SpscReader* events(size_t i) {
    return i < readers_.size() ? &readers_[i] : nullptr;
  }

  // Seqlock read of board i's latest snapshot. Returns false only if the
  // writer kept flipping the lock for the whole retry budget (or i is bad).
  bool ReadSnapshot(size_t i, TelemetrySnapshot* out) const;

 private:
  bool Bind(const void* base, size_t bytes, std::string* error);

  ShmRegion region_;  // only used by Open()
  const TelemetryShmHeader* header_ = nullptr;
  const uint8_t* base_ = nullptr;
  TelemetryLayout layout_;
  std::vector<SpscReader> readers_;

  static constexpr int kSnapshotRetryLimit = 1024;
};

}  // namespace tock

#endif  // TOCK_KERNEL_TELEMETRY_H_
