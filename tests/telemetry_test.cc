// Live telemetry transport tests (kernel/telemetry.h, util/spsc_ring.h,
// util/shm_region.h).
//
// Two layers of guarantees under test:
//   1. The lossy SPSC ring: exact-gap accounting (received + lost == published,
//      always), torn-read rejection, and fail-closed geometry validation.
//   2. Zero perturbation: a board/fleet with telemetry attached produces
//      byte-identical stats dumps, trace dumps, and radio delivery logs to one
//      without — attaching a tap, even one draining live, must never change
//      simulated behavior.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "board/fleet.h"
#include "board/sim_board.h"
#include "kernel/telemetry.h"
#include "kernel/trace.h"
#include "util/shm_region.h"
#include "util/spsc_ring.h"

namespace tock {
namespace {

// ---- SpscRing -------------------------------------------------------------

// Raw backing store for a ring, matching SpscWriter::Init's requirements
// (64-byte aligned, zeroed).
struct RingBuf {
  alignas(64) uint64_t words[1024] = {};
};

uint64_t* SlotWord(RingBuf& buf, uint64_t capacity, uint32_t word_count,
                   uint64_t seq, size_t word) {
  uint64_t* slots = buf.words + sizeof(SpscRingHeader) / sizeof(uint64_t);
  return slots + (seq & (capacity - 1)) * SpscSlotWords(word_count) + word;
}

TEST(SpscRing, RoundTripInOrder) {
  RingBuf buf;
  SpscWriter writer;
  writer.Init(buf.words, /*capacity=*/8, /*word_count=*/2);
  SpscReader reader;
  ASSERT_TRUE(reader.Bind(buf.words, SpscRingBytes(8, 2)));
  EXPECT_EQ(reader.capacity(), 8u);
  EXPECT_EQ(reader.word_count(), 2u);

  uint64_t out[2];
  uint64_t gap = 77;
  EXPECT_EQ(reader.PollNext(out, &gap), SpscReader::Poll::kEmpty);
  EXPECT_EQ(gap, 0u);

  for (uint64_t i = 0; i < 5; ++i) {
    const uint64_t words[2] = {i, i * 100};
    writer.Push(words);
  }
  EXPECT_EQ(writer.published(), 5u);
  EXPECT_EQ(writer.evicted(), 0u);

  for (uint64_t i = 0; i < 5; ++i) {
    ASSERT_EQ(reader.PollNext(out, &gap), SpscReader::Poll::kRecord) << i;
    EXPECT_EQ(gap, 0u);
    EXPECT_EQ(out[0], i);
    EXPECT_EQ(out[1], i * 100);
  }
  EXPECT_EQ(reader.PollNext(out, &gap), SpscReader::Poll::kEmpty);
  EXPECT_EQ(reader.lost(), 0u);
  EXPECT_EQ(reader.next_seq(), 5u);
}

// Wraparound: a reader that keeps up sees every record even after the writer
// has lapped the buffer many times over.
TEST(SpscRing, WraparoundKeepingUpLosesNothing) {
  RingBuf buf;
  SpscWriter writer;
  writer.Init(buf.words, /*capacity=*/4, /*word_count=*/1);
  SpscReader reader;
  ASSERT_TRUE(reader.Bind(buf.words, SpscRingBytes(4, 1)));

  uint64_t out[1];
  uint64_t gap = 0;
  for (uint64_t i = 0; i < 100; ++i) {
    writer.Push(&i);
    ASSERT_EQ(reader.PollNext(out, &gap), SpscReader::Poll::kRecord) << i;
    EXPECT_EQ(out[0], i);
    EXPECT_EQ(gap, 0u);
  }
  EXPECT_EQ(reader.lost(), 0u);
  EXPECT_EQ(writer.evicted(), 96u);  // writer-side eviction is about *readers
                                     // that might attach later*, not this one
}

// Overflow: a reader that attaches after the writer lapped the ring gets the
// exact gap (head - capacity is the oldest survivor — precise, not a guess),
// and received + lost reconciles against published.
TEST(SpscRing, OverflowReportsExactGap) {
  RingBuf buf;
  SpscWriter writer;
  writer.Init(buf.words, /*capacity=*/4, /*word_count=*/1);
  for (uint64_t i = 0; i < 100; ++i) {
    writer.Push(&i);
  }

  SpscReader reader;
  ASSERT_TRUE(reader.Bind(buf.words, SpscRingBytes(4, 1)));
  uint64_t out[1];
  uint64_t gap = 0;
  ASSERT_EQ(reader.PollNext(out, &gap), SpscReader::Poll::kRecord);
  EXPECT_EQ(gap, 96u);  // seqs 0..95 overwritten; 96 is the oldest survivor
  EXPECT_EQ(out[0], 96u);
  uint64_t received = 1;
  while (reader.PollNext(out, &gap) == SpscReader::Poll::kRecord) {
    EXPECT_EQ(gap, 0u);
    ++received;
  }
  EXPECT_EQ(received, 4u);
  EXPECT_EQ(reader.lost(), 96u);
  EXPECT_EQ(received + reader.lost(), writer.published());
  EXPECT_EQ(reader.next_seq(), 100u);
}

// A reader mid-stream that falls behind resynchronises and keeps counting.
TEST(SpscRing, FallBehindMidStreamReconciles) {
  RingBuf buf;
  SpscWriter writer;
  writer.Init(buf.words, /*capacity=*/8, /*word_count=*/1);
  SpscReader reader;
  ASSERT_TRUE(reader.Bind(buf.words, SpscRingBytes(8, 1)));

  uint64_t out[1];
  uint64_t gap = 0;
  uint64_t received = 0;
  // Read 3, then let the writer run far ahead, then drain.
  for (uint64_t i = 0; i < 3; ++i) {
    writer.Push(&i);
  }
  while (reader.PollNext(out, &gap) == SpscReader::Poll::kRecord) ++received;
  for (uint64_t i = 3; i < 50; ++i) {
    writer.Push(&i);
  }
  while (reader.PollNext(out, &gap) == SpscReader::Poll::kRecord) ++received;
  EXPECT_EQ(received + reader.lost(), writer.published());
  EXPECT_EQ(out[0], 49u);  // last drained record is the newest
}

// Torn-read rejection: corrupt a slot's begin-sequence word to simulate a
// writer stalled mid-overwrite of exactly that slot. The reader must refuse
// the payload, skip the one record, and charge it to lost() — never return
// garbage.
TEST(SpscRing, TornSlotIsSkippedNotReturned) {
  RingBuf buf;
  SpscWriter writer;
  writer.Init(buf.words, /*capacity=*/8, /*word_count=*/1);
  SpscReader reader;
  ASSERT_TRUE(reader.Bind(buf.words, SpscRingBytes(8, 1)));

  for (uint64_t i = 0; i < 3; ++i) {
    writer.Push(&i);
  }
  uint64_t out[1];
  uint64_t gap = 0;
  ASSERT_EQ(reader.PollNext(out, &gap), SpscReader::Poll::kRecord);
  EXPECT_EQ(out[0], 0u);

  // Record 1 now looks like the writer bumped `begin` (started overwriting)
  // but never finished: begin carries a future sequence, end the old one.
  *SlotWord(buf, 8, 1, /*seq=*/1, /*word=*/0) = 1 + 8 + 1;
  // kEmpty means "do not use words_out" — the reject is signalled by the
  // return value and the charged gap, not by leaving the scratch pristine.
  EXPECT_EQ(reader.PollNext(out, &gap), SpscReader::Poll::kEmpty);
  EXPECT_EQ(gap, 1u);           // the skip is reported, not silent
  EXPECT_EQ(reader.lost(), 1u);
  EXPECT_EQ(reader.next_seq(), 2u);

  ASSERT_EQ(reader.PollNext(out, &gap), SpscReader::Poll::kRecord);
  EXPECT_EQ(out[0], 2u);        // stream continues after the skip
  EXPECT_EQ(gap, 0u);
}

TEST(SpscRing, BindRejectsBadGeometry) {
  RingBuf buf;
  SpscReader reader;
  // All-zero memory: geometry word is 0.
  EXPECT_FALSE(reader.Bind(buf.words, sizeof(buf)));
  // Too few bytes for even a header.
  EXPECT_FALSE(reader.Bind(buf.words, sizeof(SpscRingHeader) - 1));

  SpscWriter writer;
  writer.Init(buf.words, /*capacity=*/8, /*word_count=*/2);
  // Valid ring, but the mapping claims fewer bytes than the geometry needs.
  EXPECT_FALSE(reader.Bind(buf.words, SpscRingBytes(8, 2) - 1));
  ASSERT_TRUE(reader.Bind(buf.words, SpscRingBytes(8, 2)));

  // Handcrafted invalid geometries a hostile/stale region could carry.
  auto* header = reinterpret_cast<SpscRingHeader*>(buf.words);
  header->geometry.store((uint64_t{6} << 32) | 2, std::memory_order_release);
  EXPECT_FALSE(reader.Bind(buf.words, sizeof(buf)));  // capacity not pow2
  header->geometry.store(uint64_t{8} << 32, std::memory_order_release);
  EXPECT_FALSE(reader.Bind(buf.words, sizeof(buf)));  // word_count 0
  header->geometry.store((uint64_t{8} << 32) | (SpscReader::kMaxWordCount + 1),
                         std::memory_order_release);
  EXPECT_FALSE(reader.Bind(buf.words, sizeof(buf)));  // word_count too large
}

// ---- ShmRegion ------------------------------------------------------------

std::string TestShmPath(const char* tag) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "/tmp/tock_telemetry_test_%s_%d.shm", tag,
                static_cast<int>(getpid()));
  return buf;
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

TEST(ShmRegion, CreateWriteReadOnlyRoundTrip) {
  const std::string path = TestShmPath("roundtrip");
  std::string error;
  ShmRegion writer;
  ASSERT_TRUE(writer.CreateOrReplace(path, 4096, &error)) << error;
  EXPECT_EQ(writer.path(), path);  // a name with '/' is a verbatim path
  EXPECT_EQ(writer.size(), 4096u);
  ASSERT_TRUE(FileExists(path));

  auto* words = static_cast<std::atomic<uint64_t>*>(writer.base());
  EXPECT_EQ(words[0].load(std::memory_order_relaxed), 0u);  // starts zeroed
  words[0].store(0x1122334455667788ull, std::memory_order_release);
  words[511].store(42, std::memory_order_release);

  ShmRegion reader;
  ASSERT_TRUE(reader.OpenReadOnly(path, &error)) << error;
  EXPECT_EQ(reader.size(), 4096u);
  const auto* rwords = static_cast<const std::atomic<uint64_t>*>(reader.base());
  EXPECT_EQ(rwords[0].load(std::memory_order_acquire), 0x1122334455667788ull);
  EXPECT_EQ(rwords[511].load(std::memory_order_acquire), 42u);

  reader.Close();
  EXPECT_TRUE(FileExists(path));  // readers never unlink
  writer.Close();
  EXPECT_FALSE(FileExists(path));  // the creator does
}

TEST(ShmRegion, ReleaseOwnershipLeavesFileBehind) {
  const std::string path = TestShmPath("keep");
  std::string error;
  {
    ShmRegion writer;
    ASSERT_TRUE(writer.CreateOrReplace(path, 256, &error)) << error;
    writer.ReleaseOwnership();
  }
  EXPECT_TRUE(FileExists(path));
  ShmRegion reader;
  EXPECT_TRUE(reader.OpenReadOnly(path, &error)) << error;
  reader.Close();
  ::unlink(path.c_str());
}

TEST(ShmRegion, OpenMissingFails) {
  ShmRegion region;
  std::string error;
  EXPECT_FALSE(region.OpenReadOnly("/tmp/tock_telemetry_test_does_not_exist.shm",
                                   &error));
  EXPECT_FALSE(error.empty());
}

// ---- End-to-end: board -> region -> tap -----------------------------------

const char* kChatterSource = R"(
_start:
    li s1, 40
loop:
    la a0, msg
    li a1, 2
    call console_print
    li a0, 150
    call sleep_ticks
    addi s1, s1, -1
    bnez s1, loop
    li a0, 0
    call tock_exit_terminate
msg:
    .asciz "t\n"
)";

// A single-app board wired to block `index` of an existing TelemetryRegion.
std::unique_ptr<SimBoard> MakeTelemetryBoard(TelemetryRegion* region,
                                             size_t index,
                                             const TelemetryConfig& config) {
  BoardConfig bc;
  bc.kernel.telemetry = config;
  if (region != nullptr) {
    bc.telemetry = region->board(index);
  }
  auto board = std::make_unique<SimBoard>(bc);
  AppSpec app;
  app.name = "chatter";
  app.source = kChatterSource;
  EXPECT_NE(board->installer().Install(app), 0u) << board->installer().error();
  EXPECT_EQ(board->Boot(), 1);
  return board;
}

// Telemetry publishes from the trace hook, so it goes wherever the trace layer
// is compiled out.
#define SKIP_WITHOUT_TELEMETRY()                                        \
  do {                                                                  \
    if (!KernelTrace::kEnabled) {                                       \
      GTEST_SKIP() << "trace layer compiled out (TOCK_TRACE=OFF)";      \
    }                                                                   \
  } while (0)

// Every event the kernel traced must come out of the tap, byte-identical,
// in order — and the emitted counter must reconcile with what was received.
TEST(Telemetry, TapReceivesExactlyTheKernelTrace) {
  SKIP_WITHOUT_TELEMETRY();
  const std::string path = TestShmPath("e2e");
  TelemetryRegion region;
  std::string error;
  ASSERT_TRUE(region.Create({path, /*board_count=*/1, /*ring_capacity=*/4096},
                            TelemetryConfig{}, &error))
      << error;
  auto board = MakeTelemetryBoard(&region, 0, TelemetryConfig{});
  board->Run(300'000);

  const KernelStats& stats = board->kernel().trace().stats();
  ASSERT_GT(stats.telemetry_events_emitted, 0u);
  EXPECT_EQ(stats.telemetry_events_dropped, 0u);  // 4096-deep ring, short run

  TelemetryTap tap;
  ASSERT_TRUE(tap.Attach(region.base(), region.size(), &error)) << error;
  ASSERT_EQ(tap.board_count(), 1u);
  SpscReader* reader = tap.events(0);
  std::vector<TraceEvent> received;
  uint64_t words[kTelemetryRecordWords];
  uint64_t gap = 0;
  while (reader->PollNext(words, &gap) == SpscReader::Poll::kRecord) {
    ASSERT_EQ(gap, 0u);
    received.push_back(DecodeTelemetryRecord(words));
  }
  EXPECT_EQ(received.size(), stats.telemetry_events_emitted);
  EXPECT_EQ(reader->lost(), 0u);

  // The kernel's own ring keeps the newest events; the tap stream's tail must
  // match it field-for-field (encode/decode is lossless).
  std::vector<TraceEvent> kernel_events;
  board->kernel().trace().events().ForEach(
      [&](const TraceEvent& e) { kernel_events.push_back(e); });
  ASSERT_LE(kernel_events.size(), received.size());
  const size_t tail = received.size() - kernel_events.size();
  for (size_t i = 0; i < kernel_events.size(); ++i) {
    EXPECT_EQ(received[tail + i].cycle, kernel_events[i].cycle) << i;
    EXPECT_EQ(received[tail + i].kind, kernel_events[i].kind) << i;
    EXPECT_EQ(received[tail + i].pid, kernel_events[i].pid) << i;
    EXPECT_EQ(received[tail + i].arg, kernel_events[i].arg) << i;
  }
}

// With a deliberately tiny ring, a late-attaching tap reconciles exactly:
// received + reported gaps == events emitted, and the writer-side dropped
// counter agrees with the reader-side loss.
TEST(Telemetry, TinyRingDropGapReconciles) {
  SKIP_WITHOUT_TELEMETRY();
  const std::string path = TestShmPath("tiny");
  TelemetryRegion region;
  std::string error;
  ASSERT_TRUE(region.Create({path, /*board_count=*/1, /*ring_capacity=*/16},
                            TelemetryConfig{}, &error))
      << error;
  auto board = MakeTelemetryBoard(&region, 0, TelemetryConfig{});
  board->Run(300'000);

  const KernelStats& stats = board->kernel().trace().stats();
  ASSERT_GT(stats.telemetry_events_emitted, 16u);
  EXPECT_GT(stats.telemetry_events_dropped, 0u);

  TelemetryTap tap;
  ASSERT_TRUE(tap.Attach(region.base(), region.size(), &error)) << error;
  SpscReader* reader = tap.events(0);
  uint64_t words[kTelemetryRecordWords];
  uint64_t gap = 0;
  uint64_t received = 0;
  uint64_t gaps = 0;
  while (reader->PollNext(words, &gap) == SpscReader::Poll::kRecord) {
    ++received;
    gaps += gap;
  }
  EXPECT_EQ(received + gaps, stats.telemetry_events_emitted);
  EXPECT_EQ(gaps, reader->lost());
  EXPECT_EQ(gaps, stats.telemetry_events_dropped);
  EXPECT_LE(received, 16u);
}

// Snapshots carry absolute state: a tap that attaches mid-run (or after the
// run) reads the full KernelStats vector and per-process rows, consistent
// under the seqlock.
TEST(Telemetry, SnapshotMirrorsKernelState) {
  SKIP_WITHOUT_TELEMETRY();
  const std::string path = TestShmPath("snap");
  TelemetryRegion region;
  std::string error;
  ASSERT_TRUE(region.Create({path, 1, 4096}, TelemetryConfig{}, &error)) << error;

  // Before any publish, a snapshot read succeeds and reports seq 0.
  TelemetryTap tap;
  ASSERT_TRUE(tap.Attach(region.base(), region.size(), &error)) << error;
  TelemetrySnapshot snap;
  ASSERT_TRUE(tap.ReadSnapshot(0, &snap));
  EXPECT_EQ(snap.seq, 0u);

  auto board = MakeTelemetryBoard(&region, 0, TelemetryConfig{});
  board->Run(300'000);
  const uint64_t now = board->mcu().CyclesNow();
  region.board(0)->PublishSnapshot(now);

  ASSERT_TRUE(tap.ReadSnapshot(0, &snap));
  EXPECT_GT(snap.seq, 0u);
  EXPECT_EQ(snap.cycle, now);
  const KernelStats& stats = board->kernel().stats();
  for (size_t i = 0; i < kTelemetryStatWords; ++i) {
    EXPECT_EQ(snap.stats[i], StatValue(stats, static_cast<StatId>(i)))
        << StatName(static_cast<StatId>(i));
  }
  EXPECT_EQ(snap.proc_names[0], "chatter");
  ProcStats ps = board->kernel().GetProcStats(0);
  for (size_t f = 0; f < kTelemetryProcStatWords; ++f) {
    EXPECT_EQ(snap.procs[0][f],
              ProcStatValue(ps, static_cast<ProcStatField>(f)));
  }
}

// A tap must fail closed on anything that is not a well-formed region of the
// same layout version: bad magic, truncation, garbage.
TEST(Telemetry, TapRejectsMalformedRegions) {
  SKIP_WITHOUT_TELEMETRY();
  const std::string path = TestShmPath("reject");
  TelemetryRegion region;
  std::string error;
  ASSERT_TRUE(region.Create({path, 1, 64}, TelemetryConfig{}, &error)) << error;

  TelemetryTap tap;
  EXPECT_FALSE(tap.Attach(nullptr, region.size(), &error));
  EXPECT_FALSE(tap.Attach(region.base(), sizeof(TelemetryShmHeader) - 1, &error));
  EXPECT_FALSE(tap.Attach(region.base(), region.size() - 1, &error));
  ASSERT_TRUE(tap.Attach(region.base(), region.size(), &error)) << error;

  auto* header = reinterpret_cast<TelemetryShmHeader*>(region.base());
  const uint64_t good_magic = header->magic.load(std::memory_order_relaxed);
  header->magic.store(good_magic + 1, std::memory_order_release);
  EXPECT_FALSE(tap.Attach(region.base(), region.size(), &error));
  header->magic.store(good_magic, std::memory_order_release);

  const uint64_t good_version = header->version.load(std::memory_order_relaxed);
  header->version.store(good_version + 1, std::memory_order_release);
  EXPECT_FALSE(tap.Attach(region.base(), region.size(), &error));
  header->version.store(good_version, std::memory_order_release);
  EXPECT_TRUE(tap.Attach(region.base(), region.size(), &error)) << error;
}

// ---- Zero-perturbation bit-identity ---------------------------------------

// Single board: stats + trace dumps with telemetry attached are byte-identical
// to a board without it. (The transport counters are Host rows of the stat table,
// which dumps skip by design — exactly what this locks in.)
TEST(Telemetry, BoardDumpBitIdenticalWithAndWithoutTelemetry) {
  if (!KernelTrace::kEnabled) {
    GTEST_SKIP() << "trace layer compiled out (TOCK_TRACE=OFF)";
  }
  std::string plain_dump;
  {
    auto board = MakeTelemetryBoard(nullptr, 0, TelemetryConfig{});
    board->Run(400'000);
    board->kernel().trace().DumpStats(plain_dump);
    board->kernel().trace().DumpTrace(plain_dump);
  }
  const std::string path = TestShmPath("identity");
  TelemetryRegion region;
  std::string error;
  ASSERT_TRUE(region.Create({path, 1, 256}, TelemetryConfig{}, &error)) << error;
  auto board = MakeTelemetryBoard(&region, 0, TelemetryConfig{});
  board->Run(400'000);
  ASSERT_GT(board->kernel().stats().telemetry_events_emitted, 0u);
  std::string telemetry_dump;
  board->kernel().trace().DumpStats(telemetry_dump);
  board->kernel().trace().DumpTrace(telemetry_dump);
  EXPECT_EQ(plain_dump, telemetry_dump);
}

// Fleet: a two-board radio deployment publishes telemetry from every board and
// still produces bit-identical fingerprints (stats, trace, delivery log) to a
// fleet without telemetry — and to itself under a different host thread count.
std::string BeaconSource(int node) {
  char buf[768];
  std::snprintf(buf, sizeof(buf), R"(
_start:
    mv s0, a0
    li s1, 0
    li a0, %d
    call sleep_ticks
loop:
    li t0, %d
    sb t0, 0(s0)
    sb s1, 1(s0)
    li a0, 0x30001
    li a1, 0
    mv a2, s0
    li a3, 2
    li a4, 4
    ecall
    li a0, 0x30001
    li a1, 1
    li a2, 0xFFFF
    li a3, 2
    li a4, 2
    ecall
    li a0, 2
    li a1, 0x30001
    li a2, 0
    li a4, 0
    ecall
    addi s1, s1, 1
    li a0, 40000
    call sleep_ticks
    j loop
)",
                node * 5000, node);
  return buf;
}

struct TelemetryFleet {
  TelemetryFleet(unsigned threads, TelemetryRegion* region) {
    FleetConfig config;
    config.threads = threads;
    fleet = std::make_unique<Fleet>(config);
    for (size_t i = 0; i < 2; ++i) {
      BoardConfig bc;
      bc.rng_seed = 0xF00D + static_cast<uint32_t>(i);
      bc.radio_addr = static_cast<uint16_t>(i + 1);
      bc.medium = &fleet->medium();
      bc.allow_scheduler_env = false;
      if (region != nullptr) {
        bc.telemetry = region->board(i);
      }
      auto board = std::make_unique<SimBoard>(bc);
      board->radio_hw().EnableDeliveryLog();
      AppSpec beacon;
      beacon.name = "beacon";
      beacon.source = BeaconSource(static_cast<int>(i + 1));
      EXPECT_NE(board->installer().Install(beacon), 0u)
          << board->installer().error();
      EXPECT_EQ(board->Boot(), 1);
      fleet->AddBoard(board.get());
      boards.push_back(std::move(board));
    }
    fleet->AlignClocks();
  }

  std::string Fingerprint(size_t i) {
    SimBoard& board = *boards[i];
    std::string out;
    char line[128];
    std::snprintf(line, sizeof(line), "cycles=%llu insns=%llu\n",
                  static_cast<unsigned long long>(board.mcu().CyclesNow()),
                  static_cast<unsigned long long>(
                      board.kernel().instructions_retired()));
    out += line;
    board.kernel().trace().DumpStats(out);
    board.kernel().trace().DumpTrace(out);
    for (const RadioDeliveryRecord& r : board.radio_hw().delivery_log()) {
      std::snprintf(line, sizeof(line),
                    "deliver cycle=%llu src=%u dst=%u len=%u sum=%u\n",
                    static_cast<unsigned long long>(r.cycle), r.src, r.dst,
                    r.len, r.payload_sum);
      out += line;
    }
    return out;
  }

  std::unique_ptr<Fleet> fleet;
  std::vector<std::unique_ptr<SimBoard>> boards;
};

TEST(Telemetry, FleetFingerprintBitIdenticalWithTelemetry) {
  SKIP_WITHOUT_TELEMETRY();
  const std::string path_1 = TestShmPath("fleet1");
  const std::string path_4 = TestShmPath("fleet4");
  TelemetryRegion region_1;
  TelemetryRegion region_4;
  std::string error;
  ASSERT_TRUE(region_1.Create({path_1, 2, 1024}, TelemetryConfig{}, &error))
      << error;
  ASSERT_TRUE(region_4.Create({path_4, 2, 1024}, TelemetryConfig{}, &error))
      << error;

  TelemetryFleet plain(1, nullptr);
  TelemetryFleet tele_solo(1, &region_1);
  TelemetryFleet tele_quad(4, &region_4);
  plain.fleet->Run(400'000);
  tele_solo.fleet->Run(400'000);
  tele_quad.fleet->Run(400'000);

  uint64_t total_rx = 0;
  for (size_t i = 0; i < 2; ++i) {
    // Telemetry on vs. off: nothing simulated may change.
    EXPECT_EQ(plain.Fingerprint(i), tele_solo.Fingerprint(i)) << "board " << i;
    // Telemetry on, 1 vs. 4 host threads: publishing stays deterministic.
    EXPECT_EQ(tele_solo.Fingerprint(i), tele_quad.Fingerprint(i))
        << "board " << i;
    // And the transport itself must be as deterministic as the simulation:
    // both telemetry fleets emitted the identical event count per board.
    EXPECT_EQ(tele_solo.boards[i]->kernel().stats().telemetry_events_emitted,
              tele_quad.boards[i]->kernel().stats().telemetry_events_emitted);
    ASSERT_GT(tele_solo.boards[i]->kernel().stats().telemetry_events_emitted,
              0u);
    total_rx += plain.boards[i]->radio_hw().packets_received();
  }
  EXPECT_GT(total_rx, 0u);  // the run must exercise delivery to prove anything
}

// ---- Concurrency (the TSan leg's target) ----------------------------------

// A reader thread hammers the live region — event ring and seqlock snapshot —
// while the board simulates on this thread. Every shared word is an atomic,
// so this runs clean under -fsanitize=thread; the assertions check the reader
// never saw impossible state (a record from the future, a torn snapshot), and
// that the drained board ends in exactly the simulated state of a
// telemetry-off twin.
TEST(TelemetryConcurrency, ReaderThreadRacesLiveWriter) {
  SKIP_WITHOUT_TELEMETRY();
  const std::string path = TestShmPath("race");
  TelemetryRegion region;
  std::string error;
  // Tiny ring so the writer laps the reader constantly — the torn-read and
  // resync paths get exercised, not just the happy path.
  ASSERT_TRUE(region.Create({path, 1, 16}, TelemetryConfig{}, &error)) << error;
  auto board = MakeTelemetryBoard(&region, 0, TelemetryConfig{});

  std::atomic<bool> done{false};
  std::atomic<uint64_t> records_read{0};
  std::atomic<uint64_t> snapshots_read{0};
  std::atomic<bool> reader_ok{true};
  std::thread reader_thread([&] {
    TelemetryTap tap;
    std::string attach_error;
    if (!tap.Attach(region.base(), region.size(), &attach_error)) {
      reader_ok.store(false);
      return;
    }
    SpscReader* reader = tap.events(0);
    uint64_t words[kTelemetryRecordWords];
    uint64_t gap = 0;
    uint64_t last_cycle = 0;
    // Sample `done` BEFORE each drain pass: when the writer finishes while a
    // pass is in flight, one more full pass still runs, so the reader always
    // drains the ring tail even if the host scheduler never ran this thread
    // concurrently with the (short) simulation — a real risk on 1-core hosts.
    for (;;) {
      const bool final_pass = done.load(std::memory_order_acquire);
      while (reader->PollNext(words, &gap) == SpscReader::Poll::kRecord) {
        const TraceEvent event = DecodeTelemetryRecord(words);
        // Monotonicity survives losses: a torn read returning stale or
        // garbage payload would trip this.
        if (event.cycle < last_cycle) {
          reader_ok.store(false);
        }
        last_cycle = event.cycle;
        records_read.fetch_add(1, std::memory_order_relaxed);
      }
      TelemetrySnapshot snap;
      if (tap.ReadSnapshot(0, &snap)) {
        snapshots_read.fetch_add(1, std::memory_order_relaxed);
      }
      if (final_pass) break;
    }
  });

  board->Run(3'000'000);
  done.store(true, std::memory_order_release);
  reader_thread.join();

  EXPECT_TRUE(reader_ok.load());
  EXPECT_GT(board->kernel().stats().telemetry_events_emitted, 0u);
  EXPECT_GT(records_read.load() + snapshots_read.load(), 0u);

  auto dump = [](SimBoard& b) {
    std::string out = "cycles=" + std::to_string(b.mcu().CyclesNow()) +
                      " insns=" + std::to_string(b.kernel().instructions_retired()) + "\n";
    b.kernel().trace().DumpStats(out);
    b.kernel().trace().DumpTrace(out);
    return out;
  };
  auto twin = MakeTelemetryBoard(nullptr, 0, TelemetryConfig{});
  twin->Run(3'000'000);
  EXPECT_EQ(dump(*board), dump(*twin));
}

// ---- Periodic artifact flush ----------------------------------------------

// With trace_export_flush_cycles set, a run that never reaches its destructor
// (killed fleet, crashed host) still leaves a complete, parseable artifact:
// the board rewrites it atomically every flush period.
TEST(Telemetry, PeriodicFlushLeavesValidArtifactMidRun) {
  if (!KernelTrace::kEnabled) {
    GTEST_SKIP() << "trace layer compiled out (TOCK_TRACE=OFF)";
  }
  char path_buf[128];
  std::snprintf(path_buf, sizeof(path_buf), "/tmp/tock_telemetry_flush_%d.json",
                static_cast<int>(getpid()));
  const std::string path = path_buf;
  ::unlink(path.c_str());

  BoardConfig bc;
  bc.trace_export_path = path;
  bc.trace_export_flush_cycles = 100'000;
  SimBoard board(bc);
  AppSpec app;
  app.name = "chatter";
  app.source = kChatterSource;
  ASSERT_NE(board.installer().Install(app), 0u) << board.installer().error();
  ASSERT_EQ(board.Boot(), 1);
  board.Run(500'000);

  // The board is still alive — this artifact came from a mid-run flush, not
  // the destructor, which is the whole point.
  ASSERT_TRUE(FileExists(path));
  EXPECT_FALSE(FileExists(path + ".tmp"));  // the rename is atomic
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string doc = ss.str();
  ASSERT_FALSE(doc.empty());
  EXPECT_EQ(doc.front(), '{');
  EXPECT_EQ(doc.substr(doc.size() - 2), "}\n");
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("\"tockStats\""), std::string::npos);
  ::unlink(path.c_str());
}

}  // namespace
}  // namespace tock
