// ERA: 8
// tap: attach read-only to a live (or finished) fleet's telemetry region and
// watch it — streaming event tails, per-board stats tables, and exact
// drop/gap diagnostics. Attaching, detaching, or falling behind never affects
// the simulation: the region is mapped PROT_READ and the writer never looks
// for readers (util/spsc_ring.h).
//
//   terminal 1:  ./build/src/tools/fleet --boards=8 --cycles=50000000 --telemetry=tock-fleet
//   terminal 2:  ./build/src/tools/tap --shm=tock-fleet --follow
//
// Exit status: 0 on success, 2 if the region cannot be attached/validated.
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "kernel/telemetry.h"
#include "kernel/trace.h"

namespace {

struct Options {
  std::string shm;
  int64_t board = -1;        // -1 = all boards
  bool follow = false;       // keep polling until --duration-ms elapses
  bool stats = true;         // print the per-board snapshot table
  uint64_t max_events = 16;  // tail length per board in single-pass mode
  uint64_t duration_ms = 0;  // follow budget; 0 = until killed
  uint64_t interval_ms = 50; // follow poll period (host time; readers only)
};

bool ParseUint(const char* text, uint64_t* out) {
  char* end = nullptr;
  unsigned long long value = std::strtoull(text, &end, 0);
  if (end == text || *end != '\0') {
    return false;
  }
  *out = value;
  return true;
}

bool ParseOptions(int argc, char** argv, Options* opts) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* eq = std::strchr(arg, '=');
    std::string key = eq != nullptr ? std::string(arg, eq - arg) : std::string(arg);
    const char* value = eq != nullptr ? eq + 1 : "";
    uint64_t n = 0;
    if (key == "--shm") {
      opts->shm = value;
    } else if (key == "--board" && ParseUint(value, &n)) {
      opts->board = static_cast<int64_t>(n);
    } else if (key == "--follow") {
      opts->follow = std::strcmp(value, "off") != 0 && std::strcmp(value, "0") != 0;
    } else if (key == "--stats") {
      opts->stats = std::strcmp(value, "off") != 0 && std::strcmp(value, "0") != 0;
    } else if (key == "--max-events" && ParseUint(value, &n)) {
      opts->max_events = n;
    } else if (key == "--duration-ms" && ParseUint(value, &n)) {
      opts->duration_ms = n;
    } else if (key == "--interval-ms" && ParseUint(value, &n) && n > 0) {
      opts->interval_ms = n;
    } else {
      std::fprintf(stderr,
                   "unknown or malformed flag: %s\n"
                   "usage: tap --shm=<name|path> [--board=N] [--follow]\n"
                   "           [--stats=on|off] [--max-events=N]\n"
                   "           [--duration-ms=N] [--interval-ms=N]\n",
                   arg);
      return false;
    }
  }
  if (opts->shm.empty()) {
    std::fprintf(stderr, "tap: --shm=<name|path> is required\n");
    return false;
  }
  return true;
}

void PrintEvent(size_t board, uint64_t seq, const tock::TraceEvent& event,
                uint64_t gap) {
  if (gap > 0) {
    std::printf("[board %zu] ... %" PRIu64 " events lost (ring overwrote seq %" PRIu64
                "..%" PRIu64 ") ...\n",
                board, gap, seq - gap, seq - 1);
  }
  char pid[8];
  if (event.pid == 0xFF) {
    std::snprintf(pid, sizeof(pid), "-");
  } else {
    std::snprintf(pid, sizeof(pid), "%u", event.pid);
  }
  std::printf("[board %zu] seq=%-8" PRIu64 " [%10" PRIu64 "] %-10s pid=%-3s arg=%u\n",
              board, seq, event.cycle, tock::TraceEventKindName(event.kind), pid,
              event.arg);
}

void PrintSnapshot(size_t board, const tock::TelemetrySnapshot& snap) {
  if (snap.seq == 0) {
    std::printf("board %zu: no snapshot published yet\n", board);
    return;
  }
  std::printf("board %zu: snapshot #%" PRIu64 " at cycle %" PRIu64 "\n", board,
              snap.seq, snap.cycle);
  for (size_t i = 0; i < tock::kTelemetryStatWords; ++i) {
    std::printf("  %-26s %" PRIu64 "\n", tock::kStatRows[i].name, snap.stats[i]);
  }
  for (size_t row = 0; row < tock::kTelemetryProcRows; ++row) {
    if (snap.proc_names[row].empty()) {
      continue;
    }
    std::printf("  proc %zu %s:", row, snap.proc_names[row].c_str());
    for (size_t f = 0; f < tock::kTelemetryProcStatWords; ++f) {
      std::printf(" %s=%" PRIu64, tock::kProcStatRows[f].name, snap.procs[row][f]);
    }
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!ParseOptions(argc, argv, &opts)) {
    return 2;
  }

  tock::TelemetryTap tap;
  std::string error;
  if (!tap.Open(opts.shm, &error)) {
    std::fprintf(stderr, "tap: cannot attach to %s: %s\n",
                 tock::ShmRegion::ResolvePath(opts.shm).c_str(), error.c_str());
    return 2;
  }
  std::printf("tap: attached to %s — %zu board(s), %" PRIu64
              " writer(s) bound, ring capacity %" PRIu64 " events\n",
              tock::ShmRegion::ResolvePath(opts.shm).c_str(), tap.board_count(),
              tap.boards_attached(), tap.events(0)->capacity());

  std::vector<size_t> selected;
  for (size_t i = 0; i < tap.board_count(); ++i) {
    if (opts.board < 0 || static_cast<size_t>(opts.board) == i) {
      selected.push_back(i);
    }
  }
  if (selected.empty()) {
    std::fprintf(stderr, "tap: --board=%" PRId64 " out of range (%zu boards)\n",
                 opts.board, tap.board_count());
    return 2;
  }

  if (opts.follow) {
    // Live mode: stream every event as it is published, with gap markers.
    const auto start = std::chrono::steady_clock::now();
    uint64_t words[tock::kTelemetryRecordWords];
    uint64_t gap = 0;
    while (true) {
      for (size_t i : selected) {
        tock::SpscReader* reader = tap.events(i);
        while (reader->PollNext(words, &gap) == tock::SpscReader::Poll::kRecord) {
          PrintEvent(i, reader->next_seq() - 1, tock::DecodeTelemetryRecord(words),
                     gap);
        }
      }
      if (opts.duration_ms != 0) {
        const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start);
        if (elapsed.count() >= static_cast<int64_t>(opts.duration_ms)) {
          break;
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(opts.interval_ms));
    }
  } else {
    // Single pass: drain what the ring holds now, print the tail.
    for (size_t i : selected) {
      tock::SpscReader* reader = tap.events(i);
      struct Tail {
        uint64_t seq;
        uint64_t gap;
        tock::TraceEvent event;
      };
      std::vector<Tail> tail;
      uint64_t words[tock::kTelemetryRecordWords];
      uint64_t gap = 0;
      uint64_t received = 0;
      while (reader->PollNext(words, &gap) == tock::SpscReader::Poll::kRecord) {
        ++received;
        tail.push_back(Tail{reader->next_seq() - 1, gap,
                            tock::DecodeTelemetryRecord(words)});
        if (tail.size() > opts.max_events) {
          tail.erase(tail.begin());
        }
      }
      if (!tail.empty() && tail.front().seq > reader->lost()) {
        std::printf("[board %zu] ... (showing last %zu of %" PRIu64
                    " readable events) ...\n",
                    i, tail.size(), received);
      }
      for (const Tail& t : tail) {
        PrintEvent(i, t.seq, t.event, t.gap);
      }
      std::printf("[board %zu] received %" PRIu64 " events, lost %" PRIu64
                  " to overwrite, next seq %" PRIu64 "\n",
                  i, received, reader->lost(), reader->next_seq());
    }
  }

  if (opts.stats) {
    std::printf("\n");
    for (size_t i : selected) {
      tock::TelemetrySnapshot snap;
      if (tap.ReadSnapshot(i, &snap)) {
        PrintSnapshot(i, snap);
      } else {
        std::printf("board %zu: snapshot read kept tearing (writer busy)\n", i);
      }
    }
  }
  return 0;
}
