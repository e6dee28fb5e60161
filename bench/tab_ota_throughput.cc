// ERA: 2
// OTA distribution throughput vs link quality (DESIGN.md §12).
//
// One gateway pushes the same signed TBF update to four subscriber boards over
// the simulated radio medium while each subscriber keeps running its baseline
// app. The link-fault layer is swept from a clean fabric to 30% drop, and for
// each point we record the simulated cycles until every subscriber runs the
// verified update, the retransmit overhead the retry/backoff plane paid for it,
// and the resulting goodput (signed image bytes delivered per megacycle).
//
// Convergence itself is a gate, not a metric: a row that fails to converge
// within the budget prints FAIL and the binary exits non-zero. Everything
// printed is simulated, so the stdout is golden-locked (tests/golden/) and the
// gate runs in tier-1.
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "board/fleet.h"
#include "board/sim_board.h"

namespace {

constexpr size_t kSubscribers = 4;
constexpr uint64_t kCycleBudget = 400'000'000;
constexpr uint64_t kStep = 500'000;

const char* kSleeperApp = R"(
_start:
loop:
    li a0, 50000
    call sleep_ticks
    j loop
)";

struct SweepPoint {
  const char* label;
  uint32_t drop_permille;
  uint32_t dup_permille;
  uint32_t corrupt_permille;
};

constexpr SweepPoint kSweep[] = {
    {"clean", 0, 0, 0},
    {"drop10", 100, 20, 10},
    {"drop30", 300, 20, 10},
};

struct RunResult {
  bool ok = false;
  uint64_t cycles = 0;          // simulated cycles until the campaign resolved
  uint64_t image_bytes = 0;     // size of the signed update image
  uint64_t frames_sent = 0;
  uint64_t retransmits = 0;
  uint64_t frames_dropped = 0;
  uint64_t frames_corrupted = 0;
};

RunResult RunCampaign(const SweepPoint& point, unsigned threads) {
  tock::FleetConfig fc;
  fc.threads = threads;
  fc.link_faults.seed = 0xB046;
  fc.link_faults.drop_permille = point.drop_permille;
  fc.link_faults.duplicate_permille = point.dup_permille;
  fc.link_faults.corrupt_permille = point.corrupt_permille;
  tock::Fleet fleet(fc);

  std::vector<std::unique_ptr<tock::SimBoard>> boards;
  for (size_t i = 0; i < kSubscribers + 1; ++i) {
    tock::BoardConfig bc;
    bc.rng_seed = 0x07A0 + static_cast<uint32_t>(i);
    bc.radio_addr = static_cast<uint16_t>(i + 1);
    bc.medium = &fleet.medium();
    bc.ota.role = i == 0 ? tock::OtaRole::kGateway : tock::OtaRole::kSubscriber;
    bc.allow_scheduler_env = false;
    auto board = std::make_unique<tock::SimBoard>(bc);
    int expected = 0;
    if (i != 0) {
      tock::AppSpec sleeper;
      sleeper.name = "sleeper";
      sleeper.source = kSleeperApp;
      if (board->installer().Install(sleeper) == 0) {
        std::fprintf(stderr, "setup failed: %s\n", board->installer().error().c_str());
        return {};
      }
      expected = 1;
    }
    if (board->Boot() != expected) {
      std::fprintf(stderr, "boot failed on board %zu\n", i);
      return {};
    }
    fleet.AddBoard(board.get());
    boards.push_back(std::move(board));
  }
  fleet.AlignClocks();

  tock::AppSpec update;
  update.name = "update";
  update.source = kSleeperApp;
  update.sign = true;
  uint32_t staging = boards[1]->ota_staging_addr();
  std::string error;
  std::vector<uint8_t> image =
      tock::BuildAppImage(update, staging, tock::SimBoard::kDeviceKey, &error);
  if (image.empty()) {
    std::fprintf(stderr, "image build failed: %s\n", error.c_str());
    return {};
  }
  RunResult r;
  r.image_bytes = image.size();
  std::vector<uint16_t> addrs;
  for (size_t i = 1; i < boards.size(); ++i) {
    addrs.push_back(static_cast<uint16_t>(i + 1));
  }
  tock::OtaGateway& gateway = boards[0]->ota_gateway();
  gateway.Configure(std::move(image), addrs);
  gateway.StartPush();

  uint64_t ran = 0;
  while (ran < kCycleBudget && !gateway.Done()) {
    fleet.Run(kStep);
    ran += kStep;
  }

  if (gateway.stats().converged != kSubscribers) {
    std::fprintf(stderr, "FAIL: %s converged %llu/%zu within %llu cycles\n", point.label,
                 static_cast<unsigned long long>(gateway.stats().converged), kSubscribers,
                 static_cast<unsigned long long>(kCycleBudget));
    return {};
  }
  tock::FleetStats stats = fleet.Stats();
  if (stats.wedge_events != 0) {
    std::fprintf(stderr, "FAIL: %s wedged a board\n", point.label);
    return {};
  }
  r.ok = true;
  r.cycles = ran;
  r.frames_sent = gateway.stats().frames_sent;
  r.retransmits = gateway.stats().retransmits;
  r.frames_dropped = stats.frames_dropped;
  r.frames_corrupted = stats.frames_corrupted;
  return r;
}

}  // namespace

int main() {
  std::printf("OTA throughput vs link quality — 1 gateway + %zu subscribers, signed update\n\n",
              kSubscribers);
  std::printf("%-8s %6s %5s %5s  %12s %9s %9s %7s %7s %12s\n", "link", "drop", "dup", "cor",
              "cycles", "frames", "retx", "lost", "corrupt", "B/Mcycle");

  bool all_ok = true;
  for (const SweepPoint& point : kSweep) {
    RunResult r = RunCampaign(point, /*threads=*/1);
    if (!r.ok) {
      all_ok = false;
      std::printf("%-8s %5u%% FAILED\n", point.label, point.drop_permille / 10);
      continue;
    }
    double goodput = static_cast<double>(r.image_bytes * kSubscribers) /
                     (static_cast<double>(r.cycles) / 1e6);
    std::printf("%-8s %5.1f%% %4.1f%% %4.1f%%  %12llu %9llu %9llu %7llu %7llu %12.1f\n",
                point.label, point.drop_permille / 10.0, point.dup_permille / 10.0,
                point.corrupt_permille / 10.0, static_cast<unsigned long long>(r.cycles),
                static_cast<unsigned long long>(r.frames_sent),
                static_cast<unsigned long long>(r.retransmits),
                static_cast<unsigned long long>(r.frames_dropped),
                static_cast<unsigned long long>(r.frames_corrupted), goodput);
  }

  std::printf("\n%s\n", all_ok ? "all campaigns converged, zero wedged boards"
                               : "FAIL: at least one campaign did not converge");
  return all_ok ? 0 : 1;
}
