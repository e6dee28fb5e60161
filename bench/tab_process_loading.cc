// Experiment E11 (§3.4): synchronous vs asynchronous (verified) process loading.
//
// Sweep the number of installed apps and measure simulated boot cost for:
//   (a) the synchronous loader: one structural pass, no crypto;
//   (b) the asynchronous state machine: header check -> hardware HMAC over the whole
//       image -> signature compare -> create, per app;
// then measure the latency of dynamically loading one more app at runtime — the
// capability the async design unlocked.
//
// Expected shape: async cost is dominated by image-size-proportional crypto time;
// sync is near-free but can neither verify nor (safely) load at runtime.
#include <cstdio>
#include <string>

#include "board/sim_board.h"

namespace {

// Padded app so images are big enough that hashing dominates (as in real RoT boots).
std::string PaddedApp(int padding_words) {
  std::string source = "_start:\nspin:\n    j spin\npad:\n";
  source += "    .space " + std::to_string(padding_words * 4) + "\n";
  return source;
}

struct BootCost {
  uint64_t cycles = 0;
  int loaded = 0;
};

BootCost MeasureBoot(tock::LoaderMode mode, int n_apps, bool sign) {
  tock::BoardConfig config;
  config.kernel.loader = mode;
  // Golden-locked table (tests/golden/): ignore the TOCK_SCHED_POLICY override.
  config.allow_scheduler_env = false;
  tock::SimBoard board(config);
  for (int i = 0; i < n_apps; ++i) {
    tock::AppSpec app;
    app.name = "app" + std::to_string(i);
    app.source = PaddedApp(512);  // ~2 KiB binaries
    app.sign = sign;
    app.include_runtime = false;
    if (board.installer().Install(app) == 0) {
      std::fprintf(stderr, "install failed: %s\n", board.installer().error().c_str());
      return {};
    }
  }
  uint64_t start = board.mcu().CyclesNow();
  int loaded = board.Boot();
  return BootCost{board.mcu().CyclesNow() - start, loaded};
}

uint64_t MeasureDynamicLoad() {
  tock::BoardConfig config;
  config.kernel.loader = tock::LoaderMode::kAsynchronous;
  // Golden-locked table (tests/golden/): ignore the TOCK_SCHED_POLICY override.
  config.allow_scheduler_env = false;
  tock::SimBoard board(config);
  tock::AppSpec first;
  first.name = "base";
  first.source = PaddedApp(512);
  first.sign = true;
  first.include_runtime = false;
  board.installer().Install(first);
  board.Boot();
  board.Run(100'000);

  tock::AppSpec update;
  update.name = "update";
  update.source = PaddedApp(512);
  update.sign = true;
  update.include_runtime = false;
  uint32_t addr = board.installer().Install(update);
  uint64_t start = board.mcu().CyclesNow();
  board.loader().LoadOneAsync(addr);
  while (!board.loader().Done() && board.mcu().CyclesNow() < start + 50'000'000) {
    board.kernel().MainLoopStep(board.main_cap());
  }
  return board.mcu().CyclesNow() - start;
}

}  // namespace

int main() {
  std::printf("==== E11 (Table, §3.4): process loading — sync pass vs verified state machine ====\n\n");
  std::printf("  apps | sync cycles (loaded) | async+signed cycles (loaded) | crypto overhead\n");
  std::printf("  -----+----------------------+------------------------------+----------------\n");
  for (int n : {1, 2, 4, 8}) {
    BootCost sync_cost = MeasureBoot(tock::LoaderMode::kSynchronous, n, /*sign=*/true);
    BootCost async_cost = MeasureBoot(tock::LoaderMode::kAsynchronous, n, /*sign=*/true);
    std::printf("  %4d | %12llu (%d)%5s | %20llu (%d)%5s | %llu cycles/app\n", n,
                (unsigned long long)sync_cost.cycles, sync_cost.loaded, "",
                (unsigned long long)async_cost.cycles, async_cost.loaded, "",
                (unsigned long long)((async_cost.cycles - sync_cost.cycles) /
                                     static_cast<uint64_t>(n)));
  }

  uint64_t dynamic_cycles = MeasureDynamicLoad();
  std::printf("\n  dynamic load of one signed app at runtime: %llu cycles (%.2f ms at 16 MHz)\n",
              (unsigned long long)dynamic_cycles, dynamic_cycles / 16'000.0);
  std::printf("\nshape: the synchronous pass is near-free but unverified and boot-time-only;\n"
              "the async state machine pays image-proportional crypto time per app and, in\n"
              "exchange, makes runtime loading 'just trigger the kernel to check the new\n"
              "process' — §3.4's benefit/drawback trade exactly.\n");
  return 0;
}
