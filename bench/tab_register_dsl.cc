// Experiment E9 (§4.3): the typed register-field DSL is zero-cost.
//
// The same UART configuration sequence — set baud field, enable bits, poll a status
// field — written (a) with the DSL's Field/FieldValue operations and (b) with
// hand-written shifts and masks. Expected shape: identical ns/op; the DSL's
// bit-twiddling compiles away completely, leaving only the datasheet-shaped source.
#include <benchmark/benchmark.h>

#include <cstdint>

#include "util/registers.h"

namespace {

struct Ctrl {
  static constexpr tock::Field<uint32_t> kEnable{0, 1};
  static constexpr tock::Field<uint32_t> kParity{1, 2};
  static constexpr tock::Field<uint32_t> kBaud{4, 4};
  static constexpr tock::Field<uint32_t> kWatermark{8, 8};
};
struct Status {
  static constexpr tock::Field<uint32_t> kTxFull{0, 1};
  static constexpr tock::Field<uint32_t> kLevel{8, 8};
};

void BM_RegisterDsl(benchmark::State& state) {
  tock::ReadWriteReg<uint32_t> ctrl;
  tock::ReadWriteReg<uint32_t> status(0x2A00);
  uint32_t level = 0;
  for (auto _ : state) {
    ctrl.Write(Ctrl::kEnable.Set() + Ctrl::kParity.Val(2) + Ctrl::kBaud.Val(7));
    ctrl.Modify(Ctrl::kWatermark.Val(32));
    if (!status.IsSet(Status::kTxFull)) {
      level += status.Read(Status::kLevel);
    }
    benchmark::DoNotOptimize(ctrl);
    benchmark::DoNotOptimize(level);
  }
}
BENCHMARK(BM_RegisterDsl);

void BM_ManualShiftMask(benchmark::State& state) {
  uint32_t ctrl = 0;
  uint32_t status = 0x2A00;
  uint32_t level = 0;
  for (auto _ : state) {
    ctrl = (1u << 0) | (2u << 1) | (7u << 4);
    ctrl = (ctrl & ~0xFF00u) | ((32u << 8) & 0xFF00u);
    if ((status & 0x1u) == 0) {
      level += (status >> 8) & 0xFFu;
    }
    benchmark::DoNotOptimize(ctrl);
    benchmark::DoNotOptimize(status);
    benchmark::DoNotOptimize(level);
  }
}
BENCHMARK(BM_ManualShiftMask);

// Constexpr proof that the DSL's arithmetic is resolved at compile time: these are
// compile-time constants, not runtime computation.
static_assert((Ctrl::kEnable.Set() + Ctrl::kParity.Val(2) + Ctrl::kBaud.Val(7)).value ==
              ((1u << 0) | (2u << 1) | (7u << 4)));
static_assert(Ctrl::kWatermark.Val(32).mask == 0xFF00u);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
