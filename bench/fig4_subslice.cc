// Experiment E8 (Figure 4, §4.2): SubSlice vs (slice, offset, length) plumbing.
//
// A four-layer driver stack passes a window of a buffer downward; each layer narrows
// the window (strips a header), the bottom layer touches the payload, and the buffer
// must come back whole. Two implementations:
//   (a) SubSlice: each layer slices; one Reset() restores the full buffer;
//   (b) the early-Tock convention: pass (buffer, offset, len) triples and do the
//       bounds arithmetic by hand at every layer.
//
// Expected shape: identical performance — SubSlice removes the error-prone manual
// arithmetic (which the property tests cover) at zero cost.
#include <benchmark/benchmark.h>

#include <array>
#include <cstdint>
#include <span>

#include "util/subslice.h"

namespace {

constexpr size_t kHeaderPerLayer = 4;

// ---- (a) SubSlice stack ----
uint64_t Layer3Sub(tock::SubSliceMut& buffer) {
  uint64_t sum = 0;
  for (size_t i = 0; i < buffer.Size(); ++i) {
    buffer[i] = static_cast<uint8_t>(buffer[i] + 1);
    sum += buffer[i];
  }
  return sum;
}
uint64_t Layer2Sub(tock::SubSliceMut& buffer) {
  buffer.Slice(kHeaderPerLayer, buffer.Size() - kHeaderPerLayer);
  return Layer3Sub(buffer);
}
uint64_t Layer1Sub(tock::SubSliceMut& buffer) {
  buffer.Slice(kHeaderPerLayer, buffer.Size() - kHeaderPerLayer);
  return Layer2Sub(buffer);
}
uint64_t Layer0Sub(tock::SubSliceMut& buffer) {
  buffer.Slice(kHeaderPerLayer, buffer.Size() - kHeaderPerLayer);
  return Layer1Sub(buffer);
}

// ---- (b) manual triple stack ----
uint64_t Layer3Raw(uint8_t* buffer, size_t offset, size_t len) {
  uint64_t sum = 0;
  for (size_t i = 0; i < len; ++i) {
    buffer[offset + i] = static_cast<uint8_t>(buffer[offset + i] + 1);
    sum += buffer[offset + i];
  }
  return sum;
}
uint64_t Layer2Raw(uint8_t* buffer, size_t offset, size_t len) {
  return Layer3Raw(buffer, offset + kHeaderPerLayer, len - kHeaderPerLayer);
}
uint64_t Layer1Raw(uint8_t* buffer, size_t offset, size_t len) {
  return Layer2Raw(buffer, offset + kHeaderPerLayer, len - kHeaderPerLayer);
}
uint64_t Layer0Raw(uint8_t* buffer, size_t offset, size_t len) {
  return Layer1Raw(buffer, offset + kHeaderPerLayer, len - kHeaderPerLayer);
}

void BM_SubSliceStack(benchmark::State& state) {
  std::vector<uint8_t> storage(static_cast<size_t>(state.range(0)), 7);
  for (auto _ : state) {
    tock::SubSliceMut buffer(storage.data(), storage.size());
    benchmark::DoNotOptimize(Layer0Sub(buffer));
    buffer.Reset();  // the whole buffer is back, ready for the completion path
    benchmark::DoNotOptimize(buffer.Size());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SubSliceStack)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

void BM_ManualTripleStack(benchmark::State& state) {
  std::vector<uint8_t> storage(static_cast<size_t>(state.range(0)), 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Layer0Raw(storage.data(), 0, storage.size()));
    // "Restoring" the buffer is implicit — the caller must have remembered the
    // original extent somewhere; that bookkeeping is exactly what SubSlice encodes.
    benchmark::DoNotOptimize(storage.size());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ManualTripleStack)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
