// Experiment E10 (§5.3): "Futures have significant overheads compared to Tock's
// callback-based design."
//
// A split-phase completion chain of depth N — each stage starts an operation whose
// completion triggers the next — implemented two ways:
//   (a) Tock-style: statically wired client objects with virtual completion
//       callbacks; no allocation, state lives in the (static) objects;
//   (b) future/coroutine-style: C++20 coroutines awaiting each stage, the closest
//       C++ analog to Rust's async/await; every chain allocates frames and drives
//       resumption through type-erased handles.
//
// Expected shape: callbacks cost a handful of ns per completion and zero
// allocations; coroutine chains pay frame allocation + resume machinery — the
// overhead that kept Futures out of the Tock kernel.
#include <benchmark/benchmark.h>

#include <coroutine>
#include <cstdint>
#include <vector>

namespace {

// ---------------- (a) Tock-style callback chain ----------------

class CompletionClient {
 public:
  virtual ~CompletionClient() = default;
  virtual void OperationDone(uint32_t value) = 0;
};

// A split-phase "driver": Start() records the client; Fire() completes.
class SplitPhaseStage {
 public:
  void Start(uint32_t value, CompletionClient* client) {
    value_ = value;
    client_ = client;
  }
  void Fire() { client_->OperationDone(value_ + 1); }

 private:
  uint32_t value_ = 0;
  CompletionClient* client_ = nullptr;
};

// Each link starts the next stage from its completion callback.
class ChainLink : public CompletionClient {
 public:
  void Wire(SplitPhaseStage* stage, CompletionClient* next) {
    stage_ = stage;
    next_ = next;
  }
  void OperationDone(uint32_t value) override {
    if (stage_ != nullptr) {
      stage_->Start(value, next_);
      stage_->Fire();  // the simulated interrupt arrives immediately
    }
  }

 private:
  SplitPhaseStage* stage_ = nullptr;
  CompletionClient* next_ = nullptr;
};

class ChainTerminator : public CompletionClient {
 public:
  void OperationDone(uint32_t value) override { result = value; }
  uint32_t result = 0;
};

void BM_CallbackChain(benchmark::State& state) {
  const size_t depth = static_cast<size_t>(state.range(0));
  // Statically wired, like a Tock board: all objects exist up front.
  std::vector<SplitPhaseStage> stages(depth);
  std::vector<ChainLink> links(depth);
  ChainTerminator terminator;
  for (size_t i = 0; i < depth; ++i) {
    links[i].Wire(&stages[i],
                  i + 1 < depth ? static_cast<CompletionClient*>(&links[i + 1])
                                : static_cast<CompletionClient*>(&terminator));
  }
  for (auto _ : state) {
    links[0].OperationDone(0);
    benchmark::DoNotOptimize(terminator.result);
  }
  state.counters["per_completion_ns"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(depth),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_CallbackChain)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

// ---------------- (b) coroutine/future chain ----------------

struct Task {
  struct promise_type {
    uint32_t value = 0;
    std::coroutine_handle<> continuation;

    Task get_return_object() {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() { return {}; }
    // Symmetric transfer back to whoever awaited us.
    struct FinalAwaiter {
      bool await_ready() noexcept { return false; }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<promise_type> h) noexcept {
        return h.promise().continuation ? h.promise().continuation : std::noop_coroutine();
      }
      void await_resume() noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }
    void return_value(uint32_t v) { value = v; }
    void unhandled_exception() {}
  };

  std::coroutine_handle<promise_type> handle;

  explicit Task(std::coroutine_handle<promise_type> h) : handle(h) {}
  Task(Task&& other) noexcept : handle(other.handle) { other.handle = {}; }
  Task(const Task&) = delete;
  ~Task() {
    if (handle) {
      handle.destroy();
    }
  }

  bool await_ready() { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> awaiter) {
    handle.promise().continuation = awaiter;
    return handle;  // start the child
  }
  uint32_t await_resume() { return handle.promise().value; }
};

Task AsyncStage(uint32_t value) { co_return value + 1; }

Task AsyncChain(size_t depth, uint32_t value) {
  for (size_t i = 0; i < depth; ++i) {
    value = co_await AsyncStage(value);
  }
  co_return value;
}

void BM_CoroutineChain(benchmark::State& state) {
  const size_t depth = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    Task chain = AsyncChain(depth, 0);
    chain.handle.resume();  // drive to completion (stages complete immediately)
    benchmark::DoNotOptimize(chain.handle.promise().value);
  }
  state.counters["per_completion_ns"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(depth),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_CoroutineChain)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
