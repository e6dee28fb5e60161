// ERA: 6
// Deterministic fault-injection harness (robustness evaluation, CompartOS-style).
//
// The paper's central claim is mutual distrust: a misbehaving process must not
// degrade its peers (§2.3) and all of its dynamic kernel state must be reclaimable
// on death (§2.4). Claims like that rot unless they are exercised mechanically, so
// this injector gives tests a seeded, cycle-deterministic way to make processes
// misbehave on purpose:
//
//   * CPU faults: synthesize an MPU violation or illegal instruction at the Nth
//     instruction a chosen process executes (the kernel's execute loop stops
//     each batch at the next due countdown, so the fault lands on exactly that
//     instruction slot).
//   * Loader corruption: flip a chosen bit of a TBF header (fails the §3.4
//     integrity step) or of the signature footer (fails the authenticity step).
//   * Grant pressure: force the next N grant allocations of a process to fail as
//     if its quota were exhausted.
//   * IRQ storms: raise an interrupt line on a fixed cycle period, via the MCU
//     clock, to stress the bottom-half dispatch path.
//
// Everything is driven off simulated cycles and a splitmix64 PRNG, so a campaign
// seed fully determines the injection schedule — tests reconcile KernelStats
// fault/restart counters against the injector's own audit counters exactly.
#ifndef TOCK_KERNEL_FAULT_INJECTOR_H_
#define TOCK_KERNEL_FAULT_INJECTOR_H_

#include <cstdint>
#include <optional>

#include "hw/mcu.h"
#include "util/static_vec.h"
#include "vm/cpu.h"

namespace tock {

class FaultInjector {
 public:
  static constexpr size_t kMaxArmed = 16;
  static constexpr uint8_t kAnyProcess = 0xFF;

  FaultInjector(Mcu* mcu, uint64_t seed) : mcu_(mcu), prng_state_(seed) {
    storm_.Open<&FaultInjector::StormTick>(&mcu->clock(), this);
  }

  // --- Seeded determinism ---------------------------------------------------------
  // splitmix64: cheap, well-distributed, and identical on every platform.
  uint64_t NextRandom() {
    uint64_t z = (prng_state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  // Uniform in [lo, hi] (inclusive). Modulo bias is irrelevant at these ranges.
  uint64_t RandomInRange(uint64_t lo, uint64_t hi) {
    return hi <= lo ? lo : lo + NextRandom() % (hi - lo + 1);
  }

  // --- CPU-side injection ---------------------------------------------------------
  // Arms a synthesized fault for process slot `pid_index` (or kAnyProcess) after it
  // executes `after_instructions` more instructions. Silently dropped when the
  // armed table is full (tests arm a handful at most).
  void ArmCpuFault(uint8_t pid_index, uint64_t after_instructions, VmFault::Kind kind) {
    if (!armed_.IsFull()) {
      armed_.PushBack(ArmedCpuFault{pid_index, after_instructions, kind});
    }
  }

  // Instruction slots process `pid_index` may execute before an armed fault is
  // due: the smallest countdown among its matching entries, UINT64_MAX if none.
  // The kernel caps each batch at this, so a batch never runs past a fault.
  uint64_t InstructionsUntilFault(uint8_t pid_index) const {
    uint64_t until = UINT64_MAX;
    for (size_t i = 0; i < armed_.Size(); ++i) {
      if (armed_[i].Matches(pid_index) && armed_[i].countdown < until) {
        until = armed_[i].countdown;
      }
    }
    return until;
  }

  // Books `n` executed instruction slots of process `pid_index` against every
  // matching countdown — what `n` fault-free OnInstruction calls would have
  // done. `n` never exceeds InstructionsUntilFault(pid_index).
  void CountInstructions(uint8_t pid_index, uint64_t n) {
    for (size_t i = 0; i < armed_.Size(); ++i) {
      if (armed_[i].Matches(pid_index)) {
        armed_[i].countdown -= n;
      }
    }
  }

  // Consulted by the kernel on the instruction slot where
  // InstructionsUntilFault(pid_index) reached 0. Decrements the matching entries
  // listed before the one that fires, and returns the fault to synthesize,
  // populated as the real fault path would populate it.
  std::optional<VmFault> OnInstruction(uint8_t pid_index, uint32_t pc) {
    if (armed_.IsEmpty()) {
      return std::nullopt;
    }
    for (size_t i = 0; i < armed_.Size(); ++i) {
      ArmedCpuFault& armed = armed_[i];
      if (!armed.Matches(pid_index)) {
        continue;
      }
      if (armed.countdown > 0) {
        --armed.countdown;
        continue;
      }
      VmFault fault;
      fault.kind = armed.kind;
      fault.pc = pc;
      if (armed.kind == VmFault::Kind::kBus) {
        // Mimic what an out-of-window store produces on the real bus.
        fault.detail = pc;
        fault.bus_fault = BusFault{BusFaultKind::kMpuViolation, pc, AccessType::kWrite};
      } else {
        fault.detail = 0;  // an all-zero word is an illegal RV32 instruction
      }
      armed_.Erase(i);
      ++cpu_faults_injected_;
      return fault;
    }
    return std::nullopt;
  }

  // --- Grant-allocation pressure ---------------------------------------------------
  // The next `count` first-time grant allocations by `pid_index` (or any process)
  // fail as if the owner's quota were exhausted.
  void FailNextGrantAllocs(uint8_t pid_index, uint32_t count) {
    grant_fail_pid_ = pid_index;
    grant_fail_remaining_ = count;
  }
  bool ShouldFailGrantAlloc(uint8_t pid_index) {
    if (grant_fail_remaining_ == 0 ||
        (grant_fail_pid_ != kAnyProcess && grant_fail_pid_ != pid_index)) {
      return false;
    }
    --grant_fail_remaining_;
    ++grant_failures_injected_;
    return true;
  }

  // --- Loader-side flash corruption (§3.4 integrity vs. authenticity) ---------------
  // Flips bit `bit_index` of the TBF header at `header_addr`. Bits 0..31 are the
  // magic word — flipping those makes the loader treat the slot as end-of-list
  // rather than reject it, so callers probing the *integrity* step should pass
  // bit_index >= 32. Returns false if flash I/O fails.
  static bool FlipHeaderBit(Mcu* mcu, uint32_t header_addr, uint32_t bit_index);
  // Flips bit `bit_index` (0..255) of the 32-byte signature footer of the signed
  // image at `header_addr` — the *authenticity* step must then reject the image.
  static bool FlipSignatureBit(Mcu* mcu, uint32_t header_addr, uint32_t bit_index);

  // --- IRQ storm -------------------------------------------------------------------
  // Raises `line` every `period_cycles`, `count` times, on one channel of the MCU
  // clock. A start while a storm is running is ignored.
  void StartIrqStorm(unsigned line, uint64_t period_cycles, uint32_t count);

  // --- Audit counters (what actually fired, for schedule/counter reconciliation) ----
  uint32_t cpu_faults_injected() const { return cpu_faults_injected_; }
  uint32_t grant_failures_injected() const { return grant_failures_injected_; }
  uint32_t irqs_injected() const { return irqs_injected_; }
  size_t armed_cpu_faults() const { return armed_.Size(); }

 private:
  struct ArmedCpuFault {
    uint8_t pid_index = kAnyProcess;
    uint64_t countdown = 0;
    VmFault::Kind kind = VmFault::Kind::kBus;

    bool Matches(uint8_t pid) const { return pid_index == kAnyProcess || pid_index == pid; }
  };

  void StormTick();

  Mcu* mcu_;
  uint64_t prng_state_;
  StaticVec<ArmedCpuFault, kMaxArmed> armed_;
  uint8_t grant_fail_pid_ = kAnyProcess;
  uint32_t grant_fail_remaining_ = 0;
  uint32_t cpu_faults_injected_ = 0;
  uint32_t grant_failures_injected_ = 0;
  uint32_t irqs_injected_ = 0;
  unsigned storm_line_ = 0;
  uint64_t storm_period_ = 0;
  uint32_t storm_left_ = 0;
  SimClock::Channel storm_;
};

}  // namespace tock

#endif  // TOCK_KERNEL_FAULT_INJECTOR_H_
