// ERA: 1
// Deterministic simulation clock. All time in the system is cycles of this clock;
// there is no host wall-clock anywhere, so every run is bit-for-bit reproducible.
#ifndef TOCK_HW_SIM_CLOCK_H_
#define TOCK_HW_SIM_CLOCK_H_

#include <cstdint>
#include <type_traits>

namespace tock {

// An event-driven clock with a fixed table of compare channels, one per event
// source (a timer's compare register, a peripheral's completion, a process slot's
// restart backoff). Like a hardware compare register, a channel holds at most one
// deadline: arming overwrites it, disarming clears it. Due channels fire in
// (deadline, arm sequence) order. Like the kernel it runs (§2.5), the table is
// static: no closure, no heap.
class SimClock {
 public:
  static constexpr unsigned kMaxChannels = 32;

  // An event source's handle on one channel. Open() takes a free slot and binds
  // the handler; the destructor frees the slot, so a device destroyed before its
  // clock leaves nothing armed behind.
  class Channel {
   public:
    Channel() = default;
    Channel(const Channel&) = delete;
    Channel& operator=(const Channel&) = delete;
    ~Channel() {
      if (clock_ != nullptr) {
        clock_->Close(index_);
      }
    }

    // Binds `(owner->*Method)()`, or `(owner->*Method)(arg)` for a handler that
    // takes the channel's argument.
    template <auto Method, typename Owner>
    void Open(SimClock* clock, Owner* owner, uint32_t arg = 0) {
      clock_ = clock;
      index_ = clock->Open(owner, arg, [](void* self, uint32_t a) {
        if constexpr (std::is_invocable_v<decltype(Method), Owner*, uint32_t>) {
          (static_cast<Owner*>(self)->*Method)(a);
        } else {
          (static_cast<Owner*>(self)->*Method)();
        }
      });
    }

    // Fires at cycle `at` (at the next advance, if `at` has passed).
    void ArmAt(uint64_t at) { clock_->Arm(index_, at); }
    void ArmAfter(uint64_t delay) { clock_->Arm(index_, clock_->now_ + delay); }
    void Disarm() { clock_->Disarm(index_); }
    bool armed() const { return (clock_->armed_ & (1u << index_)) != 0; }
    uint64_t deadline() const { return clock_->slots_[index_].deadline; }

   private:
    SimClock* clock_ = nullptr;
    unsigned index_ = 0;
  };

  SimClock() = default;
  SimClock(const SimClock&) = delete;  // channels hold the clock's address
  SimClock& operator=(const SimClock&) = delete;

  uint64_t Now() const { return now_; }

  // Advances the clock by `cycles`, firing every channel whose deadline is reached.
  // A handler sees its own deadline as now; a channel it arms fires in the same
  // window. Nothing due, the hot case, is one compare (DESIGN.md "Hot-path
  // architecture").
  void Advance(uint64_t cycles) {
    uint64_t target = now_ + cycles;
    if (target < next_due_) {
      now_ = target;
      return;
    }
    AdvanceSlow(target);
  }

  // Deadline of the earliest armed channel, or UINT64_MAX when none is armed.
  uint64_t NextEventAt() const { return next_due_; }
  bool HasPendingEvents() const { return armed_ != 0; }

 private:
  using Handler = void (*)(void* owner, uint32_t arg);
  struct Slot {
    uint64_t deadline = 0;
    uint64_t seq = 0;  // arm sequence: FIFO among same-cycle deadlines
    Handler handler = nullptr;
    void* owner = nullptr;
    uint32_t arg = 0;
  };

  unsigned Open(void* owner, uint32_t arg, Handler handler);
  void Close(unsigned index);
  void Arm(unsigned index, uint64_t at);
  void Disarm(unsigned index);
  void FindNext();
  void AdvanceSlow(uint64_t target);

  uint64_t now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t next_due_ = UINT64_MAX;  // slots_[next_].deadline, UINT64_MAX if none armed
  unsigned next_ = 0;
  uint32_t open_ = 0;   // bit i: slot i belongs to a Channel
  uint32_t armed_ = 0;  // bit i: slot i holds a deadline
  Slot slots_[kMaxChannels];
};

}  // namespace tock

#endif  // TOCK_HW_SIM_CLOCK_H_
