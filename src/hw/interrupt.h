// ERA: 1
// NVIC-style interrupt controller for the simulated MCU.
//
// Peripherals raise interrupt lines; the kernel's main loop services pending lines by
// calling the chip driver's bottom-half handler (Tock services interrupts from the
// kernel loop rather than doing work in ISRs, §2.5). Pending state is level-latched:
// a line stays pending until the kernel completes it.
#ifndef TOCK_HW_INTERRUPT_H_
#define TOCK_HW_INTERRUPT_H_

#include <cstdint>
#include <optional>

namespace tock {

class InterruptController {
 public:
  static constexpr unsigned kNumLines = 32;

  // Hardware side: latch `line` pending. Safe to call repeatedly.
  void Raise(unsigned line) {
    if (line < kNumLines) {
      pending_ |= (1u << line);
    }
  }

  // Kernel side: enable/disable delivery of a line.
  void Enable(unsigned line) {
    if (line < kNumLines) {
      enabled_ |= (1u << line);
    }
  }
  void Disable(unsigned line) {
    if (line < kNumLines) {
      enabled_ &= ~(1u << line);
    }
  }

  bool IsPending(unsigned line) const {
    return line < kNumLines && (pending_ & enabled_ & (1u << line)) != 0;
  }

  // True if any enabled line is pending — the MCU's wake-up condition.
  bool AnyPending() const { return (pending_ & enabled_) != 0; }

  // Lowest-numbered pending enabled line, without clearing it.
  std::optional<unsigned> NextPending() const {
    uint32_t active = pending_ & enabled_;
    if (active == 0) {
      return std::nullopt;
    }
    return static_cast<unsigned>(__builtin_ctz(active));
  }

  // Kernel acknowledges that a line's bottom half ran; clears the latch.
  void Complete(unsigned line) {
    if (line < kNumLines) {
      pending_ &= ~(1u << line);
    }
  }

 private:
  uint32_t pending_ = 0;
  uint32_t enabled_ = 0;
};

// A single interrupt line handle given to a peripheral at construction, so peripheral
// models cannot raise arbitrary lines.
class InterruptLine {
 public:
  InterruptLine() : controller_(nullptr), line_(0) {}
  InterruptLine(InterruptController* controller, unsigned line)
      : controller_(controller), line_(line) {}

  void Raise() const {
    if (controller_ != nullptr) {
      controller_->Raise(line_);
    }
  }

  unsigned line() const { return line_; }

 private:
  InterruptController* controller_;
  unsigned line_;
};

}  // namespace tock

#endif  // TOCK_HW_INTERRUPT_H_
