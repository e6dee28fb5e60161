// ERA: 1
#include "hw/sim_clock.h"

#include <algorithm>
#include <bit>
#include <cstdlib>

namespace tock {

unsigned SimClock::Open(void* owner, uint32_t arg, Handler handler) {
  if (open_ == UINT32_MAX) {
    std::abort();  // more event sources than kMaxChannels on one clock
  }
  unsigned index = static_cast<unsigned>(std::countr_one(open_));
  open_ |= 1u << index;
  slots_[index] = Slot{0, 0, handler, owner, arg};
  return index;
}

void SimClock::Close(unsigned index) {
  Disarm(index);
  open_ &= ~(1u << index);
}

void SimClock::Arm(unsigned index, uint64_t at) {
  Slot& slot = slots_[index];
  slot.deadline = std::max(at, now_);
  slot.seq = next_seq_++;
  armed_ |= 1u << index;
  if (next_ == index) {
    FindNext();  // the earliest deadline may have moved later
  } else if (slot.deadline < next_due_) {
    next_due_ = slot.deadline;  // the newest arm loses every same-cycle tie
    next_ = index;
  }
}

void SimClock::Disarm(unsigned index) {
  armed_ &= ~(1u << index);
  if (next_ == index) {
    FindNext();
  }
}

void SimClock::FindNext() {
  next_due_ = UINT64_MAX;
  uint64_t next_seq = UINT64_MAX;
  for (uint32_t pending = armed_; pending != 0; pending &= pending - 1) {
    unsigned i = static_cast<unsigned>(std::countr_zero(pending));
    const Slot& slot = slots_[i];
    if (slot.deadline < next_due_ || (slot.deadline == next_due_ && slot.seq < next_seq)) {
      next_due_ = slot.deadline;
      next_seq = slot.seq;
      next_ = i;
    }
  }
}

void SimClock::AdvanceSlow(uint64_t target) {
  while (next_due_ <= target) {
    const Slot& slot = slots_[next_];
    armed_ &= ~(1u << next_);
    now_ = next_due_;  // a handler observes its own deadline as "now"
    FindNext();
    slot.handler(slot.owner, slot.arg);
  }
  now_ = target;
}

}  // namespace tock
