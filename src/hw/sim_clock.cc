// ERA: 1
#include "hw/sim_clock.h"

#include <algorithm>

namespace tock {

uint64_t SimClock::ScheduleAt(uint64_t at, EventFn fn) {
  uint64_t id = next_id_++;
  uint64_t due = std::max(at, now_);
  queue_.push(Event{due, next_seq_++, id, std::move(fn)});
  ++live_events_;
  if (due < next_due_) {
    next_due_ = due;
  }
  return id;
}

bool SimClock::Cancel(uint64_t id) {
  // The priority queue cannot remove an arbitrary element; record the id and drop the
  // event lazily when it surfaces. live_events_ is decremented now so NextEventAt
  // consumers don't wait on a dead event's bookkeeping (the stale entry itself is
  // handled when popped).
  if (std::find(cancelled_.begin(), cancelled_.end(), id) != cancelled_.end()) {
    return false;
  }
  cancelled_.push_back(id);
  if (live_events_ > 0) {
    --live_events_;
  }
  return true;
}

void SimClock::AdvanceSlow(uint64_t target) {
  while (!queue_.empty() && queue_.top().at <= target) {
    Event ev = queue_.top();
    queue_.pop();
    auto it = std::find(cancelled_.begin(), cancelled_.end(), ev.id);
    if (it != cancelled_.end()) {
      cancelled_.erase(it);
      continue;
    }
    --live_events_;
    now_ = ev.at;  // events observe their own deadline as "now"
    ev.fn();
  }
  now_ = target;
  next_due_ = queue_.empty() ? UINT64_MAX : queue_.top().at;
}

uint64_t SimClock::NextEventAt() {
  while (!queue_.empty()) {
    auto it = std::find(cancelled_.begin(), cancelled_.end(), queue_.top().id);
    if (it == cancelled_.end()) {
      break;
    }
    cancelled_.erase(it);
    queue_.pop();
  }
  next_due_ = queue_.empty() ? UINT64_MAX : queue_.top().at;
  return next_due_;
}

}  // namespace tock
