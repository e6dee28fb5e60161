// ERA: 1
// Deterministic simulation clock. All time in the system is cycles of this clock;
// there is no host wall-clock anywhere, so every run is bit-for-bit reproducible.
#ifndef TOCK_HW_SIM_CLOCK_H_
#define TOCK_HW_SIM_CLOCK_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

namespace tock {

// An event-driven clock: hardware models schedule completion callbacks at absolute
// cycle times; advancing the clock fires due events in (time, insertion) order.
//
// The simulator host-allocates freely (it stands in for physical silicon); the
// *kernel's* heapless discipline is unaffected.
class SimClock {
 public:
  using EventFn = std::function<void()>;

  uint64_t Now() const { return now_; }

  // Schedules `fn` to run when the clock reaches `at` (or immediately upon the next
  // advance if `at` is in the past). Returns an id usable with Cancel.
  uint64_t ScheduleAt(uint64_t at, EventFn fn);

  // Schedules `fn` to run `delay` cycles from now.
  uint64_t ScheduleAfter(uint64_t delay, EventFn fn) { return ScheduleAt(now_ + delay, std::move(fn)); }

  // Cancels a scheduled event that has not fired yet. Returns false only if `id` was
  // already cancelled; cancelling an id that fired or never existed corrupts the
  // pending count, so callers clear their stored id when its event fires.
  bool Cancel(uint64_t id);

  // Advances the clock by `cycles`, firing every event whose deadline is reached, in
  // deadline order. Events scheduled by fired events within the window also fire.
  //
  // The common case by far is the kernel ticking one cycle per VM instruction with
  // no event due; `next_due_` caches the earliest queued deadline so that case is a
  // single compare instead of a priority-queue inspection (hot-path work — see
  // DESIGN.md "Hot-path architecture"; simulated time is unaffected).
  void Advance(uint64_t cycles) {
    uint64_t target = now_ + cycles;
    if (target < next_due_) {
      now_ = target;
      return;
    }
    AdvanceSlow(target);
  }

  // Cycle time of the earliest pending event, or UINT64_MAX when none. Pops
  // cancelled entries off the top of the queue on the way.
  uint64_t NextEventAt();

  bool HasPendingEvents() const { return live_events_ > 0; }

 private:
  struct Event {
    uint64_t at;
    uint64_t seq;  // tie-breaker: FIFO among same-cycle events
    uint64_t id;
    EventFn fn;
    bool operator>(const Event& other) const {
      return at != other.at ? at > other.at : seq > other.seq;
    }
  };

  void AdvanceSlow(uint64_t target);

  uint64_t now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t next_id_ = 1;
  uint64_t live_events_ = 0;
  // Earliest deadline present in queue_ (cancelled entries included — lazily
  // cancelled events still occupy their slot, so this is a conservative lower
  // bound: Advance may take the slow path and find only dead entries, never the
  // reverse). UINT64_MAX when the queue is empty.
  uint64_t next_due_ = UINT64_MAX;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue_;
  std::vector<uint64_t> cancelled_;  // ids whose events should be dropped when popped
};

}  // namespace tock

#endif  // TOCK_HW_SIM_CLOCK_H_
