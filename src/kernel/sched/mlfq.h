// ERA: 2
// Multi-level feedback queue, three levels. A process starts at level 0 with the
// base quantum; burning a whole quantum (kTimesliceExpired) demotes it one level,
// where the quantum is longer (mlfq_quantum_multiplier) but the level is scheduled
// only when no higher level has work. Blocking before the quantum expires keeps
// the process at its level, so interactive processes stay responsive while
// CPU-bound ones sink. Every mlfq_boost_period_cycles of MCU time all processes
// are boosted back to level 0 — the classic anti-starvation move, driven by the
// deterministic simulated clock, never wall time. Within a level, the monotonic
// dispatch stamp rotates peers round-robin exactly as in PriorityScheduler.
#ifndef TOCK_KERNEL_SCHED_MLFQ_H_
#define TOCK_KERNEL_SCHED_MLFQ_H_

#include "kernel/scheduler.h"

namespace tock {

class MlfqScheduler : public Scheduler {
 public:
  static constexpr size_t kLevels = SchedulerConfig::kMlfqLevels;

  using Scheduler::Scheduler;

  SchedulerPolicy policy() const override { return SchedulerPolicy::kMlfq; }

  SchedulingDecision Next(uint64_t now) override {
    MaybeBoost(now);

    Process* best = nullptr;
    for (Process& p : processes_) {
      if (!IsSchedulable(p)) {
        continue;
      }
      if (best == nullptr || p.queue_level < best->queue_level ||
          (p.queue_level == best->queue_level && p.sched_stamp < best->sched_stamp)) {
        best = &p;
      }
    }
    if (best == nullptr) {
      return SchedulingDecision{};
    }
    best->sched_stamp = ++stamp_;
    uint32_t level = best->queue_level < kLevels ? best->queue_level
                                                 : static_cast<uint32_t>(kLevels - 1);
    return SchedulingDecision{
        best, config_->timeslice_cycles * config_->scheduler.mlfq_quantum_multiplier[level]};
  }

  void ExecutionComplete(Process& p, StoppedReason reason, uint64_t now) override {
    (void)now;
    if (reason == StoppedReason::kTimesliceExpired &&
        p.queue_level + 1 < static_cast<uint32_t>(kLevels)) {
      ++p.queue_level;
    }
  }

  // How many priority boosts have fired (fault-soak asserts the anti-starvation
  // machinery actually ran). Boost points that pass unobserved coalesce into one.
  uint64_t boosts() const { return boosts_; }

 private:
  // The time-anchored prelude of every scheduling decision: anchor the boost
  // period at the first call so boot time does not count as an elapsed period,
  // then boost once any boost point has passed. Boost points sit on a fixed grid,
  // anchor + k * period, so when the policy happens to be observed (each main-loop
  // pass, whose spacing follows a fleet's epochs) never moves them.
  void MaybeBoost(uint64_t now) {
    if (!anchored_) {
      anchored_ = true;
      last_boost_ = now;
    }
    const uint64_t period = config_->scheduler.mlfq_boost_period_cycles;
    if (period > 0 && now - last_boost_ >= period) {
      Boost();
      last_boost_ += (now - last_boost_) / period * period;
    }
  }

  void Boost() {
    for (Process& p : processes_) {
      p.queue_level = 0;
      p.sched_stamp = 0;  // a boost also resets the rotation, deterministically
    }
    stamp_ = 0;
    ++boosts_;
  }

  bool anchored_ = false;
  uint64_t last_boost_ = 0;  // the latest boost point, on the grid
  uint64_t stamp_ = 0;
  uint64_t boosts_ = 0;
};

}  // namespace tock

#endif  // TOCK_KERNEL_SCHED_MLFQ_H_
