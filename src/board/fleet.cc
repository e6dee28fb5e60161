// ERA: 2
#include "board/fleet.h"

#include <algorithm>
#include <barrier>
#include <thread>

namespace tock {

void Fleet::AlignClocks() {
  uint64_t max_now = 0;
  for (SimBoard* board : boards_) {
    max_now = std::max(max_now, board->mcu().CyclesNow());
  }
  for (SimBoard* board : boards_) {
    uint64_t now = board->mcu().CyclesNow();
    if (now < max_now) {
      // Alignment happens before the measured run: the skipped cycles pass
      // outside the active/sleep energy accounting, firing any boot-scheduled
      // events on the way.
      board->mcu().clock().Advance(max_now - now);
    }
  }
}

uint64_t Fleet::EffectiveSlice() const {
  uint64_t slice = config_.slice == 0 ? 1 : config_.slice;
  if (medium_.attached_count() > 0) {
    // Conservative-parallel stepping: an epoch may never outrun the earliest
    // possible radio arrival, or a receiver could simulate past a frame still
    // sitting in its mailbox.
    slice = std::min(slice, RadioMedium::Lookahead());
  }
  return slice;
}

void Fleet::StepBoard(size_t i, uint64_t epoch_end) {
  SimBoard* board = boards_[i];
  // Drain frames peers sent during earlier epochs onto this board's own clock.
  board->radio_hw().PumpInbox();
  uint64_t target = std::min(epoch_end, targets_[i]);
  if (board->mcu().CyclesNow() >= target) {
    return;
  }
  // Idle fast-forward: a board that is provably quiescent until `target` — and
  // whose radio inbox holds no un-pumped frame (belt and braces: the lookahead
  // clamp already guarantees in-flight frames deliver at or past epoch_end) —
  // skips the kernel main loop entirely. TryIdleFastForward replays the one
  // main-loop pass stepping would have made, byte for byte, so simulated state
  // is bit-identical either way; only the host-only fleet.idle_skips counter
  // records that the shortcut was taken.
  if (config_.idle_skip && board->radio_hw().InboxEmpty() &&
      board->kernel().TryIdleFastForward(target, board->main_cap())) {
    board->OnEpochBarrier();
    return;
  }
  board->kernel().MainLoop(target, board->main_cap());
  // A wedged (or panicked) board stalls short of the target; peers may still
  // address radio frames to it, so force the clock forward to preserve lockstep.
  if (board->mcu().CyclesNow() < target) {
    board->mcu().clock().Advance(target - board->mcu().CyclesNow());
  }
  // Host-side observability only (telemetry snapshot, trace-artifact flush):
  // runs on the board's owning thread while the board is quiesced, and never
  // touches simulated state — fleet fingerprints are invariant to it.
  board->OnEpochBarrier();
}

void Fleet::Supervise(size_t i) {
  SimBoard* board = boards_[i];
  BoardHealth& health = health_[i];
  if (!board->mcu().wedged()) {
    health.wedged = false;
    health.consecutive_wedged = 0;
    return;
  }
  health.wedged = true;
  ++health.wedge_events;
  ++health.consecutive_wedged;
  if (!config_.restart_wedged || health.consecutive_wedged < config_.wedge_grace_epochs) {
    return;
  }
  // Check-alive failed for `wedge_grace_epochs` consecutive barriers (the grace
  // period covers a board that merely idles while a frame sits un-pumped in its
  // mailbox). Sustain the board by reviving its dead processes through the
  // capability-gated restart path — the board-local analog of a fleet process
  // supervisor relaunching a crashed worker.
  Kernel& kernel = board->kernel();
  for (size_t p = 0; p < Kernel::kMaxProcesses; ++p) {
    Process* proc = kernel.process(p);
    if (proc == nullptr || !proc->id.IsValid()) {
      continue;
    }
    if (proc->state == ProcessState::kTerminated || proc->state == ProcessState::kFaulted) {
      if (kernel.RestartProcess(proc->id, board->pm_cap()).ok()) {
        ++health.supervised_restarts;
      }
    }
  }
  health.consecutive_wedged = 0;
  board->mcu().ClearWedged();
}

void Fleet::Run(uint64_t cycles) {
  if (boards_.empty() || cycles == 0) {
    return;
  }
  uint64_t slice = EffectiveSlice();
  targets_.resize(boards_.size());
  uint64_t start = UINT64_MAX;
  uint64_t end = 0;
  for (size_t i = 0; i < boards_.size(); ++i) {
    uint64_t now = boards_[i]->mcu().CyclesNow();
    targets_[i] = now + cycles;
    start = std::min(start, now);
    end = std::max(end, targets_[i]);
  }

  unsigned threads = std::max(1u, config_.threads);
  threads = static_cast<unsigned>(
      std::min<size_t>(threads, boards_.size()));

  if (threads == 1) {
    for (uint64_t t = start; t < end;) {
      uint64_t epoch_end = std::min(t + slice, end);
      for (size_t i = 0; i < boards_.size(); ++i) {
        StepBoard(i, epoch_end);
      }
      for (size_t i = 0; i < boards_.size(); ++i) {
        Supervise(i);
      }
      t = epoch_end;
    }
    return;
  }

  // Sharded run. Two board→thread assignment modes — work-stealing (default):
  // every thread claims the next unstepped board with an atomic fetch-add, so a
  // thread whose boards all idle-skip keeps pulling work instead of idling at
  // the barrier behind a hot shard; static: board i belongs to thread
  // i % threads (bench baseline). Either way there are two barriers per epoch:
  // `gate` publishes the epoch plan (and the reset steal cursor) to the
  // workers, `done` hands the quiesced boards back to the coordinator for
  // supervision. The barriers are also the happens-before edges that make the
  // mailbox handoff race-free: every Enqueue in epoch k is ordered before every
  // PumpInbox in epoch k+1. Which thread steps a board never affects simulated
  // state — boards are only touched between the barriers by their claiming
  // thread, and cross-board delivery is ordered by the frame's
  // (deliver_at, sender, seq) key — so stealing keeps runs bit-identical.
  uint64_t epoch_end = 0;
  bool stop = false;
  const bool steal = config_.steal;
  std::barrier gate(static_cast<std::ptrdiff_t>(threads));
  std::barrier done(static_cast<std::ptrdiff_t>(threads));

  auto step_claimed = [&] {
    size_t i;
    while ((i = next_board_.fetch_add(1, std::memory_order_relaxed)) <
           boards_.size()) {
      StepBoard(i, epoch_end);
    }
  };

  std::vector<std::thread> workers;
  workers.reserve(threads - 1);
  for (unsigned w = 1; w < threads; ++w) {
    workers.emplace_back([&, w] {
      while (true) {
        gate.arrive_and_wait();
        if (stop) {
          return;
        }
        if (steal) {
          step_claimed();
        } else {
          for (size_t i = w; i < boards_.size(); i += threads) {
            StepBoard(i, epoch_end);
          }
        }
        done.arrive_and_wait();
      }
    });
  }

  for (uint64_t t = start; t < end;) {
    epoch_end = std::min(t + slice, end);
    // Relaxed is enough: the gate barrier below publishes the reset to the
    // workers, and the previous done barrier ordered their last claims before
    // this store.
    next_board_.store(0, std::memory_order_relaxed);
    gate.arrive_and_wait();
    if (steal) {
      step_claimed();
    } else {
      for (size_t i = 0; i < boards_.size(); i += threads) {
        StepBoard(i, epoch_end);
      }
    }
    done.arrive_and_wait();
    // Single-threaded at the barrier: supervision decisions are made on quiesced
    // boards, so they are a pure function of simulated state.
    for (size_t i = 0; i < boards_.size(); ++i) {
      Supervise(i);
    }
    t = epoch_end;
  }
  stop = true;
  gate.arrive_and_wait();
  for (std::thread& worker : workers) {
    worker.join();
  }
}

FleetStats Fleet::Stats() const {
  FleetStats stats;
  stats.boards = boards_.size();
  for (size_t i = 0; i < boards_.size(); ++i) {
    SimBoard* board = boards_[i];
    stats.aggregate.Accumulate(board->kernel().stats());
    stats.instructions += board->kernel().instructions_retired();
    stats.active_cycles += board->mcu().active_cycles();
    stats.sleep_cycles += board->mcu().sleep_cycles();
    stats.packets_sent += board->radio_hw().packets_sent();
    stats.packets_received += board->radio_hw().packets_received();
    stats.rx_overruns += board->radio_hw().rx_overruns();
    LinkFaultCounters faults = board->radio_hw().fault_counters();
    stats.frames_dropped += faults.dropped;
    stats.frames_duplicated += faults.duplicated;
    stats.frames_reordered += faults.reordered;
    stats.frames_corrupted += faults.corrupted;
    if (board->kernel().NumLiveProcesses() > 0 ||
        board->mcu().clock().HasPendingEvents()) {
      ++stats.boards_live;
    }
    stats.wedge_events += health_[i].wedge_events;
    stats.supervised_restarts += health_[i].supervised_restarts;
  }
  return stats;
}

}  // namespace tock
