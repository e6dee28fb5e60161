// ERA: 2
#include "board/fleet.h"

#include <algorithm>
#include <barrier>
#include <thread>

namespace tock {

namespace {
constexpr size_t kNoBoard = SIZE_MAX;
}  // namespace

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

uint64_t Fleet::WakeOf(size_t i) {
  SimBoard* board = boards_[i];
  if (board->kernel().HasWork()) {
    return board->mcu().CyclesNow();
  }
  return std::min(board->mcu().clock().NextEventAt(), board->radio_hw().earliest_published());
}

void Fleet::SetWake(size_t i, uint64_t wake) {
  wake_[i] = wake;
  if (wake >= targets_[i]) {
    return;  // not due in this run: Run's final catch-up covers it
  }
  const size_t epoch = std::max(EpochOf(wake), next_epoch_);
  if (epoch < next_epoch_ + kRing) {
    ring_[epoch % kRing].push_back(i);
  } else {
    later_.emplace_back(wake, i);
  }
}

void Fleet::RunTo(size_t i, uint64_t cycle) {
  SimBoard* board = boards_[i];
  board->kernel().MainLoop(cycle, board->main_cap());
  // A halted (panicked) kernel stalls short of the cycle; peers may still
  // address radio frames to it, so force the clock forward to keep lockstep.
  if (board->mcu().CyclesNow() < cycle) {
    board->mcu().clock().Advance(cycle - board->mcu().CyclesNow());
  }
}

void Fleet::StepBoard(size_t i, uint64_t start, uint64_t end) {
  SimBoard* board = boards_[i];
  Radio& radio = board->radio_hw();
  if (board->mcu().CyclesNow() < start) {
    // Lazy catch-up over the epochs the board slept through: the kernel just
    // continues its open sleep. Frames published before `start` are pumped
    // first, as their own barriers would have. An event due exactly at `start`
    // fires there as at any epoch boundary: at the end of a sleep cut by the
    // deadline, without the wake-up transition.
    radio.PumpPublished(start);
    if (board->mcu().clock().NextEventAt() <= start) {
      RunTo(i, std::min(start, targets_[i]));
    }
  }
  radio.PumpPublished();
  RunTo(i, std::min(end, targets_[i]));
  // Host-side observability only (telemetry snapshot, trace-artifact flush):
  // runs on the board's owning thread while the board is quiesced, and never
  // touches simulated state — fleet fingerprints are invariant to it.
  board->OnEpochBarrier();
  wake_[i] = WakeOf(i);
}

void Fleet::OpenEpoch(size_t epoch, uint64_t end) {
  next_epoch_ = epoch + 1;
  if (epoch % kRing == 0) {
    // The ring moved a full turn: bring the wakes now within reach into it.
    size_t kept = 0;
    for (const auto& [wake, i] : later_) {
      if (wake != wake_[i]) {
        continue;  // stale
      }
      const size_t at = EpochOf(wake);
      if (at < epoch + kRing) {
        ring_[at % kRing].push_back(i);
      } else {
        later_[kept++] = {wake, i};
      }
    }
    later_.resize(kept);
  }
  due_.clear();
  std::vector<size_t>& bucket = ring_[epoch % kRing];
  for (size_t i : bucket) {
    if (wake_[i] < end && wake_[i] < targets_[i]) {
      wake_[i] = kNever;  // claimed: any duplicate entry is now stale
      due_.push_back(i);
    }
  }
  bucket.clear();
  unstepped_ += boards_.size() - due_.size();
}

void Fleet::CloseEpoch(uint64_t at) {
  // Frames enqueued during the epoch become pumpable now, whichever thread sent
  // them, so what a receiver pumps never depends on thread timing.
  medium_.PublishMail(at, [&](Radio& radio, uint64_t earliest) {
    const size_t i = board_of_radio_[radio.attach_index()];
    if (i != kNoBoard && earliest < wake_[i]) {
      SetWake(i, earliest);
    }
  });
  for (size_t i : due_) {
    if (wake_[i] != kNever) {
      SetWake(i, wake_[i]);
    } else if (!health_[i].wedged) {
      health_[i].wedged = true;
      wedged_.push_back(i);
    }
  }
  // Supervision. A board is wedged exactly when it has no wake, so the count is
  // a function of simulated state alone; only wedged boards are visited.
  size_t kept = 0;
  for (size_t k = 0; k < wedged_.size(); ++k) {
    const size_t i = wedged_[k];
    BoardHealth& health = health_[i];
    if (wake_[i] != kNever) {
      health.wedged = false;
      health.consecutive_wedged = 0;
      continue;
    }
    wedged_[kept++] = i;
    ++health.wedge_events;
    ++health.consecutive_wedged;
    if (config_.restart_wedged && health.consecutive_wedged >= config_.wedge_grace_epochs) {
      Revive(i, at);
    }
  }
  wedged_.resize(kept);
}

void Fleet::Revive(size_t i, uint64_t at) {
  // Check-alive failed for `wedge_grace_epochs` consecutive barriers. Sustain
  // the board by reviving its dead processes through the capability-gated
  // restart path — the board-local analog of a fleet process supervisor
  // relaunching a crashed worker. The board slept since it wedged: bring it to
  // the barrier first.
  SimBoard* board = boards_[i];
  BoardHealth& health = health_[i];
  RunTo(i, std::min(at, targets_[i]));
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
  SetWake(i, WakeOf(i));
}

void Fleet::Run(uint64_t cycles) {
  targets_.resize(boards_.size());
  for (size_t i = 0; i < boards_.size(); ++i) {
    targets_[i] = boards_[i]->mcu().CyclesNow() + cycles;
  }
  RunToTargets();
}

void Fleet::RunUntil(uint64_t cycle) {
  targets_.resize(boards_.size());
  for (size_t i = 0; i < boards_.size(); ++i) {
    targets_[i] = std::max(boards_[i]->mcu().CyclesNow(), cycle);
  }
  RunToTargets();
}

void Fleet::RunToTargets() {
  const size_t n = boards_.size();
  uint64_t start = UINT64_MAX;
  uint64_t end = 0;
  for (size_t i = 0; i < n; ++i) {
    start = std::min(start, boards_[i]->mcu().CyclesNow());
    end = std::max(end, targets_[i]);
  }
  if (start >= end) {
    return;
  }
  const uint64_t slice = EffectiveSlice();

  // The calendar is rebuilt on every call: callers may change boards between
  // runs (stop a process, inject input), which moves their wakes.
  board_of_radio_.assign(medium_.attached_count(), kNoBoard);
  wake_.resize(n);
  for (std::vector<size_t>& bucket : ring_) {
    bucket.clear();
  }
  later_.clear();
  run_start_ = start;
  slice_ = slice;
  next_epoch_ = 0;
  wedged_.clear();
  for (size_t i = 0; i < n; ++i) {
    Radio& radio = boards_[i]->radio_hw();
    if (radio.medium() == &medium_) {
      board_of_radio_[radio.attach_index()] = i;
    }
    SetWake(i, WakeOf(i));
    if (wake_[i] == kNever || health_[i].wedged) {
      health_[i].wedged = true;
      wedged_.push_back(i);
    }
  }

  unsigned threads = std::max(1u, config_.threads);
  threads = static_cast<unsigned>(std::min<size_t>(threads, n));

  // Each epoch the coordinator takes the due boards off the calendar, the
  // threads step them, and the coordinator closes the epoch alone. With more
  // than one thread there are two barriers per epoch that has due boards: `gate`
  // publishes the due list (and the reset steal cursor) to the workers, `done`
  // hands the quiesced boards back. The barriers are also the happens-before
  // edges that make the mailbox handoff race-free: every Enqueue in epoch k is
  // ordered before the publication at its end, and that before every pump in
  // a later epoch. Which thread steps a board never affects simulated state —
  // boards are only touched between the barriers by their claiming thread, and
  // cross-board delivery is ordered by the frame's (deliver_at, sender, seq)
  // key — so stealing keeps runs bit-identical.
  uint64_t epoch_start = start;
  uint64_t epoch_end = start;
  bool stop = false;
  const bool steal = config_.steal;
  auto step_share = [&](unsigned w) {
    if (steal) {
      size_t k;
      while ((k = next_due_.fetch_add(1, std::memory_order_relaxed)) < due_.size()) {
        StepBoard(due_[k], epoch_start, epoch_end);
      }
    } else {
      for (size_t i : due_) {
        if (i % threads == w) {
          StepBoard(i, epoch_start, epoch_end);
        }
      }
    }
  };
  std::barrier gate(static_cast<std::ptrdiff_t>(threads));
  std::barrier done(static_cast<std::ptrdiff_t>(threads));
  std::vector<std::thread> workers;
  workers.reserve(threads - 1);
  for (unsigned w = 1; w < threads; ++w) {
    workers.emplace_back([&, w] {
      while (true) {
        gate.arrive_and_wait();
        if (stop) {
          return;
        }
        step_share(w);
        done.arrive_and_wait();
      }
    });
  }

  for (size_t epoch = 0; epoch_start < end; ++epoch, epoch_start = epoch_end) {
    epoch_end = std::min(epoch_start + slice, end);
    OpenEpoch(epoch, epoch_end);
    if (!due_.empty()) {
      // Relaxed is enough: the gate barrier publishes the reset to the workers,
      // and the previous done barrier ordered their last claims before it.
      next_due_.store(0, std::memory_order_relaxed);
      if (threads > 1) {
        gate.arrive_and_wait();
      }
      step_share(0);
      if (threads > 1) {
        done.arrive_and_wait();
      }
    }
    CloseEpoch(epoch_end);
  }
  if (threads > 1) {
    stop = true;
    gate.arrive_and_wait();
    for (std::thread& worker : workers) {
      worker.join();
    }
  }

  // Lazy catch-up: every board not stepped to its target sleeps there now.
  // Frames published at barriers past its target stay armed but unfired, as a
  // stepped board's pump at those epoch starts would have left them.
  for (size_t i = 0; i < n; ++i) {
    SimBoard* board = boards_[i];
    Radio& radio = board->radio_hw();
    if (board->mcu().CyclesNow() < targets_[i]) {
      radio.PumpPublished(targets_[i]);
      RunTo(i, targets_[i]);
      board->OnEpochBarrier();
    }
    radio.PumpPublished(end);
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
  stats.aggregate.fleet_idle_skips += unstepped_;
  return stats;
}

}  // namespace tock
