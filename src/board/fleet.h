// ERA: 2
// Fleet runtime: N SimBoards sharded across a pool of host threads, stepped in
// epoch-bounded slices on a shared timeline — the "10 million computers" half of
// the paper's title turned into a simulation substrate.
//
// Ownership rule (CompartOS-style compartment isolation): every board owns all of
// its mutable state. A board is only ever touched by the one thread stepping it
// during an epoch; the sole cross-board channel is the radio mailbox
// (hw/radio.h), which senders append to under a mutex and the owning thread
// drains at epoch boundaries. Because arrival cycles are computed on the shared
// timeline at transmit time and the epoch length never exceeds the medium's
// lookahead (minimum on-air latency), every run is bit-identical for any host
// thread count.
//
// Supervision follows the launch/sustain/check-alive pattern of fleet process
// managers: each epoch barrier the supervisor looks for wedged boards (no
// runnable process, no future hardware event) and — when configured — revives
// their dead processes through the capability-gated restart path.
#ifndef TOCK_BOARD_FLEET_H_
#define TOCK_BOARD_FLEET_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "board/sim_board.h"
#include "hw/radio.h"
#include "kernel/trace.h"

namespace tock {

struct FleetConfig {
  // Host threads stepping boards. With `steal` (the default) threads claim
  // boards from a shared per-epoch queue; otherwise boards are statically
  // sharded round-robin (board i belongs to thread i % threads). Results are
  // bit-identical for any value of `threads` and either assignment mode.
  unsigned threads = 1;
  // Work-stealing board assignment. Each epoch every thread claims the next
  // unstepped board with an atomic fetch-add, so a thread that drew only idle
  // boards keeps pulling work instead of waiting at the barrier behind a hot
  // shard. Legal because board state only crosses threads at the epoch
  // barriers, and cross-board delivery is ordered by the frame's
  // (deliver_at, sender attach index, seq) key — never by which host thread
  // stepped the receiver. `false` restores static sharding (bench baseline).
  bool steal = true;
  // Idle-board fast-forward: a board that is provably quiescent for a whole
  // epoch (no pending IRQ/deferred call/schedulable process, next clock event
  // at or past the epoch end, radio inbox empty) advances its clock without
  // entering the kernel main loop. Bit-identical to stepping — counted in
  // fleet.idle_skips (host-only; excluded from golden stat dumps).
  bool idle_skip = true;
  // Requested epoch length in cycles. Automatically clamped to the radio medium's
  // lookahead once any radio is attached, so cross-board delivery stays complete
  // and deterministic; larger values only matter for radio-less fleets, where
  // barriers are pure overhead.
  uint64_t slice = 20'000;
  // Supervision: revive the dead (terminated/faulted) processes of a board that
  // has wedged — no runnable process and no pending hardware event — for at
  // least `wedge_grace_epochs` consecutive epochs.
  bool restart_wedged = false;
  uint64_t wedge_grace_epochs = 2;
  // Seeded per-link fault model installed on the medium when Enabled(). Left
  // alone when all rates are zero, so faults installed directly via
  // RadioMedium::SetLinkFaults stand.
  LinkFaultConfig link_faults;
};

// Per-board supervision ledger.
struct BoardHealth {
  uint64_t wedge_events = 0;         // epochs this board sat wedged
  uint64_t supervised_restarts = 0;  // processes revived by the supervisor
  bool wedged = false;               // wedged at the last epoch barrier
  uint64_t consecutive_wedged = 0;   // internal: grace counter
};

// Fleet-wide aggregate of the per-board KernelStats plus MCU and radio totals.
struct FleetStats {
  KernelStats aggregate;
  uint64_t instructions = 0;
  uint64_t active_cycles = 0;
  uint64_t sleep_cycles = 0;
  uint64_t packets_sent = 0;
  uint64_t packets_received = 0;
  uint64_t rx_overruns = 0;
  // Link-fault totals, summed over every board's receive side. Deterministic:
  // faults are drawn per (seed, link, seq), so the totals are bit-identical for
  // any host thread count.
  uint64_t frames_dropped = 0;
  uint64_t frames_duplicated = 0;
  uint64_t frames_reordered = 0;
  uint64_t frames_corrupted = 0;
  size_t boards = 0;
  size_t boards_live = 0;  // boards with a live process or a pending hw event
  uint64_t wedge_events = 0;
  uint64_t supervised_restarts = 0;
};

class Fleet {
 public:
  explicit Fleet(const FleetConfig& config = FleetConfig{}) : config_(config) {
    if (config_.link_faults.Enabled()) {
      medium_.SetLinkFaults(config_.link_faults);
    }
  }

  // The shared radio channel. Point BoardConfig::medium here before constructing
  // boards that should hear each other.
  RadioMedium& medium() { return medium_; }

  void AddBoard(SimBoard* board) {
    boards_.push_back(board);
    health_.push_back(BoardHealth{});
  }
  size_t size() const { return boards_.size(); }
  SimBoard* board(size_t i) { return i < boards_.size() ? boards_[i] : nullptr; }
  const BoardHealth& health(size_t i) const { return health_[i]; }

  // Fast-forwards every board's clock to the latest board's cycle, so the fleet
  // starts epochs aligned on the shared timeline. Call after per-board Boot()
  // (whose cost differs per app mix); the skipped cycles are booked as sleep.
  void AlignClocks();

  // Advances every board `cycles` past its current time, in lockstep epochs.
  // Deterministic: per-board results are bit-identical for any `threads`.
  void Run(uint64_t cycles);

  // The epoch length Run() actually uses after the lookahead clamp.
  uint64_t EffectiveSlice() const;

  FleetStats Stats() const;

 private:
  // Steps one board through [its now, min(epoch_end, its target)): pump radio
  // mailbox, fast-forward if provably idle, otherwise run the kernel;
  // force-advance a wedged clock to keep lockstep.
  void StepBoard(size_t i, uint64_t epoch_end);
  // Barrier-time supervision for one board (single-threaded).
  void Supervise(size_t i);

  FleetConfig config_;
  RadioMedium medium_;
  std::vector<SimBoard*> boards_;
  std::vector<BoardHealth> health_;
  std::vector<uint64_t> targets_;  // per-board absolute run targets
  // Work-stealing epoch queue: reset to 0 by the coordinator before each epoch
  // gate; every thread (coordinator included) claims boards with fetch_add.
  std::atomic<size_t> next_board_{0};
};

}  // namespace tock

#endif  // TOCK_BOARD_FLEET_H_
