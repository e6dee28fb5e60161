// ERA: 2
// Fleet runtime: N SimBoards sharded across a pool of host threads, stepped in
// epoch-bounded slices on a shared timeline — the "10 million computers" half of
// the paper's title turned into a simulation substrate.
//
// Ownership rule (CompartOS-style compartment isolation): every board owns all of
// its mutable state. A board is only ever touched by the one thread stepping it
// during an epoch; the sole cross-board channel is the radio mailbox
// (hw/radio.h), which senders append to under a mutex and the fleet publishes at
// epoch barriers. Because arrival cycles are computed on the shared timeline at
// transmit time and the epoch length never exceeds the medium's lookahead
// (minimum on-air latency), every run is bit-identical for any host thread count.
//
// Calendar: the fleet keeps one wake cycle per board and an epoch steps only the
// boards whose wake falls inside it. A board that sleeps through epochs is not
// visited; it catches up lazily, through the kernel's one sleep path, when it is
// next due or when Run ends (DESIGN.md §15).
//
// Supervision follows the launch/sustain/check-alive pattern of fleet process
// managers: at each epoch barrier every wedged board (one with no wake: nothing
// runnable, no future hardware event, no frame in flight to it) is counted and —
// when configured — has its dead processes revived through the capability-gated
// restart path.
#ifndef TOCK_BOARD_FLEET_H_
#define TOCK_BOARD_FLEET_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "board/sim_board.h"
#include "hw/radio.h"
#include "kernel/trace.h"

namespace tock {

struct FleetConfig {
  // Host threads stepping boards. With `steal` (the default) threads claim
  // the epoch's due boards from a shared queue; otherwise due boards are
  // statically sharded round-robin (board i belongs to thread i % threads).
  // Results are bit-identical for any value of `threads` and either mode.
  unsigned threads = 1;
  // Work-stealing board assignment. Each epoch every thread claims the next
  // unstepped due board with an atomic fetch-add, so a thread that drew only
  // quick boards keeps pulling work instead of waiting at the barrier behind a
  // hot shard. Legal because board state only crosses threads at the epoch
  // barriers, and cross-board delivery is ordered by the frame's
  // (deliver_at, sender attach index, seq) key — never by which host thread
  // stepped the receiver. `false` restores static sharding (bench baseline).
  bool steal = true;
  // Requested epoch length in cycles. Automatically clamped to the radio medium's
  // lookahead once any radio is attached, so cross-board delivery stays complete
  // and deterministic; larger values only matter for radio-less fleets, where
  // barriers are pure overhead.
  uint64_t slice = 20'000;
  // Supervision: revive the dead (terminated/faulted) processes of a board that
  // has wedged — it has no wake — for at least `wedge_grace_epochs` consecutive
  // epoch barriers.
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
  // Deterministic: per-board results are bit-identical for any `threads`. A
  // board busy at its target (inside a syscall or a context switch) ends a few
  // cycles past it, and a later Run counts from there.
  void Run(uint64_t cycles);
  // Advances every board to cycle `cycle` (a board already past it stays where
  // it is). A span split into RunUntil calls at epoch boundaries leaves every
  // board exactly as one call would (DESIGN.md §15).
  void RunUntil(uint64_t cycle);

  // The epoch length Run() actually uses after the lookahead clamp.
  uint64_t EffectiveSlice() const;

  FleetStats Stats() const;

 private:
  static constexpr uint64_t kNever = UINT64_MAX;

  // Runs the epoch loop from the earliest board to targets_.
  void RunToTargets();

  // The cycle from which board i has work: now if it has a pending interrupt,
  // deferred call or schedulable process; else its next clock event or the
  // earliest published frame in its mailbox, whichever is first; kNever if none.
  uint64_t WakeOf(size_t i);
  void SetWake(size_t i, uint64_t wake);
  // Runs board i's kernel to `cycle`, and forces a halted board's clock there
  // so peers' frames still land on the shared timeline.
  void RunTo(size_t i, uint64_t cycle);
  // Steps a due board through the epoch [start, end): it first catches up to
  // `start` (pumping the frames published before it), then pumps the frames
  // published at `start` and runs to min(end, its target).
  void StepBoard(size_t i, uint64_t start, uint64_t end);
  // Collects epoch `epoch`'s due boards (wake before `end`) into due_.
  void OpenEpoch(size_t epoch, uint64_t end);
  // Barrier work, single-threaded: publish the epoch's mail (lowering each
  // receiver's wake), re-queue the stepped boards, then supervise wedged boards.
  void CloseEpoch(uint64_t at);
  // Supervisor restart of a wedged board at barrier `at`: catch it up to the
  // barrier, revive its dead processes and give it its new wake.
  void Revive(size_t i, uint64_t at);

  FleetConfig config_;
  RadioMedium medium_;
  std::vector<SimBoard*> boards_;
  std::vector<BoardHealth> health_;
  std::vector<uint64_t> targets_;  // per-board absolute run targets
  // The calendar. wake_[i] is board i's wake; each wake inside the run has an
  // entry in the bucket of the epoch it falls in, kept in a ring of kRing epochs
  // from the next one on, or in later_ while it lies further out. An entry whose
  // board's wake has since moved is stale and is dropped when its bucket opens.
  static constexpr size_t kRing = 64;
  size_t EpochOf(uint64_t cycle) const {
    return cycle <= run_start_ ? 0 : static_cast<size_t>((cycle - run_start_) / slice_);
  }
  std::vector<uint64_t> wake_;
  std::array<std::vector<size_t>, kRing> ring_;
  std::vector<std::pair<uint64_t, size_t>> later_;
  uint64_t run_start_ = 0;
  uint64_t slice_ = 1;
  size_t next_epoch_ = 0;  // the first epoch not yet opened
  std::vector<size_t> due_;     // boards stepped in the current epoch
  std::vector<size_t> wedged_;  // boards with health_[i].wedged set
  std::vector<size_t> board_of_radio_;  // medium attach index -> board index
  uint64_t unstepped_ = 0;  // board-epochs not stepped (fleet.idle_skips)
  // Work-stealing epoch queue over due_: reset to 0 by the coordinator before
  // each epoch gate; every thread (coordinator included) claims with fetch_add.
  std::atomic<size_t> next_due_{0};
};

}  // namespace tock

#endif  // TOCK_BOARD_FLEET_H_
