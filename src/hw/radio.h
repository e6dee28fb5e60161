// ERA: 1
// Packet radio and shared medium — the substrate for the Signpost-style multi-node
// deployments Tock was designed for (§2). A broadcast (dst 0xFFFF) goes to every
// other radio attached to the same RadioMedium, a unicast frame only to the radio
// whose strapped node address matches its dst; either arrives after an on-air
// latency proportional to packet size.
//
// Cross-board delivery is mailbox-based: the sender computes the absolute arrival
// cycle on the shared timeline (its own clock at transmit time plus the on-air
// latency) and enqueues the frame into each receiver's inbound mailbox. The
// mailbox is double-buffered: frames enqueued during a fleet epoch are published
// at the barrier that ends it (board/fleet.h), and only published frames are
// pumped onto the receiver's own clock, which delivers each one when it reaches
// the arrival cycle. Nothing ever touches another board's clock, so boards can be
// stepped from different host threads, and what a receiver pumps depends only on
// simulated time — not on which board stepped first, on which thread, or on the
// stepping slice.
#ifndef TOCK_HW_RADIO_H_
#define TOCK_HW_RADIO_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "hw/costs.h"
#include "hw/interrupt.h"
#include "hw/memory_bus.h"
#include "hw/sim_clock.h"
#include "util/registers.h"

namespace tock {

class RadioMedium;

struct RadioRegs {
  static constexpr uint32_t kCtrl = 0x00;
  static constexpr uint32_t kStatus = 0x04;
  static constexpr uint32_t kIntClr = 0x08;
  static constexpr uint32_t kTxAddr = 0x0C;
  static constexpr uint32_t kTxLen = 0x10;  // write starts TX
  static constexpr uint32_t kRxAddr = 0x14;
  static constexpr uint32_t kRxMaxLen = 0x18;
  static constexpr uint32_t kRxLen = 0x1C;     // RO: length of last received packet
  // RO strap: this node's 16-bit address, fixed when the board builds the radio.
  static constexpr uint32_t kNodeAddr = 0x20;
  static constexpr uint32_t kDstAddr = 0x24;   // destination (0xFFFF broadcast)

  struct Ctrl {
    static constexpr Field<uint32_t> kEnable{0, 1};
    static constexpr Field<uint32_t> kRxEnable{1, 1};
  };
  struct Status {
    static constexpr Field<uint32_t> kTxDone{0, 1};
    static constexpr Field<uint32_t> kRxDone{1, 1};
    static constexpr Field<uint32_t> kTxBusy{2, 1};
    // A packet arrived while kRxDone was still set (unconsumed frame in the RX
    // buffer). The new packet was dropped; the buffer is untouched.
    static constexpr Field<uint32_t> kRxOverrun{3, 1};
  };
};

// Fault-injection marks carried by a frame (and surfaced in the delivery log so
// determinism tests can assert fault injection itself is reproducible).
inline constexpr uint8_t kFaultCorrupted = 0x01;   // a payload bit was flipped
inline constexpr uint8_t kFaultReordered = 0x02;   // arrival delayed past later frames
inline constexpr uint8_t kFaultDuplicated = 0x04;  // this frame is the extra copy

// Per-link fault model, drawn per (sender, receiver, seq) from a counter-mode
// hash of the seed — a pure function of frame identity, so the exact same frames
// are dropped/duplicated/reordered/corrupted regardless of host thread count,
// stepping slice, or board step order. Faults only ever ADD latency (reorder and
// duplicate delays are positive), so the medium's lookahead bound — the minimum
// on-air latency — still holds and the epoch-stepping determinism argument is
// untouched.
struct LinkFaultConfig {
  uint64_t seed = 0;
  uint32_t drop_permille = 0;       // frame silently lost (per receiver)
  uint32_t duplicate_permille = 0;  // second copy arrives duplicate_delay later
  uint32_t reorder_permille = 0;    // arrival pushed back by reorder_delay
  uint32_t corrupt_permille = 0;    // one payload bit flipped (position seeded too)
  uint64_t reorder_delay = CycleCosts::kRadioCyclesPerByte * 9 * 3;
  uint64_t duplicate_delay = CycleCosts::kRadioCyclesPerByte * 9;

  bool Enabled() const {
    return (drop_permille | duplicate_permille | reorder_permille | corrupt_permille) != 0;
  }
};

// Receiver-side tally of injected link faults, guarded by the radio's inbox
// mutex (fault draws happen on the sender's thread). Every link's draws are
// tallied, whether or not the frame was addressed to this receiver.
struct LinkFaultCounters {
  uint64_t dropped = 0;
  uint64_t duplicated = 0;
  uint64_t reordered = 0;
  uint64_t corrupted = 0;

  bool operator==(const LinkFaultCounters&) const = default;
};

// A packet in flight: the absolute arrival cycle on the shared timeline plus a
// (sender, sequence) key that totally orders same-cycle arrivals no matter which
// host thread enqueued them first. Every receiver of a transmission shares one
// immutable payload; a corrupted frame carries its own flipped copy.
struct RadioFrame {
  uint64_t deliver_at = 0;
  uint32_t sender = 0;  // attach index of the transmitting radio (wiring order)
  uint64_t seq = 0;     // sender-local packet sequence number
  uint16_t src = 0;
  uint16_t dst = 0;
  uint8_t fault_bits = 0;  // kFault* marks applied by the medium's fault layer
  std::shared_ptr<const std::vector<uint8_t>> payload;
};

// One accepted (or overrun-dropped) delivery, for determinism regression tests:
// two runs of the same fleet must produce byte-identical logs regardless of host
// thread count, stepping slice, or board step order.
struct RadioDeliveryRecord {
  uint64_t cycle = 0;
  uint16_t src = 0;
  uint16_t dst = 0;
  uint32_t len = 0;
  uint32_t payload_sum = 0;  // order-sensitive checksum of the payload bytes
  uint8_t fault_bits = 0;    // kFault* marks the medium stamped on the frame
  bool overrun = false;

  bool operator==(const RadioDeliveryRecord&) const = default;
};

class Radio : public MmioDevice {
 public:
  static constexpr uint32_t kMaxPacket = 256;

  Radio(SimClock* clock, MemoryBus* bus, InterruptLine irq, uint16_t node_addr)
      : clock_(clock), bus_(bus), irq_(irq), node_addr_(node_addr) {
    tx_done_.Open<&Radio::FinishTx>(clock, this);
    delivery_.Open<&Radio::DeliverPending>(clock, this);
  }

  uint32_t MmioRead(uint32_t offset) override;
  void MmioWrite(uint32_t offset, uint32_t value) override;

  // Medium side: enqueues a frame into the inbound mailbox. The only radio entry
  // point that may be called from a foreign (sender-board) thread.
  void Enqueue(RadioFrame frame);

  // Fleet side, at an epoch barrier (no sender running): publishes every frame
  // enqueued since the last barrier as the batch of cycle `barrier`, and returns
  // its earliest arrival.
  uint64_t Publish(uint64_t barrier);
  // Owner side: merges the frames published at barriers before `barrier` into the
  // time-sorted pending set and arms the delivery channel on this board's own
  // clock. The fleet pumps each batch no later than the epoch that starts at its
  // barrier (board/fleet.cc).
  void PumpPublished(uint64_t barrier = UINT64_MAX) {
    if (!batches_.empty() && batches_.front().barrier < barrier) {
      PumpBatches(barrier);
    }
  }
  // Earliest arrival among published, unpumped frames (UINT64_MAX if none).
  uint64_t earliest_published() const {
    uint64_t earliest = UINT64_MAX;
    for (const RadioFrame& frame : published_) {
      earliest = std::min(earliest, frame.deliver_at);
    }
    return earliest;
  }

  // Owner side, without a fleet: publishes and pumps everything enqueued so far.
  // Unit tests driving bare radios call it after each transmission.
  void PumpInbox();

  // The strap: written only by the constructor, so sender threads read it
  // without a lock.
  uint16_t node_addr() const { return node_addr_; }
  SimClock* clock() { return clock_; }

  void set_medium(RadioMedium* medium, uint32_t attach_index) {
    medium_ = medium;
    attach_index_ = attach_index;
  }
  RadioMedium* medium() const { return medium_; }
  uint32_t attach_index() const { return attach_index_; }

  uint64_t packets_sent() const { return packets_sent_; }
  uint64_t packets_received() const { return packets_received_; }
  uint64_t rx_overruns() const { return rx_overruns_; }

  // Medium side: adds the faults drawn for one frame on this link. May be called
  // from a foreign (sender-board) thread, like Enqueue.
  void CountFaults(const LinkFaultCounters& drawn);
  // Snapshot of the injected-fault tally for this receiver.
  LinkFaultCounters fault_counters();

  // Delivery logging for determinism tests; off by default (fleet soaks would
  // otherwise accumulate unbounded host memory).
  void EnableDeliveryLog() { log_deliveries_ = true; }
  const std::vector<RadioDeliveryRecord>& delivery_log() const { return delivery_log_; }

 private:
  uint64_t PublishLocked(uint64_t barrier);  // inbox_mutex_ held
  void PumpBatches(uint64_t barrier);
  void StartTx(uint32_t len);
  void FinishTx();
  // Delivery channel handler: delivers every pending frame whose arrival cycle
  // has been reached, in (deliver_at, sender, seq) order, then re-arms.
  void DeliverPending();
  void ArmDelivery();
  // Lands one frame in the RX buffer (the medium enqueues only frames addressed
  // to this node or broadcast), or drops it as an overrun while an unconsumed
  // frame still occupies the buffer.
  void Deliver(const RadioFrame& frame);

  SimClock* clock_;
  MemoryBus* bus_;
  InterruptLine irq_;
  RadioMedium* medium_ = nullptr;
  uint32_t attach_index_ = 0;

  ReadWriteReg<uint32_t> ctrl_;
  ReadOnlyReg<uint32_t> status_;
  uint32_t tx_addr_ = 0;
  uint32_t rx_addr_ = 0;
  uint32_t rx_max_len_ = 0;
  uint32_t rx_len_ = 0;
  const uint16_t node_addr_;
  uint32_t dst_addr_ = 0xFFFF;
  uint64_t packets_sent_ = 0;
  uint64_t packets_received_ = 0;
  uint64_t rx_overruns_ = 0;

  // Inbound mailbox: written by sender threads under the mutex, published at
  // barriers. fault_counters_ is also written by sender threads (the fault draws
  // happen at transmit time) and so lives under the same mutex. `listed_` is set
  // while the radio sits in the medium's list of radios with mail.
  std::mutex inbox_mutex_;
  std::vector<RadioFrame> inbox_;
  bool listed_ = false;
  LinkFaultCounters fault_counters_;
  // Published frames, oldest batch first: written at barriers, pumped by the
  // owner. Batch k is published_[batches_[k-1].end, batches_[k].end).
  struct Batch {
    uint64_t barrier = 0;
    size_t end = 0;
  };
  std::vector<RadioFrame> published_;
  std::vector<Batch> batches_;
  // Owner-thread-only: sorted by (deliver_at, sender, seq); [pending_head_, end)
  // is still to be delivered.
  std::vector<RadioFrame> pending_;
  size_t pending_head_ = 0;

  bool log_deliveries_ = false;
  std::vector<RadioDeliveryRecord> delivery_log_;

  SimClock::Channel tx_done_;
  SimClock::Channel delivery_;  // armed at pending_[pending_head_].deliver_at
};

// The shared channel connecting all radios in a simulated deployment. Each radio
// has its own MCU and clock; a transmission stamps its arrival cycle from the
// *sender's* clock and lands in each receiver's mailbox.
//
// Transmit only enqueues; the Fleet (board/fleet.h) publishes the mailboxes that
// got mail at each epoch barrier and pumps a board's published frames when it
// steps the board. As long as the epoch length is at most Lookahead() — the
// minimum possible on-air latency — every frame is published before its
// receiver's epoch reaches the arrival cycle, so delivery traces are
// bit-identical for any host thread count and any stepping slice.
class RadioMedium {
 public:
  // Minimum on-air latency of any transmission (1 payload byte + 8 bytes of
  // preamble/framing): the conservative lookahead bound for epoch-based stepping.
  static constexpr uint64_t kLookahead = CycleCosts::kRadioCyclesPerByte * 9;
  static constexpr uint64_t Lookahead() { return kLookahead; }

  void Attach(Radio* radio) {
    radio->set_medium(this, static_cast<uint32_t>(radios_.size()));
    radios_.push_back(radio);
  }

  size_t attached_count() const { return radios_.size(); }

  // Installs (or clears, with a default-constructed config) the per-link fault
  // model. Call before traffic starts; the draws are keyed off each frame's
  // (sender, receiver, seq) identity, so installing the same config reproduces
  // the same faults in any execution.
  void SetLinkFaults(const LinkFaultConfig& faults) { faults_ = faults; }
  const LinkFaultConfig& link_faults() const { return faults_; }

  // Sends from `sender`: a broadcast (dst 0xFFFF) is enqueued at every other
  // attached radio, a unicast frame only at the radio whose node address is
  // `dst`. Filtering here rather than on arrival is exact, because the address
  // is a strap, and it keeps a frame addressed elsewhere from ever waking a
  // receiver. Every other radio's link still draws its faults and tallies them.
  void Transmit(Radio* sender, uint16_t src, uint16_t dst, std::vector<uint8_t> payload);

  // Fleet side, at an epoch barrier: publishes the mailbox of every radio that
  // got mail since the last barrier and calls `on_mail(radio, earliest arrival)`
  // for each. Radios that got no mail are not touched.
  template <typename Fn>
  void PublishMail(uint64_t barrier, Fn&& on_mail) {
    {
      std::lock_guard<std::mutex> lock(mail_mutex_);
      publishing_.swap(mail_);
    }
    for (Radio* radio : publishing_) {
      on_mail(*radio, radio->Publish(barrier));
    }
    publishing_.clear();
  }

 private:
  friend class Radio;
  // Called by Radio::Enqueue, under the receiver's mailbox mutex, the first time
  // its mailbox gets mail since it was last published, so a radio is listed at
  // most once.
  void ListMail(Radio* receiver) {
    std::lock_guard<std::mutex> lock(mail_mutex_);
    mail_.push_back(receiver);
  }

  LinkFaultConfig faults_;
  std::vector<Radio*> radios_;
  std::mutex mail_mutex_;
  std::vector<Radio*> mail_;  // radios with mail since the last barrier
  std::vector<Radio*> publishing_;
};

}  // namespace tock

#endif  // TOCK_HW_RADIO_H_
