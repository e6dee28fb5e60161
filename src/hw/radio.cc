// ERA: 1
#include "hw/radio.h"

#include <algorithm>
#include <tuple>

namespace tock {

uint32_t Radio::MmioRead(uint32_t offset) {
  switch (offset) {
    case RadioRegs::kCtrl:
      return ctrl_.Get();
    case RadioRegs::kStatus:
      return status_.Get();
    case RadioRegs::kRxLen:
      return rx_len_;
    case RadioRegs::kNodeAddr:
      return node_addr_;
    case RadioRegs::kDstAddr:
      return dst_addr_;
    default:
      return 0;
  }
}

void Radio::MmioWrite(uint32_t offset, uint32_t value) {
  switch (offset) {
    case RadioRegs::kCtrl:
      ctrl_.Set(value);
      return;
    case RadioRegs::kIntClr:
      status_.HwModify(FieldValue<uint32_t>{value, 0});
      return;
    case RadioRegs::kTxAddr:
      tx_addr_ = value;
      return;
    case RadioRegs::kTxLen:
      StartTx(value);
      return;
    case RadioRegs::kRxAddr:
      rx_addr_ = value;
      return;
    case RadioRegs::kRxMaxLen:
      rx_max_len_ = value;
      return;
    case RadioRegs::kDstAddr:
      dst_addr_ = value & 0xFFFF;
      return;
    default:
      return;
  }
}

void Radio::StartTx(uint32_t len) {
  if (!ctrl_.IsSet(RadioRegs::Ctrl::kEnable) || medium_ == nullptr || len == 0 ||
      len > kMaxPacket || status_.IsSet(RadioRegs::Status::kTxBusy)) {
    return;
  }
  std::vector<uint8_t> payload(len);
  if (!bus_->ReadBlock(tx_addr_, payload.data(), len)) {
    return;
  }
  status_.HwModify(RadioRegs::Status::kTxBusy.Set());
  ++packets_sent_;

  medium_->Transmit(this, node_addr_, static_cast<uint16_t>(dst_addr_), std::move(payload));

  tx_done_.ArmAfter(CycleCosts::kRadioCyclesPerByte * (len + 8));
}

void Radio::FinishTx() {
  status_.HwModify(RadioRegs::Status::kTxBusy.Clear());
  status_.HwModify(RadioRegs::Status::kTxDone.Set());
  irq_.Raise();
}

void Radio::Enqueue(RadioFrame frame) {
  std::lock_guard<std::mutex> lock(inbox_mutex_);
  if (!listed_) {
    listed_ = true;
    medium_->ListMail(this);
  }
  inbox_.push_back(std::move(frame));
}

void Radio::CountFaults(const LinkFaultCounters& drawn) {
  std::lock_guard<std::mutex> lock(inbox_mutex_);
  fault_counters_.dropped += drawn.dropped;
  fault_counters_.duplicated += drawn.duplicated;
  fault_counters_.reordered += drawn.reordered;
  fault_counters_.corrupted += drawn.corrupted;
}

LinkFaultCounters Radio::fault_counters() {
  std::lock_guard<std::mutex> lock(inbox_mutex_);
  return fault_counters_;
}

namespace {
bool FrameOrder(const RadioFrame& a, const RadioFrame& b) {
  // fault_bits breaks the tie between a frame and its duplicate when the
  // configured duplicate delay collapses to zero — the order must never fall to
  // std::sort's whim.
  return std::tie(a.deliver_at, a.sender, a.seq, a.fault_bits) <
         std::tie(b.deliver_at, b.sender, b.seq, b.fault_bits);
}
}  // namespace

uint64_t Radio::Publish(uint64_t barrier) {
  std::lock_guard<std::mutex> lock(inbox_mutex_);
  listed_ = false;
  return PublishLocked(barrier);
}

uint64_t Radio::PublishLocked(uint64_t barrier) {
  uint64_t earliest = UINT64_MAX;
  for (RadioFrame& frame : inbox_) {
    earliest = std::min(earliest, frame.deliver_at);
    published_.push_back(std::move(frame));
  }
  inbox_.clear();
  batches_.push_back(Batch{barrier, published_.size()});
  return earliest;
}

void Radio::PumpBatches(uint64_t barrier) {
  size_t batches = 0;
  while (batches < batches_.size() && batches_[batches].barrier < barrier) {
    ++batches;
  }
  const size_t count = batches_[batches - 1].end;
  batches_.erase(batches_.begin(), batches_.begin() + static_cast<long>(batches));
  for (Batch& batch : batches_) {
    batch.end -= count;
  }
  const auto pumped = published_.begin() + static_cast<long>(count);
  // Frames from several sender threads land in the mailbox in host-race order,
  // but the sort key is a pure function of the frames, so the delivery order is
  // not. Only the pumped frames are sorted; they merge into the sorted pending
  // tail.
  std::sort(published_.begin(), pumped, FrameOrder);
  pending_.erase(pending_.begin(), pending_.begin() + static_cast<long>(pending_head_));
  pending_head_ = 0;
  const bool in_order = pending_.empty() || !FrameOrder(*published_.begin(), pending_.back());
  const size_t mid = pending_.size();
  pending_.insert(pending_.end(), std::make_move_iterator(published_.begin()),
                  std::make_move_iterator(pumped));
  if (!in_order) {
    std::inplace_merge(pending_.begin(), pending_.begin() + static_cast<long>(mid),
                       pending_.end(), FrameOrder);
  }
  published_.erase(published_.begin(), pumped);
  ArmDelivery();
}

void Radio::PumpInbox() {
  {
    std::lock_guard<std::mutex> lock(inbox_mutex_);
    // `listed_` stays set: without a fleet nobody drains the medium's mail list,
    // and a listed radio is never listed twice.
    PublishLocked(0);
  }
  PumpPublished();
}

void Radio::ArmDelivery() {
  if (pending_head_ == pending_.size()) {
    return;
  }
  uint64_t at = pending_[pending_head_].deliver_at;
  if (delivery_.armed() && at >= delivery_.deadline()) {
    return;  // the armed deadline is no later: it sweeps this frame too
  }
  delivery_.ArmAt(at);
}

void Radio::DeliverPending() {
  uint64_t now = clock_->Now();
  while (pending_head_ < pending_.size() && pending_[pending_head_].deliver_at <= now) {
    Deliver(pending_[pending_head_++]);
  }
  if (pending_head_ == pending_.size()) {
    pending_.clear();
    pending_head_ = 0;
  }
  ArmDelivery();
}

void Radio::Deliver(const RadioFrame& frame) {
  if (!ctrl_.IsSet(RadioRegs::Ctrl::kEnable) || !ctrl_.IsSet(RadioRegs::Ctrl::kRxEnable)) {
    return;  // radio off: packet lost, as on air
  }
  if (rx_addr_ == 0 || rx_max_len_ == 0) {
    return;  // no receive buffer armed: packet lost
  }
  const std::vector<uint8_t>& payload = *frame.payload;
  uint32_t len = static_cast<uint32_t>(payload.size());
  if (len > rx_max_len_) {
    len = rx_max_len_;  // truncate oversized packets
  }
  // Overrun: the previous frame is still unconsumed. Real receivers have one RX
  // FIFO slot, so the new packet is dropped on the floor — it must not overwrite
  // the buffer the driver is about to read.
  bool overrun = status_.IsSet(RadioRegs::Status::kRxDone);
  if (log_deliveries_) {
    uint32_t sum = 0;
    for (uint32_t i = 0; i < len; ++i) {
      sum = sum * 31 + payload[i];
    }
    delivery_log_.push_back(RadioDeliveryRecord{clock_->Now(), frame.src, frame.dst, len, sum,
                                                frame.fault_bits, overrun});
  }
  if (overrun) {
    ++rx_overruns_;
    status_.HwModify(RadioRegs::Status::kRxOverrun.Set());
    return;
  }
  bus_->WriteBlock(rx_addr_, payload.data(), len);
  rx_len_ = len;
  ++packets_received_;
  status_.HwModify(RadioRegs::Status::kRxDone.Set());
  irq_.Raise();
}

namespace {

// SplitMix64 finalizer: the per-link fault source. Chained over (seed, sender,
// receiver, seq, draw index) it gives each fault decision an independent,
// uniformly distributed 64-bit draw that is a pure function of frame identity —
// no shared RNG state, so sender threads never race and replays are exact.
uint64_t MixFault(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

uint64_t FaultDraw(const LinkFaultConfig& faults, uint32_t sender, uint32_t receiver,
                   uint64_t seq, uint32_t draw) {
  uint64_t h = MixFault(faults.seed ^ 0x4F54414C494E4Bull);  // "OTALINK"
  h = MixFault(h ^ sender);
  h = MixFault(h ^ receiver);
  h = MixFault(h ^ seq);
  return MixFault(h ^ draw);
}

bool FaultHits(uint64_t draw, uint32_t permille) { return draw % 1000 < permille; }

}  // namespace

void RadioMedium::Transmit(Radio* sender, uint16_t src, uint16_t dst,
                           std::vector<uint8_t> payload) {
  // Arrival time lives on the shared timeline: the sender's clock at transmit
  // time plus the on-air latency. Using the receiver's clock here (as the old
  // implementation did) made arrival depend on which board happened to have
  // stepped further — a stepping-order hazard single-threaded and a data race
  // sharded.
  uint64_t latency = CycleCosts::kRadioCyclesPerByte * (payload.size() + 8);
  uint64_t deliver_at = sender->clock()->Now() + latency;
  uint64_t seq = sender->packets_sent();
  const uint32_t sender_idx = sender->attach_index();
  const bool faulty = faults_.Enabled();
  const auto shared = std::make_shared<const std::vector<uint8_t>>(std::move(payload));
  for (Radio* r : radios_) {
    // The address filter. The node address is a strap, so this is the answer
    // the receiver would give on arrival; a frame addressed elsewhere is never in
    // flight to it and never wakes it.
    const bool addressed = dst == 0xFFFF || dst == r->node_addr();
    if (r == sender || (!addressed && !faulty)) {
      continue;
    }
    RadioFrame frame{deliver_at, sender_idx, seq, src, dst, /*fault_bits=*/0, nullptr};
    uint64_t corrupt_draw = 0;
    bool duplicate = false;
    if (faulty) {
      // Every link draws its faults and tallies them, addressed or not: each
      // injected fault event increments exactly one counter cell.
      const uint32_t recv_idx = r->attach_index();
      LinkFaultCounters drawn;
      if (FaultHits(FaultDraw(faults_, sender_idx, recv_idx, seq, 0), faults_.drop_permille)) {
        drawn.dropped = 1;
      } else {
        corrupt_draw = FaultDraw(faults_, sender_idx, recv_idx, seq, 1);
        if (!shared->empty() && FaultHits(corrupt_draw, faults_.corrupt_permille)) {
          frame.fault_bits |= kFaultCorrupted;
          drawn.corrupted = 1;
        }
        if (FaultHits(FaultDraw(faults_, sender_idx, recv_idx, seq, 2),
                      faults_.reorder_permille)) {
          // Push the arrival back far enough to land behind later transmissions.
          // Delay only ever increases, so the lookahead bound stays valid.
          frame.deliver_at += faults_.reorder_delay;
          frame.fault_bits |= kFaultReordered;
          drawn.reordered = 1;
        }
        duplicate = FaultHits(FaultDraw(faults_, sender_idx, recv_idx, seq, 3),
                              faults_.duplicate_permille);
        drawn.duplicated = duplicate ? 1 : 0;
      }
      if (drawn != LinkFaultCounters{}) {
        r->CountFaults(drawn);
      }
      if (drawn.dropped != 0) {
        continue;
      }
    }
    if (!addressed) {
      continue;
    }
    frame.payload = shared;
    if ((frame.fault_bits & kFaultCorrupted) != 0) {
      // Flip one seeded bit in this receiver's private copy of the payload.
      auto flipped = std::make_shared<std::vector<uint8_t>>(*shared);
      uint64_t bit = (corrupt_draw / 1000) % (flipped->size() * 8);
      (*flipped)[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      frame.payload = std::move(flipped);
    }
    if (duplicate) {
      RadioFrame copy = frame;
      copy.deliver_at += faults_.duplicate_delay;
      copy.fault_bits |= kFaultDuplicated;
      r->Enqueue(std::move(copy));
    }
    r->Enqueue(std::move(frame));
  }
}

}  // namespace tock
