// ERA: 1
// Predecoded instruction cache for the RV32IM interpreter (the ROADMAP "make a hot
// path measurably faster" step).
//
// The interpreter originally paid a full bus fetch (MPU execute check + routing) and
// a nested opcode/funct3/funct7 switch for every retired instruction. Flash is
// immutable outside the flash-controller programming path, so that work is
// decode-once/execute-many territory — the shape QEMU-style predecoded interpreters
// use: each 4-byte flash word decodes once into a compact DecodedInsn record
// {handler id, rd, rs1, rs2, imm}, and execution replays records straight from the
// cache.
//
// Everything here is host-side only. The simulated machine is unchanged: cycle
// accounting, fault semantics, and architectural state transitions are bit-identical
// to the uncached reference (Cpu::Step), because
//   * MemoryBus::Fetch never ticks simulated cycles and never routes to MMIO, and
//   * Mpu::CheckAccess is a pure predicate — skipping a check that is known to pass
//     is unobservable.
// The known-to-pass argument is the cache's safety contract: the kernel binds a
// process's cache to the Cpu only while MPU region 0 maps exactly that process's
// flash window read+execute, and Lookup() only serves 4-aligned pcs whose full word
// lies inside the window. Every other pc — including the first execution of each
// word, which fills the cache — takes the ordinary checked bus path.
//
// Invalidation: ResetForRestart() invalidates the whole cache (restart), and the
// kernel observes MemoryBus::ProgramFlash — the single modeled flash-write path
// (flash controller, app installer, fault-injected bit flips) — to invalidate any
// overlapping range.
//
// Superblocks (interpreter v2): on top of the decoded slots the cache records
// straight-line runs — "superblocks" — as a parallel run-length table:
// block_len_[i] == L means entries_[i .. i+L-1] are all decoded and only the last
// one can redirect control flow (branch/jump/trap) or the run hit the window edge
// or the kMaxBlockInsns bound. The threaded batch engine (Cpu::RunBatch) executes
// a whole block with no per-instruction lookup/budget/upcall-address checks; every
// block, a taken branch's target included, is entered through Lookup. The same
// ProgramFlash observer path keeps blocks honest: invalidating any word drops
// every block overlapping it (a bounded back-scan, since a block spans at most
// kMaxBlockInsns words).
#ifndef TOCK_VM_DECODE_H_
#define TOCK_VM_DECODE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace tock {

// Handler ids for the execute switch. kNotDecoded doubles as the empty-slot
// sentinel: no instruction word decodes to it (anything unrecognized decodes to
// kIllegal), so a zero-filled cache is simply "all misses".
enum class OpHandler : uint8_t {
  kNotDecoded = 0,
  kLui,
  kAuipc,
  kJal,
  kJalr,
  kBeq,
  kBne,
  kBlt,
  kBge,
  kBltu,
  kBgeu,
  kLb,
  kLh,
  kLw,
  kLbu,
  kLhu,
  kSb,
  kSh,
  kSw,
  kAddi,
  kSlli,
  kSlti,
  kSltiu,
  kXori,
  kSrli,
  kSrai,
  kOri,
  kAndi,
  kAdd,
  kSub,
  kSll,
  kSlt,
  kSltu,
  kXor,
  kSrl,
  kSra,
  kOr,
  kAnd,
  kMul,
  kMulh,
  kMulhu,
  kDiv,
  kDivu,
  kRem,
  kRemu,
  kFence,   // no-op in this memory model, any funct3
  kEcall,
  kEbreak,  // any SYSTEM with funct3==0, rd==0, rs1==0 and imm != 0 (incl. WFI)
  kIllegal,
};

// The handler id doubles as the precomputed dispatch index: the threaded engine
// jumps through a label table indexed by the raw OpHandler byte, so decode time
// is the only place dispatch targets are ever computed. This X-macro pins the
// table layout; OpHandlerOrderMatches() below proves it matches the enum, so the
// enum stays readable and the table cannot silently skew.
#define TOCK_OPHANDLERS(X)                                                          \
  X(NotDecoded) X(Lui) X(Auipc) X(Jal) X(Jalr) X(Beq) X(Bne) X(Blt) X(Bge) X(Bltu) \
  X(Bgeu) X(Lb) X(Lh) X(Lw) X(Lbu) X(Lhu) X(Sb) X(Sh) X(Sw) X(Addi) X(Slli)        \
  X(Slti) X(Sltiu) X(Xori) X(Srli) X(Srai) X(Ori) X(Andi) X(Add) X(Sub) X(Sll)     \
  X(Slt) X(Sltu) X(Xor) X(Srl) X(Sra) X(Or) X(And) X(Mul) X(Mulh) X(Mulhu) X(Div)  \
  X(Divu) X(Rem) X(Remu) X(Fence) X(Ecall) X(Ebreak) X(Illegal)

inline constexpr OpHandler kOpHandlerOrder[] = {
#define TOCK_OPHANDLER_ENUM(Name) OpHandler::k##Name,
    TOCK_OPHANDLERS(TOCK_OPHANDLER_ENUM)
#undef TOCK_OPHANDLER_ENUM
};
inline constexpr size_t kNumOpHandlers = sizeof(kOpHandlerOrder) / sizeof(kOpHandlerOrder[0]);

constexpr bool OpHandlerOrderMatches() {
  for (size_t i = 0; i < kNumOpHandlers; ++i) {
    if (static_cast<size_t>(kOpHandlerOrder[i]) != i) {
      return false;
    }
  }
  return true;
}
static_assert(OpHandlerOrderMatches(), "TOCK_OPHANDLERS must list OpHandler in enum order");
static_assert(static_cast<size_t>(OpHandler::kIllegal) == kNumOpHandlers - 1,
              "TOCK_OPHANDLERS must cover every OpHandler");

// True for the handlers that terminate a superblock: anything that can redirect
// control flow or trap to the kernel. Straight-line instructions (including
// kFence, a no-op here) extend the block.
constexpr bool EndsBlock(OpHandler h) {
  return (h >= OpHandler::kJal && h <= OpHandler::kBgeu) || h >= OpHandler::kEcall ||
         h == OpHandler::kNotDecoded;
}

// One predecoded instruction. 8 bytes: handler id + register fields + the one
// immediate the handler needs. `imm` holds the sign-extended immediate for I/S/B/U/J
// formats, the shift amount for immediate shifts, and the raw instruction word for
// kIllegal (the fault records the offending encoding in VmFault::detail).
struct DecodedInsn {
  OpHandler h = OpHandler::kNotDecoded;
  uint8_t rd = 0;
  uint8_t rs1 = 0;
  uint8_t rs2 = 0;
  uint32_t imm = 0;
};
static_assert(sizeof(DecodedInsn) == 8, "decoded records should stay compact");

// Decodes one instruction word. Total: every word maps to some handler (kIllegal for
// unrecognized encodings), mirroring the interpreter's fault behavior exactly.
DecodedInsn Decode(uint32_t word);

// Per-process cache of decoded flash words, indexed by (pc - base) / 4, plus the
// superblock run-length table. Owned by the process control block; allocated
// lazily on the process's first dispatch (never-run fleet slots stay at zero
// bytes) and freed again when the process dies or restarts (Release()).
class DecodeCache {
 public:
  // Upper bound on superblock length in instructions. Bounds the invalidation
  // back-scan (a block overlapping word W must start within kMaxBlockInsns-1
  // words before W) and keeps the batch engine's up-front budget reservation
  // small relative to any realistic timeslice.
  static constexpr uint32_t kMaxBlockInsns = 64;

  // (Re)binds the cache to a flash window and drops all cached decodes and blocks.
  // A base off the word grid is rounded down, so Lookup's alignment check against
  // base_ is also an absolute one: the cache never serves a misaligned pc.
  void Configure(uint32_t base, uint32_t size) {
    size += base & 3u;
    base &= ~3u;
    base_ = base;
    entries_.assign(size / 4, DecodedInsn{});
    data_ = entries_.data();
    limit_ = static_cast<uint32_t>(entries_.size());
    live_blocks_ = 0;
    block_len_.assign(entries_.size(), 0);
    block_data_ = block_len_.data();
  }

  bool IsConfigured() const { return !entries_.empty(); }

  // Frees the decode and block tables outright (process exit/fault/restart — the
  // lazy-allocation counterpart of Configure). Leaves data_ null and limit_ zero
  // so a stale Lookup misses harmlessly; the next dispatch reconfigures. Returns
  // the number of live superblocks dropped, for the vm.blocks_invalidated stat.
  uint64_t Release() {
    if (entries_.empty()) {
      return 0;
    }
    ++invalidations_;
    uint64_t dropped = live_blocks_;
    blocks_dropped_ += dropped;
    live_blocks_ = 0;
    std::vector<DecodedInsn>().swap(entries_);
    std::vector<uint8_t>().swap(block_len_);
    data_ = nullptr;
    block_data_ = nullptr;
    limit_ = 0;
    return dropped;
  }

  // Heap bytes currently held (the vm.cache_bytes gauge).
  uint64_t MemoryBytes() const {
    return entries_.capacity() * sizeof(DecodedInsn) + block_len_.capacity();
  }

  // Drops every cached decode and block (process restart / slot reuse).
  void Invalidate() {
    if (!entries_.empty()) {
      std::fill(entries_.begin(), entries_.end(), DecodedInsn{});
      std::fill(block_len_.begin(), block_len_.end(), uint8_t{0});
      blocks_dropped_ += live_blocks_;
      live_blocks_ = 0;
      ++invalidations_;
    }
  }

  // Drops cached decodes overlapping [addr, addr+len) — called when flash inside the
  // window is reprogrammed. A write to byte B stales the 4-aligned word containing B.
  // Every superblock overlapping a stale word is dropped whole (the block invariant
  // is "all member words decoded and current"); returns how many blocks that was.
  uint64_t InvalidateRange(uint32_t addr, uint32_t len) {
    if (entries_.empty() || len == 0) {
      return 0;
    }
    uint64_t lo = addr > base_ ? addr - base_ : 0;
    uint64_t hi = static_cast<uint64_t>(addr) + len;
    uint64_t window_end = static_cast<uint64_t>(base_) + entries_.size() * 4;
    if (addr >= window_end || hi <= base_) {
      return 0;
    }
    hi -= base_;
    size_t first = static_cast<size_t>(lo / 4);
    size_t last = static_cast<size_t>((hi + 3) / 4);
    if (last > entries_.size()) {
      last = entries_.size();
    }
    for (size_t i = first; i < last; ++i) {
      entries_[i] = DecodedInsn{};
    }
    ++invalidations_;
    // A block [s, s+len) overlaps a stale word iff s < last && s+len > first;
    // blocks are at most kMaxBlockInsns long, so the back-scan is bounded.
    uint64_t dropped = 0;
    size_t scan_lo = first > (kMaxBlockInsns - 1) ? first - (kMaxBlockInsns - 1) : 0;
    for (size_t s = scan_lo; s < last; ++s) {
      uint8_t blk = block_data_[s];
      if (blk != 0 && s + blk > first) {
        block_data_[s] = 0;
        ++dropped;
      }
    }
    blocks_dropped_ += dropped;
    live_blocks_ -= static_cast<uint32_t>(dropped);
    return dropped;
  }

  // The cache slot for `pc`, or nullptr when `pc` is outside the window (misaligned,
  // below base, or its word not fully inside) — those take the checked bus path.
  DecodedInsn* Lookup(uint32_t pc) {
    uint32_t off = pc - base_;  // wraps huge for pc < base_, failing the index check
    if ((off & 3u) != 0) {
      return nullptr;
    }
    uint32_t idx = off >> 2;
    // data_/limit_ mirror entries_ (set in Configure) so this per-instruction path
    // is raw pointer arithmetic rather than std::vector accessor calls — at -O0,
    // the Debug presets' default, those are real calls.
    if (idx >= limit_) {
      return nullptr;
    }
    return data_ + idx;
  }

  void NoteFill() { ++fills_; }

  // --- Superblock access (Cpu::RunBatch and its block builder) ---------------
  // Indices come from IndexOf on a slot Lookup already validated.

  uint32_t IndexOf(const DecodedInsn* slot) const {
    return static_cast<uint32_t>(slot - data_);
  }
  DecodedInsn* EntryAt(uint32_t idx) { return data_ + idx; }
  uint8_t BlockLenAt(uint32_t idx) const { return block_data_[idx]; }
  void SetBlockLen(uint32_t idx, uint8_t len) {
    block_data_[idx] = len;
    ++blocks_built_;
    ++live_blocks_;
  }
  uint32_t base() const { return base_; }
  uint32_t limit() const { return limit_; }

  // Host-side instrumentation (tests prove caching/invalidation through these).
  uint64_t fills() const { return fills_; }
  uint64_t invalidations() const { return invalidations_; }
  uint64_t blocks_built() const { return blocks_built_; }
  uint64_t blocks_dropped() const { return blocks_dropped_; }
  uint32_t live_blocks() const { return live_blocks_; }

 private:
  uint32_t base_ = 0;
  std::vector<DecodedInsn> entries_;
  std::vector<uint8_t> block_len_;  // run length starting at word i; 0 = no block
  DecodedInsn* data_ = nullptr;     // == entries_.data(); see Lookup
  uint8_t* block_data_ = nullptr;   // == block_len_.data()
  uint32_t limit_ = 0;              // == entries_.size()
  uint32_t live_blocks_ = 0;
  uint64_t fills_ = 0;
  uint64_t invalidations_ = 0;
  uint64_t blocks_built_ = 0;
  uint64_t blocks_dropped_ = 0;
};

}  // namespace tock

#endif  // TOCK_VM_DECODE_H_
