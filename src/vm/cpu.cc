// ERA: 1
// Two interpreter engines share the handler bodies in vm/interp_ops.inc:
//
//   * Execute/Step — the uncached single-step reference engine (plain switch).
//     Unit tests drive it directly to check RunBatch against.
//   * RunBatch — the threaded-dispatch batch engine the kernel runs: computed-goto
//     dispatch under __GNUC__ (a portable switch otherwise), executing whole
//     superblocks of the bound DecodeCache as runs charged once each.
//
// The engines are architecturally bit-identical by construction: dispatch and
// exit plumbing differ, instruction semantics cannot (one copy of every body).
#include "vm/cpu.h"

namespace tock {
namespace {

inline int32_t SignExtend(uint32_t value, unsigned bits) {
  uint32_t shift = 32 - bits;
  return static_cast<int32_t>(value << shift) >> shift;
}

}  // namespace

StepResult Cpu::RaiseBusFault(CpuContext& ctx, uint32_t addr) {
  fault_ = VmFault{VmFault::Kind::kBus, ctx.pc, addr, bus_->last_fault()};
  return StepResult::kFault;
}

StepResult Cpu::RaiseIllegal(CpuContext& ctx, uint32_t instruction) {
  fault_ = VmFault{VmFault::Kind::kIllegalInstruction, ctx.pc, instruction, BusFault{}};
  return StepResult::kFault;
}

StepResult Cpu::RaiseMisalignedJump(CpuContext& ctx) {
  fault_ = VmFault{VmFault::Kind::kMisalignedJump, ctx.pc, ctx.pc, BusFault{}};
  return StepResult::kFault;
}

StepResult Cpu::Step(CpuContext& ctx) {
  if (ctx.pc == kUpcallReturnAddr) {
    return StepResult::kUpcallReturn;
  }
  // RV32IM has no compressed instructions: a pc off the word grid would fetch
  // a word straddling two instructions.
  if ((ctx.pc & 3u) != 0) {
    return RaiseMisalignedJump(ctx);
  }
  auto fetched = bus_->Fetch(ctx.pc, Privilege::kUnprivileged);
  if (!fetched.has_value()) {
    return RaiseBusFault(ctx, ctx.pc);
  }
  DecodedInsn d = Decode(*fetched);
  return Execute(ctx, d);
}

StepResult Cpu::Execute(CpuContext& ctx, const DecodedInsn& d) {
  auto& x = ctx.x;
  uint32_t next_pc = ctx.pc + 4;

  switch (d.h) {
    // Reference-engine plumbing for the shared handler bodies: a plain case per
    // handler, `break` falls through to the common retire epilogue below, traps
    // and faults return out of the switch directly.
#define TOCK_OP(Name) case OpHandler::k##Name:
#define TOCK_OP_END break;
#define TOCK_D d
#define TOCK_PC ctx.pc
#define TOCK_WR(reg, value)       \
  do {                            \
    unsigned tock_wr_rd = (reg);  \
    if (tock_wr_rd != 0) {        \
      x[tock_wr_rd] = (value);    \
    }                             \
  } while (0)
#define TOCK_BUS_FAULT(addr) return RaiseBusFault(ctx, (addr))
#define TOCK_ILLEGAL(word) return RaiseIllegal(ctx, (word))
#define TOCK_TRAP_ECALL           \
  do {                            \
    ++instructions_retired_;      \
    ctx.pc = next_pc;             \
    return StepResult::kEcall;    \
  } while (0)
#define TOCK_TRAP_EBREAK          \
  do {                            \
    ++instructions_retired_;      \
    ctx.pc = next_pc;             \
    return StepResult::kEbreak;   \
  } while (0)
#include "vm/interp_ops.inc"
#undef TOCK_OP
#undef TOCK_OP_END
#undef TOCK_D
#undef TOCK_PC
#undef TOCK_WR
#undef TOCK_BUS_FAULT
#undef TOCK_ILLEGAL
#undef TOCK_TRAP_ECALL
#undef TOCK_TRAP_EBREAK
  }

  ++instructions_retired_;
  ctx.pc = next_pc;
  return StepResult::kOk;
}

uint32_t Cpu::BuildBlock(DecodeCache& cache, uint32_t start_idx) {
  const uint32_t room = cache.limit() - start_idx;
  const uint32_t max_scan =
      room < DecodeCache::kMaxBlockInsns ? room : DecodeCache::kMaxBlockInsns;
  DecodedInsn* entries = cache.EntryAt(start_idx);
  const uint32_t base_pc = cache.base() + start_idx * 4;
  uint32_t len = 0;
  while (len < max_scan) {
    DecodedInsn& e = entries[len];
    if (e.h == OpHandler::kNotDecoded) {
      // Ahead-of-pc decode still goes through the checked bus fetch: the safety
      // contract (MPU maps the whole window R+X while a cache is bound) makes it
      // pass, and if it ever didn't, the block simply ends before that word and
      // the dispatch loop faults there exactly like the per-insn engine.
      auto fetched = bus_->Fetch(base_pc + len * 4, Privilege::kUnprivileged);
      if (!fetched.has_value()) {
        break;
      }
      e = Decode(*fetched);
      cache.NoteFill();
    }
    ++len;
    if (EndsBlock(e.h)) {
      break;
    }
  }
  if (len == 0) {
    return 0;
  }
  // Length-1 blocks (a lone branch/trap) are recorded too: the entry marks the
  // word as "already scanned" so hot lone terminators don't rebuild every visit.
  cache.SetBlockLen(start_idx, static_cast<uint8_t>(len));
  return len;
}

Cpu::BatchResult Cpu::RunBatch(CpuContext& ctx, uint32_t max_insns) {
  BatchResult res;
  auto& x = ctx.x;
  DecodeCache* const cache = cache_;
  // The loop's state stays in locals (host registers): a run is charged to
  // `executed` and `retired` once, on entry, and `retired` reaches the member
  // counter once, at `done` (see BatchResult for the charging rule).
  uint32_t executed = 0;
  uint32_t retired = 0;
  bool was_in_block = false;
  const DecodedInsn* dp = nullptr;
  const DecodedInsn* last = nullptr;   // the current run's final record
  DecodedInsn fallback{};              // out-of-window pcs decode into this
  uint32_t pc = ctx.pc;
  uint32_t next_pc = 0;

#if defined(__GNUC__)
  // Threaded dispatch: the OpHandler byte in every DecodedInsn is the direct
  // index into this label table (pinned to the enum order by TOCK_OPHANDLERS +
  // the OpHandlerOrderMatches static_assert in vm/decode.h).
#define TOCK_OPHANDLER_LABEL(Name) &&op_##Name,
  static const void* const kDispatch[] = {TOCK_OPHANDLERS(TOCK_OPHANDLER_LABEL)};
#undef TOCK_OPHANDLER_LABEL
  static_assert(sizeof(kDispatch) / sizeof(kDispatch[0]) == kNumOpHandlers,
                "dispatch table must cover every handler");
#endif

  // Full dispatch: every run starts here, so the budget, upcall-address and
  // Lookup checks are paid once per run, never inside one.
dispatch:
  if (executed >= max_insns) {
    res.status = StepResult::kOk;
    goto done;
  }
  if (pc == kUpcallReturnAddr) {
    ++executed;  // the pseudo-step consumes a cycle but retires nothing (see Step)
    res.status = StepResult::kUpcallReturn;
    goto done;
  }
  {
    DecodedInsn* slot = cache != nullptr ? cache->Lookup(pc) : nullptr;
    if (slot != nullptr) {
      if (slot->h == OpHandler::kNotDecoded) {
        auto fetched = bus_->Fetch(pc, Privilege::kUnprivileged);
        if (!fetched.has_value()) {
          ctx.pc = pc;
          ++executed;
          res.status = RaiseBusFault(ctx, pc);
          goto done;
        }
        *slot = Decode(*fetched);
        cache->NoteFill();
      }
      uint32_t idx = cache->IndexOf(slot);
      uint32_t blk = cache->BlockLenAt(idx);
      if (blk == 0) {
        blk = BuildBlock(*cache, idx);
        if (blk != 0) {
          ++res.blocks_built;
        }
      }
      // A superblock runs whole only if it fits the remaining budget; otherwise
      // the word runs alone. Pcs inside a block are sequential flash addresses
      // (never the upcall-return magic) and every member word is decoded.
      uint32_t run = 1;
      if (blk > 1 && blk <= max_insns - executed) {
        if (was_in_block) {
          ++res.chain_hits;  // a block entered right after another block
        }
        was_in_block = true;
        run = blk;
      } else {
        was_in_block = false;
      }
      dp = slot;
      last = slot + (run - 1);
      executed += run;
      retired += run;
      next_pc = pc + 4;
      goto have_insn;
    }
  }
  was_in_block = false;
  // Lookup serves only pcs on the word grid (Configure starts every window on
  // it), so a misaligned pc always lands here and the check costs runs nothing.
  if ((pc & 3u) != 0) {
    ctx.pc = pc;
    ++executed;
    res.status = RaiseMisalignedJump(ctx);
    goto done;
  }
  {
    auto fetched = bus_->Fetch(pc, Privilege::kUnprivileged);
    if (!fetched.has_value()) {
      ctx.pc = pc;
      ++executed;
      res.status = RaiseBusFault(ctx, pc);
      goto done;
    }
    fallback = Decode(*fetched);
    dp = &fallback;
    last = dp;
    ++executed;
    ++retired;
    next_pc = pc + 4;
  }

have_insn:
#if defined(__GNUC__)
  goto* kDispatch[static_cast<size_t>(dp->h)];
#define TOCK_NEXT_IN_RUN goto* kDispatch[static_cast<size_t>(dp->h)]
#else
#define TOCK_NEXT_IN_RUN goto have_insn
  switch (dp->h) {
#endif

  // Batch-engine plumbing for the shared handler bodies: a retiring handler
  // commits next_pc and steps to the run's next record with its own dispatch
  // jump, or back to `dispatch` after the run's last one; traps and faults
  // record the batch outcome and jump to `done`.
#if defined(__GNUC__)
#define TOCK_OP(Name) op_##Name:
#else
#define TOCK_OP(Name) case OpHandler::k##Name:
#endif
#define TOCK_OP_END               \
  {                               \
    pc = next_pc;                 \
    if (dp != last) {             \
      ++dp;                       \
      next_pc = pc + 4;           \
      TOCK_NEXT_IN_RUN;           \
    }                             \
    goto dispatch;                \
  }
#define TOCK_D (*dp)
#define TOCK_PC pc
#define TOCK_WR(reg, value)       \
  do {                            \
    unsigned tock_wr_rd = (reg);  \
    if (tock_wr_rd != 0) {        \
      x[tock_wr_rd] = (value);    \
    }                             \
  } while (0)
  // A fault inside a run takes back the charged slots that did not happen:
  // those after it, and the faulting one's retirement (see BatchResult).
#define TOCK_RUN_FAULT(raise)                              \
  do {                                                     \
    executed -= static_cast<uint32_t>(last - dp);          \
    retired -= static_cast<uint32_t>(last - dp) + 1;       \
    ctx.pc = pc;                                           \
    res.status = (raise);                                  \
    goto done;                                             \
  } while (0)
#define TOCK_BUS_FAULT(addr) TOCK_RUN_FAULT(RaiseBusFault(ctx, (addr)))
#define TOCK_ILLEGAL(word) TOCK_RUN_FAULT(RaiseIllegal(ctx, (word)))
  // Traps end every run (EndsBlock), so they retire as charged.
#define TOCK_TRAP_ECALL                       \
  do {                                        \
    pc = next_pc;                             \
    res.status = StepResult::kEcall;          \
    goto done;                                \
  } while (0)
#define TOCK_TRAP_EBREAK                      \
  do {                                        \
    pc = next_pc;                             \
    res.status = StepResult::kEbreak;         \
    goto done;                                \
  } while (0)
#include "vm/interp_ops.inc"
#undef TOCK_OP
#undef TOCK_OP_END
#undef TOCK_NEXT_IN_RUN
#undef TOCK_D
#undef TOCK_PC
#undef TOCK_WR
#undef TOCK_RUN_FAULT
#undef TOCK_BUS_FAULT
#undef TOCK_ILLEGAL
#undef TOCK_TRAP_ECALL
#undef TOCK_TRAP_EBREAK

#if !defined(__GNUC__)
  }
#endif

done:
  ctx.pc = pc;
  instructions_retired_ += retired;
  res.executed = executed;
  return res;
}

}  // namespace tock
