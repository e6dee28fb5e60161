// ERA: 1
// Userspace execution engine: an RV32IM interpreter.
//
// The paper's processes are real machine code confined by the MPU (§2.3). To make
// that isolation *enforced* rather than simulated-by-convention, applications in this
// reproduction are genuine RV32IM instruction streams; every fetch, load and store is
// routed through the memory bus in unprivileged mode, where the MPU either permits it
// or faults the process. The kernel never trusts anything a process does.
//
// The syscall ABI follows Tock TRD104's RISC-V convention: system call class in a4,
// arguments in a0-a3, return variant + values in a0-a3.
#ifndef TOCK_VM_CPU_H_
#define TOCK_VM_CPU_H_

#include <array>
#include <cstdint>

#include "hw/memory_bus.h"
#include "vm/decode.h"

namespace tock {

// Architectural register file + pc for one process. Owned by the kernel's Process
// object; saved/restored around upcalls.
struct CpuContext {
  uint32_t pc = 0;
  std::array<uint32_t, 32> x{};  // x0 hardwired to zero (enforced on write)
};

// RISC-V ABI register numbers used by the kernel.
struct Reg {
  static constexpr unsigned kZero = 0;
  static constexpr unsigned kRa = 1;
  static constexpr unsigned kSp = 2;
  static constexpr unsigned kA0 = 10;
  static constexpr unsigned kA1 = 11;
  static constexpr unsigned kA2 = 12;
  static constexpr unsigned kA3 = 13;
  static constexpr unsigned kA4 = 14;
};

enum class StepResult {
  kOk,            // instruction retired
  kEcall,         // process executed ecall; syscall args in the context
  kEbreak,        // debug trap
  kUpcallReturn,  // pc reached the magic upcall-return address
  kFault,         // memory/MPU/illegal-instruction fault; details in fault()
};

struct VmFault {
  enum class Kind { kNone, kBus, kIllegalInstruction, kMisalignedJump };
  Kind kind = Kind::kNone;
  uint32_t pc = 0;        // faulting instruction address
  uint32_t detail = 0;    // bad address, raw instruction word or misaligned pc
  BusFault bus_fault;     // populated for Kind::kBus
};

// Executes instructions for one context at a time. Stateless across calls apart from
// fault bookkeeping, so a single Cpu instance serves every process on the board.
class Cpu {
 public:
  // Jumping to this address signals "return from upcall to kernel" (§2.5). It lives
  // outside any mappable region so a stray jump cannot alias real code.
  static constexpr uint32_t kUpcallReturnAddr = 0xFFFF'FFFC;

  explicit Cpu(MemoryBus* bus) : bus_(bus) {}

  // Executes one instruction in unprivileged mode through the checked fetch-decode
  // path, ignoring any bound decode cache. On kFault the context pc is left at the
  // faulting instruction for diagnosis; a pc off the 4-byte grid faults
  // kMisalignedJump before any fetch. This is the uncached reference engine the
  // VM tests compare RunBatch against; the kernel never calls it.
  StepResult Step(CpuContext& ctx);

  // Result of one RunBatch burst. `executed` counts consumed instruction slots —
  // retired instructions plus the non-retiring slots a faulting instruction and
  // the upcall-return pseudo-step consume — i.e. exactly the simulated cycles the
  // per-insn loop would have ticked one at a time (CycleCosts::kVmInstruction
  // each), so the kernel reconciles accounting with a single Tick(executed).
  //
  // Charging rule: RunBatch executes runs — a superblock of n words that fits
  // the remaining budget, or else a single word — and charges a run's n slots,
  // executed and retired, when it enters the run. A bus or illegal fault at
  // record dp of a run ending at record `last` takes back what did not happen:
  // last - dp executed slots (the faulting slot itself was consumed) and
  // last - dp + 1 retired ones. Traps end every run, so they keep their charge;
  // the upcall-return pseudo-step, a fetch fault and a misaligned pc consume
  // one slot and retire nothing.
  struct BatchResult {
    StepResult status = StepResult::kOk;  // kOk = budget exhausted, nothing trapped
    uint32_t executed = 0;
    uint32_t blocks_built = 0;  // superblocks constructed during this burst
    // Superblocks entered right after another superblock in this burst. Every
    // run, chained or not, is entered through the full dispatch (Lookup, the
    // block-table read and the budget check).
    uint32_t chain_hits = 0;
  };

  // Threaded-dispatch batch engine: executes up to `max_insns` instructions and
  // returns on the first trap/fault/upcall-return, with computed-goto dispatch
  // under __GNUC__ (portable switch otherwise), executing the bound cache's
  // superblocks as whole runs. In-window pcs replay predecoded records; the
  // caller (the kernel) guarantees the MPU maps the cache's window read+execute
  // (see vm/decode.h for the safety contract), and every other pc takes the
  // checked fetch-decode path. Architecturally bit-identical to calling Step()
  // `max_insns` times: same handler bodies (vm/interp_ops.inc), same fault/trap
  // semantics, same instructions_retired(). The caller guarantees nothing
  // observable (IRQ state, clock events, deadline, an armed fault) can change
  // within the batch window; the kernel picks max_insns to make that hold.
  BatchResult RunBatch(CpuContext& ctx, uint32_t max_insns);

  // Binds the running process's predecoded-instruction cache (nullptr = none). The
  // kernel rebinds on every process dispatch; unit tests drive it directly.
  void set_decode_cache(DecodeCache* cache) { cache_ = cache; }

  const VmFault& fault() const { return fault_; }

  uint64_t instructions_retired() const { return instructions_retired_; }

 private:
  StepResult Execute(CpuContext& ctx, const DecodedInsn& d);
  StepResult RaiseBusFault(CpuContext& ctx, uint32_t addr);
  StepResult RaiseIllegal(CpuContext& ctx, uint32_t instruction);
  StepResult RaiseMisalignedJump(CpuContext& ctx);
  // Decodes a straight-line run starting at cache word `start_idx` and records it
  // in the cache's block table. Returns the block length (0 if no block could be
  // formed, e.g. the first word's fetch faults).
  uint32_t BuildBlock(DecodeCache& cache, uint32_t start_idx);

  MemoryBus* bus_;
  DecodeCache* cache_ = nullptr;
  VmFault fault_;
  uint64_t instructions_retired_ = 0;
};

}  // namespace tock

#endif  // TOCK_VM_CPU_H_
