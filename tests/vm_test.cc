// VM tests: assembler encodings, instruction semantics, syscall trap, MPU-enforced
// isolation of the executing process.
#include <gtest/gtest.h>

#include <cstring>
#include <ostream>
#include <tuple>

#include "hw/mcu.h"
#include "hw/memory_map.h"
#include "vm/assembler.h"
#include "vm/cpu.h"

namespace tock {
namespace {

constexpr uint32_t kCodeBase = 0x1000;          // in flash
constexpr uint32_t kRam = MemoryMap::kRamBase;  // RAM window for the "process"

class VmTest : public ::testing::Test {
 protected:
  // Assembles and installs `source` at kCodeBase, opens MPU windows for code (RX)
  // and the first 4 KiB of RAM (RW), and points the context at the entry.
  void Load(const std::string& source) {
    AssembledImage image;
    ASSERT_TRUE(assembler_.Assemble(source, kCodeBase, &image)) << assembler_.error();
    ASSERT_TRUE(mcu_.bus().ProgramFlash(kCodeBase, image.bytes.data(),
                                        static_cast<uint32_t>(image.bytes.size())));
    symbols_ = image.symbols;
    mcu_.mpu().ConfigureRegion(
        0, {kCodeBase, static_cast<uint32_t>(image.bytes.size()), true, false, true, true});
    mcu_.mpu().ConfigureRegion(1, {kRam, 4096, true, true, false, true});
    ctx_ = CpuContext{};
    ctx_.pc = kCodeBase;
    ctx_.x[Reg::kSp] = kRam + 4096;
  }

  // Steps the uncached reference engine until ecall/ebreak/fault or `max`
  // instructions.
  StepResult Run(int max = 10000) {
    Cpu cpu(&mcu_.bus());
    for (int i = 0; i < max; ++i) {
      StepResult r = cpu.Step(ctx_);
      if (r != StepResult::kOk) {
        last_fault_ = cpu.fault();
        return r;
      }
    }
    return StepResult::kOk;
  }

  Mcu mcu_;
  Assembler assembler_;
  CpuContext ctx_;
  std::map<std::string, uint32_t> symbols_;
  VmFault last_fault_;
};

// ---- Assembler -------------------------------------------------------------------------

TEST_F(VmTest, AssemblerEmitsCanonicalEncodings) {
  AssembledImage image;
  ASSERT_TRUE(assembler_.Assemble("addi a0, zero, 42\necall\n", 0, &image));
  ASSERT_EQ(image.bytes.size(), 8u);
  uint32_t word0, word1;
  std::memcpy(&word0, image.bytes.data(), 4);
  std::memcpy(&word1, image.bytes.data() + 4, 4);
  EXPECT_EQ(word0, 0x02A00513u);  // addi a0, x0, 42
  EXPECT_EQ(word1, 0x00000073u);  // ecall
}

TEST_F(VmTest, AssemblerRejectsUnknownMnemonic) {
  AssembledImage image;
  EXPECT_FALSE(assembler_.Assemble("frobnicate a0, a1\n", 0, &image));
  EXPECT_NE(assembler_.error().find("unknown mnemonic"), std::string::npos);
}

TEST_F(VmTest, AssemblerRejectsDuplicateLabel) {
  AssembledImage image;
  EXPECT_FALSE(assembler_.Assemble("x:\nnop\nx:\nnop\n", 0, &image));
}

TEST_F(VmTest, AssemblerRejectsOutOfRangeImmediate) {
  AssembledImage image;
  EXPECT_FALSE(assembler_.Assemble("addi a0, a0, 5000\n", 0, &image));
}

TEST_F(VmTest, AssemblerResolvesForwardAndBackwardLabels) {
  AssembledImage image;
  ASSERT_TRUE(assembler_.Assemble(R"(
start:
    j forward
back:
    nop
forward:
    j back
)", 0x100, &image)) << assembler_.error();
  EXPECT_EQ(image.symbols.at("start"), 0x100u);
  EXPECT_EQ(image.symbols.at("back"), 0x104u);
  EXPECT_EQ(image.symbols.at("forward"), 0x108u);
}

TEST_F(VmTest, AssemblerDirectives) {
  AssembledImage image;
  ASSERT_TRUE(assembler_.Assemble(R"(
.equ MAGIC, 0x1234
data:
    .word MAGIC, 7
    .byte 1, 2
    .align 4
    .asciz "hi"
    .space 3
)", 0, &image)) << assembler_.error();
  uint32_t w0;
  std::memcpy(&w0, image.bytes.data(), 4);
  EXPECT_EQ(w0, 0x1234u);
  EXPECT_EQ(image.bytes[8], 1);
  EXPECT_EQ(image.bytes[9], 2);
  EXPECT_EQ(image.bytes[12], 'h');  // aligned to 4
  EXPECT_EQ(image.bytes[13], 'i');
  EXPECT_EQ(image.bytes[14], 0);
  EXPECT_EQ(image.bytes.size(), 18u);
}

// ---- ALU semantics (parameterized) --------------------------------------------------------

struct AluCase {
  const char* op;
  uint32_t a;
  uint32_t b;
  uint32_t expected;
};

// Names each case by its operands. Without this gtest prints the raw struct
// bytes (the `op` pointer and the tail padding), which vary with address-space
// layout, so the CTest names registered by gtest_discover_tests would change on
// every build.
void PrintTo(const AluCase& c, std::ostream* os) {
  *os << c.op << std::hex << std::uppercase << " 0x" << c.a << " 0x" << c.b
      << " = 0x" << c.expected;
}

class AluTest : public VmTest, public ::testing::WithParamInterface<AluCase> {};

TEST_P(AluTest, RegisterRegisterOps) {
  const AluCase& c = GetParam();
  std::string source = std::string("_start:\n    ") + c.op +
                       " a2, a0, a1\n    ecall\n";
  Load(source);
  ctx_.x[Reg::kA0] = c.a;
  ctx_.x[Reg::kA1] = c.b;
  ASSERT_EQ(Run(), StepResult::kEcall);
  EXPECT_EQ(ctx_.x[Reg::kA2], c.expected) << c.op;
}

INSTANTIATE_TEST_SUITE_P(
    Ops, AluTest,
    ::testing::Values(
        AluCase{"add", 3, 4, 7}, AluCase{"add", 0xFFFFFFFF, 1, 0},
        AluCase{"sub", 3, 4, 0xFFFFFFFF}, AluCase{"and", 0xF0F0, 0xFF00, 0xF000},
        AluCase{"or", 0xF0F0, 0x0F0F, 0xFFFF}, AluCase{"xor", 0xFF, 0x0F, 0xF0},
        AluCase{"sll", 1, 5, 32}, AluCase{"sll", 1, 37, 32},  // shift amount mod 32
        AluCase{"srl", 0x80000000, 4, 0x08000000},
        AluCase{"sra", 0x80000000, 4, 0xF8000000},
        AluCase{"slt", 0xFFFFFFFF, 0, 1},   // -1 < 0 signed
        AluCase{"sltu", 0xFFFFFFFF, 0, 0},  // big unsigned
        AluCase{"mul", 7, 6, 42}, AluCase{"mul", 0x10000, 0x10000, 0},
        AluCase{"mulh", 0xFFFFFFFF, 0xFFFFFFFF, 0},        // (-1)*(-1) high = 0
        AluCase{"mulhu", 0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFE},
        AluCase{"div", 42, 7, 6}, AluCase{"div", 7, 0, 0xFFFFFFFF},  // div by zero
        AluCase{"div", 0x80000000, 0xFFFFFFFF, 0x80000000},          // overflow case
        AluCase{"divu", 42, 0, 0xFFFFFFFF}, AluCase{"rem", 43, 7, 1},
        AluCase{"rem", 7, 0, 7}, AluCase{"remu", 0xFFFFFFFF, 10, 5}));

TEST_F(VmTest, X0IsHardwiredToZero) {
  Load("_start:\n    addi zero, zero, 5\n    mv a0, zero\n    ecall\n");
  ASSERT_EQ(Run(), StepResult::kEcall);
  EXPECT_EQ(ctx_.x[0], 0u);
  EXPECT_EQ(ctx_.x[Reg::kA0], 0u);
}

TEST_F(VmTest, LuiAddiComposeLargeConstants) {
  Load("_start:\n    li a0, 0xDEADBEEF\n    li a1, -1\n    li a2, 2047\n    ecall\n");
  ASSERT_EQ(Run(), StepResult::kEcall);
  EXPECT_EQ(ctx_.x[Reg::kA0], 0xDEADBEEFu);
  EXPECT_EQ(ctx_.x[Reg::kA1], 0xFFFFFFFFu);
  EXPECT_EQ(ctx_.x[Reg::kA2], 2047u);
}

TEST_F(VmTest, BranchesCompareCorrectly) {
  Load(R"(
_start:
    li a0, 0
    li t0, -1
    li t1, 1
    blt t0, t1, signed_ok
    j fail
signed_ok:
    bltu t1, t0, unsigned_ok   # 1 < 0xFFFFFFFF unsigned
    j fail
unsigned_ok:
    li a0, 1
    ecall
fail:
    li a0, 99
    ecall
)");
  ASSERT_EQ(Run(), StepResult::kEcall);
  EXPECT_EQ(ctx_.x[Reg::kA0], 1u);
}

TEST_F(VmTest, LoadsAndStoresWithSignExtension) {
  Load(R"(
_start:
    li t0, 0x20000000
    li t1, 0xFFFF8280
    sw t1, 0(t0)
    lb a0, 0(t0)       # 0x80 sign-extended
    lbu a1, 0(t0)      # 0x80 zero-extended
    lh a2, 0(t0)       # 0x8280 sign-extended
    lhu a3, 0(t0)
    ecall
)");
  ASSERT_EQ(Run(), StepResult::kEcall);
  EXPECT_EQ(ctx_.x[Reg::kA0], 0xFFFFFF80u);
  EXPECT_EQ(ctx_.x[Reg::kA1], 0x80u);
  EXPECT_EQ(ctx_.x[Reg::kA2], 0xFFFF8280u);
  EXPECT_EQ(ctx_.x[Reg::kA3], 0x8280u);
}

TEST_F(VmTest, CallAndRetUseReturnAddress) {
  Load(R"(
_start:
    call helper
    addi a0, a0, 1
    ecall
helper:
    li a0, 10
    ret
)");
  ASSERT_EQ(Run(), StepResult::kEcall);
  EXPECT_EQ(ctx_.x[Reg::kA0], 11u);
}

TEST_F(VmTest, FunctionsUseTheStack) {
  Load(R"(
_start:
    addi sp, sp, -8
    li t0, 123
    sw t0, 4(sp)
    sw ra, 0(sp)
    lw a0, 4(sp)
    addi sp, sp, 8
    ecall
)");
  ASSERT_EQ(Run(), StepResult::kEcall);
  EXPECT_EQ(ctx_.x[Reg::kA0], 123u);
}

// ---- Trap and fault semantics -----------------------------------------------------------

TEST_F(VmTest, EcallLeavesPcAfterTrapAndArgsVisible) {
  Load("_start:\n    li a0, 1\n    li a4, 2\n    ecall\n    li a0, 7\n    ecall\n");
  ASSERT_EQ(Run(), StepResult::kEcall);
  EXPECT_EQ(ctx_.x[Reg::kA0], 1u);
  EXPECT_EQ(ctx_.x[Reg::kA4], 2u);
  // Resuming executes the instruction after the trap.
  ASSERT_EQ(Run(), StepResult::kEcall);
  EXPECT_EQ(ctx_.x[Reg::kA0], 7u);
}

TEST_F(VmTest, EbreakIsDistinctFromEcall) {
  Load("_start:\n    ebreak\n");
  EXPECT_EQ(Run(), StepResult::kEbreak);
}

TEST_F(VmTest, StoreOutsideMpuWindowFaults) {
  Load(R"(
_start:
    li t0, 0x20001000   # just past the 4 KiB RW window
    sw t0, 0(t0)
)");
  ASSERT_EQ(Run(), StepResult::kFault);
  EXPECT_EQ(last_fault_.kind, VmFault::Kind::kBus);
  EXPECT_EQ(last_fault_.bus_fault.kind, BusFaultKind::kMpuViolation);
  EXPECT_EQ(last_fault_.detail, 0x20001000u);
}

TEST_F(VmTest, WriteToOwnCodeFaults) {
  // Code region is RX, not W: self-modification is an MPU violation.
  Load(R"(
_start:
    li t0, 0x1000
    sw t0, 0(t0)
)");
  ASSERT_EQ(Run(), StepResult::kFault);
  EXPECT_EQ(last_fault_.bus_fault.kind, BusFaultKind::kMpuViolation);
}

TEST_F(VmTest, JumpOutsideExecutableRegionFaults) {
  Load(R"(
_start:
    li t0, 0x20000000   # RAM is RW but not X
    jr t0
)");
  ASSERT_EQ(Run(), StepResult::kFault);
  EXPECT_EQ(last_fault_.bus_fault.access, AccessType::kExecute);
}

TEST_F(VmTest, MmioIsUnreachableFromUserCode) {
  Load(R"(
_start:
    li t0, 0x40000000
    lw a0, 0(t0)
)");
  ASSERT_EQ(Run(), StepResult::kFault);
  EXPECT_EQ(last_fault_.bus_fault.kind, BusFaultKind::kMpuViolation);
}

TEST_F(VmTest, IllegalInstructionFaults) {
  Load("_start:\n    .word 0xFFFFFFFF\n");
  ASSERT_EQ(Run(), StepResult::kFault);
  EXPECT_EQ(last_fault_.kind, VmFault::Kind::kIllegalInstruction);
}

TEST_F(VmTest, MisalignedJumpFaultsBeforeFetchUnderBothEngines) {
  // RV32IM has no 2-byte instructions: the word at target+2 straddles `lui` and
  // `addi`, so landing there must fault at that pc rather than execute it.
  const char* straddle = R"(
_start:
    la t0, target
    addi t0, t0, 2
    jr t0
target:
    lui a1, 0x130
    addi a1, a1, 1
    ecall
)";
  Load(straddle);
  const uint32_t bad_pc = symbols_.at("target") + 2;
  ASSERT_EQ(Run(), StepResult::kFault);
  EXPECT_EQ(last_fault_.kind, VmFault::Kind::kMisalignedJump);
  EXPECT_EQ(last_fault_.pc, bad_pc);
  EXPECT_EQ(last_fault_.detail, bad_pc);
  EXPECT_EQ(ctx_.pc, bad_pc);
  EXPECT_EQ(ctx_.x[Reg::kA1], 0u);

  Load(straddle);
  DecodeCache cache;
  cache.Configure(kCodeBase, 4096);
  Cpu cpu(&mcu_.bus());
  cpu.set_decode_cache(&cache);
  Cpu::BatchResult r = cpu.RunBatch(ctx_, 100);
  ASSERT_EQ(r.status, StepResult::kFault);
  EXPECT_EQ(cpu.fault().kind, VmFault::Kind::kMisalignedJump);
  EXPECT_EQ(cpu.fault().pc, bad_pc);
  EXPECT_EQ(cpu.fault().detail, bad_pc);
  EXPECT_EQ(ctx_.pc, bad_pc);
  EXPECT_EQ(ctx_.x[Reg::kA1], 0u);
  EXPECT_EQ(r.executed, 5u);  // la (2 words), addi, jr retire; the landing slot faults
  EXPECT_EQ(cpu.instructions_retired(), 4u);

  // A window configured off the word grid starts on it anyway, so its Lookup
  // cannot serve target+2 from a slot either.
  Load(straddle);
  DecodeCache skewed;
  skewed.Configure(kCodeBase - 2, 4096);
  Cpu skewed_cpu(&mcu_.bus());
  skewed_cpu.set_decode_cache(&skewed);
  r = skewed_cpu.RunBatch(ctx_, 100);
  ASSERT_EQ(r.status, StepResult::kFault);
  EXPECT_EQ(skewed_cpu.fault().kind, VmFault::Kind::kMisalignedJump);
  EXPECT_EQ(skewed_cpu.fault().pc, bad_pc);
  EXPECT_EQ(ctx_.x[Reg::kA1], 0u);
}

TEST_F(VmTest, UpcallReturnAddressIsRecognized) {
  Load("_start:\n    li ra, 0xFFFFFFFC\n    ret\n");
  EXPECT_EQ(Run(), StepResult::kUpcallReturn);
}

TEST_F(VmTest, FibonacciComputesCorrectly) {
  Load(R"(
_start:
    li a0, 10
    li t0, 0
    li t1, 1
loop:
    beqz a0, done
    add t2, t0, t1
    mv t0, t1
    mv t1, t2
    addi a0, a0, -1
    j loop
done:
    mv a0, t0
    ecall
)");
  ASSERT_EQ(Run(), StepResult::kEcall);
  EXPECT_EQ(ctx_.x[Reg::kA0], 55u);  // fib(10)
}

// ---- Predecoded instruction cache (vm/decode.h) ------------------------------------------

// A program touching every structural corner the cache must get right: ALU ops,
// taken/untaken branches, loads/stores through the MPU, and a function call.
const char* kMixedProgram = R"(
_start:
    li s0, 0
    li s1, 7
    li t3, 0x20000000
loop:
    add s0, s0, s1
    xori s2, s0, 0x55
    sw s2, 0(t3)
    lw s3, 0(t3)
    blt s0, s1, never
    jal ra, bump
    addi s1, s1, -1
    bnez s1, loop
    mv a0, s0
    ecall
never:
    li a0, 999
    ecall
bump:
    addi s0, s0, 1
    jr ra
)";

// Batch-engine analogue of Run(): drives RunBatch until it returns a trap/fault
// (kOk just means the batch budget was exhausted). Accumulates the chain-hit
// counter so tests can prove blocks actually chained, not merely built.
struct BatchRun {
  StepResult status = StepResult::kOk;
  uint64_t executed = 0;
  uint32_t chain_hits = 0;
};

BatchRun RunBatched(Cpu* cpu, CpuContext& ctx, uint32_t batch_budget = 128,
                    uint64_t max_total = 100000) {
  BatchRun out;
  while (out.executed < max_total) {
    Cpu::BatchResult b = cpu->RunBatch(ctx, batch_budget);
    out.executed += b.executed;
    out.chain_hits += b.chain_hits;
    if (b.status != StepResult::kOk) {
      out.status = b.status;
      return out;
    }
  }
  return out;
}

TEST_F(VmTest, DecodeCacheDecodesEachWordOnceNotPerExecution) {
  // 4-instruction loop body + prologue/epilogue; 50 iterations.
  Load(R"(
_start:
    li s1, 50
loop:
    addi s0, s0, 3
    addi s1, s1, -1
    bnez s1, loop
    ecall
)");
  DecodeCache cache;
  cache.Configure(kCodeBase, 4096);
  Cpu cpu(&mcu_.bus());
  cpu.set_decode_cache(&cache);
  ASSERT_EQ(RunBatched(&cpu, ctx_).status, StepResult::kEcall);
  EXPECT_EQ(ctx_.x[8], 150u);  // s0
  // 6 distinct words executed (li expands to two instructions); ~150 retired.
  // Decode-once/execute-many: the fill count tracks distinct words, not executions.
  EXPECT_EQ(cache.fills(), 6u);
  EXPECT_GT(cpu.instructions_retired(), 100u);

  // Re-running the same code fills nothing further.
  ctx_.pc = kCodeBase;
  ASSERT_EQ(RunBatched(&cpu, ctx_).status, StepResult::kEcall);
  EXPECT_EQ(cache.fills(), 6u);
}

TEST_F(VmTest, DecodeCacheServesStaleDecodesUntilInvalidated) {
  const char* v1 = "_start:\n    li a0, 1\n    ecall\n";
  const char* v2 = "_start:\n    li a0, 2\n    ecall\n";
  Load(v1);
  DecodeCache cache;
  cache.Configure(kCodeBase, 4096);
  Cpu cpu(&mcu_.bus());
  cpu.set_decode_cache(&cache);
  ASSERT_EQ(RunBatched(&cpu, ctx_).status, StepResult::kEcall);
  EXPECT_EQ(ctx_.x[Reg::kA0], 1u);

  // Reprogram the first word without telling the cache (no observer at this
  // level): the stale decode keeps executing. This is exactly why the kernel's
  // invalidation hooks are load-bearing, not belt-and-braces.
  AssembledImage image;
  ASSERT_TRUE(assembler_.Assemble(v2, kCodeBase, &image));
  ASSERT_TRUE(mcu_.bus().ProgramFlash(kCodeBase, image.bytes.data(),
                                      static_cast<uint32_t>(image.bytes.size())));
  ctx_.pc = kCodeBase;
  ASSERT_EQ(RunBatched(&cpu, ctx_).status, StepResult::kEcall);
  EXPECT_EQ(ctx_.x[Reg::kA0], 1u);  // stale: the old decode of word 0

  // Invalidating the rewritten range restores freshness (li expands to two words,
  // so the range covers both — exactly what the kernel's observer does for a
  // ProgramFlash of this length).
  cache.InvalidateRange(kCodeBase, static_cast<uint32_t>(image.bytes.size()));
  EXPECT_EQ(cache.invalidations(), 1u);
  ctx_.pc = kCodeBase;
  ASSERT_EQ(RunBatched(&cpu, ctx_).status, StepResult::kEcall);
  EXPECT_EQ(ctx_.x[Reg::kA0], 2u);
}

TEST_F(VmTest, DecodeCacheOutOfWindowPcFallsBackToCheckedPath) {
  Load(kMixedProgram);
  // Window deliberately elsewhere: every pc misses and takes the ordinary
  // fetch/decode path, with no fills and unchanged results.
  DecodeCache cache;
  cache.Configure(kCodeBase + 0x10000, 4096);
  Cpu cpu(&mcu_.bus());
  cpu.set_decode_cache(&cache);
  ASSERT_EQ(RunBatched(&cpu, ctx_).status, StepResult::kEcall);
  EXPECT_EQ(cache.fills(), 0u);
  EXPECT_EQ(ctx_.x[Reg::kA0], 35u);  // 7+6+...+1 additions plus 7 bump calls
}

TEST_F(VmTest, DecodeCacheFaultsMatchUncachedFaults) {
  const char* bad = "_start:\n    nop\n    .word 0xFFFFFFFF\n";
  Load(bad);
  ASSERT_EQ(Run(), StepResult::kFault);
  VmFault uncached_fault = last_fault_;

  Load(bad);
  DecodeCache cache;
  cache.Configure(kCodeBase, 4096);
  Cpu cpu(&mcu_.bus());
  cpu.set_decode_cache(&cache);
  ASSERT_EQ(RunBatched(&cpu, ctx_).status, StepResult::kFault);
  EXPECT_EQ(cpu.fault().kind, uncached_fault.kind);
  EXPECT_EQ(cpu.fault().detail, uncached_fault.detail);
  EXPECT_EQ(cpu.fault().pc, uncached_fault.pc);
}

// ---- Superblocks (vm/decode.h block tables, interpreter v2) -------------------------------

TEST_F(VmTest, SuperblockExecutionMatchesStepEngine) {
  Load(kMixedProgram);
  Cpu stepper(&mcu_.bus());
  while (stepper.Step(ctx_) == StepResult::kOk) {
  }
  CpuContext step_ctx = ctx_;
  uint64_t step_retired = stepper.instructions_retired();

  Load(kMixedProgram);
  DecodeCache cache;
  cache.Configure(kCodeBase, 4096);
  Cpu batch(&mcu_.bus());
  batch.set_decode_cache(&cache);
  BatchRun r = RunBatched(&batch, ctx_);
  ASSERT_EQ(r.status, StepResult::kEcall);

  // Architecturally invisible: same final registers, same pc, same retire count.
  EXPECT_EQ(ctx_.pc, step_ctx.pc);
  for (int reg = 0; reg < 32; ++reg) {
    EXPECT_EQ(ctx_.x[reg], step_ctx.x[reg]) << "x" << reg;
  }
  EXPECT_EQ(batch.instructions_retired(), step_retired);
  EXPECT_GT(cache.fills(), 0u);
  EXPECT_GT(cache.blocks_built(), 0u);
  EXPECT_GT(r.chain_hits, 0u);  // the loop chains block-to-block across branches
}

TEST_F(VmTest, SuperblockMidBlockFlashWriteInvalidatesWholeBlock) {
  const char* v1 =
      "_start:\n    li a0, 1\n    li a1, 2\n    li a2, 3\n"
      "    add a3, a0, a1\n    add a3, a3, a2\n    ecall\n";
  const char* v2 =
      "_start:\n    li a0, 1\n    li a1, 2\n    li a2, 7\n"
      "    add a3, a0, a1\n    add a3, a3, a2\n    ecall\n";
  Load(v1);
  DecodeCache cache;
  cache.Configure(kCodeBase, 4096);
  Cpu cpu(&mcu_.bus());
  cpu.set_decode_cache(&cache);
  ASSERT_EQ(RunBatched(&cpu, ctx_).status, StepResult::kEcall);
  EXPECT_EQ(ctx_.x[Reg::kA3], 6u);
  ASSERT_GT(cache.live_blocks(), 0u);
  uint32_t live_before = cache.live_blocks();

  // Reprogram only the `li a2` pair (li expands to two words, so words 4-5) —
  // the middle of the straight-line block — and invalidate just that range, as
  // the kernel's ProgramFlash observer would. The whole enclosing block must
  // drop: a block is all-current or gone.
  AssembledImage image;
  ASSERT_TRUE(assembler_.Assemble(v2, kCodeBase, &image));
  ASSERT_TRUE(mcu_.bus().ProgramFlash(kCodeBase, image.bytes.data(),
                                      static_cast<uint32_t>(image.bytes.size())));
  EXPECT_EQ(cache.InvalidateRange(kCodeBase + 16, 8), 1u);
  EXPECT_EQ(cache.live_blocks(), live_before - 1);
  EXPECT_EQ(cache.BlockLenAt(0), 0u);

  // Fresh execution re-decodes the stale word and rebuilds the block.
  ctx_.pc = kCodeBase;
  ASSERT_EQ(RunBatched(&cpu, ctx_).status, StepResult::kEcall);
  EXPECT_EQ(ctx_.x[Reg::kA3], 10u);  // 1 + 2 + 7: the new word, not the stale decode
  EXPECT_EQ(cache.live_blocks(), live_before);
}

TEST_F(VmTest, SuperblockBranchIntoMiddleBuildsFreshBlock) {
  // First pass runs _start..beqz as one straight-line block; the second pass
  // jumps into `mid` — the middle of that block, where no block starts — so the
  // builder must lay down a fresh block at mid rather than reuse anything.
  Load(R"(
_start:
    li s0, 0
first:
    addi s0, s0, 1
mid:
    addi s0, s0, 2
    addi s0, s0, 4
    beqz x0, check
check:
    li t0, 10
    bltu s0, t0, tomid
    mv a0, s0
    ecall
tomid:
    j mid
)");
  DecodeCache cache;
  cache.Configure(kCodeBase, 4096);
  Cpu cpu(&mcu_.bus());
  cpu.set_decode_cache(&cache);
  BatchRun r = RunBatched(&cpu, ctx_);
  ASSERT_EQ(r.status, StepResult::kEcall);
  EXPECT_EQ(ctx_.x[Reg::kA0], 13u);  // 1+2+4 on pass one, +2+4 via mid on pass two

  uint32_t start_idx = (symbols_.at("_start") - kCodeBase) / 4;
  uint32_t mid_idx = (symbols_.at("mid") - kCodeBase) / 4;
  EXPECT_EQ(cache.BlockLenAt(start_idx), 6u);  // li (2 words)..beqz, terminator included
  EXPECT_EQ(cache.BlockLenAt(mid_idx), 3u);    // addi, addi, beqz — built on entry
}

TEST_F(VmTest, SuperblockFaultInsideBlockMatchesStepEngine) {
  // The store faults mid-straight-line: the batch engine must report the same
  // fault at the same pc with the same retire count as the per-insn engine,
  // leaving identical architectural state.
  const char* faulty = R"(
_start:
    li a0, 1
    li a1, 2
    li t3, 0x40000000
    sw a0, 0(t3)
    add a2, a0, a1
    ecall
)";
  Load(faulty);
  ASSERT_EQ(Run(), StepResult::kFault);
  VmFault step_fault = last_fault_;
  CpuContext step_ctx = ctx_;

  Load(faulty);
  DecodeCache cache;
  cache.Configure(kCodeBase, 4096);
  Cpu cpu(&mcu_.bus());
  cpu.set_decode_cache(&cache);
  BatchRun r = RunBatched(&cpu, ctx_);
  ASSERT_EQ(r.status, StepResult::kFault);
  EXPECT_EQ(cpu.fault().kind, step_fault.kind);
  EXPECT_EQ(cpu.fault().detail, step_fault.detail);
  EXPECT_EQ(cpu.fault().pc, step_fault.pc);
  EXPECT_EQ(ctx_.pc, step_ctx.pc);
  for (int reg = 0; reg < 32; ++reg) {
    EXPECT_EQ(ctx_.x[reg], step_ctx.x[reg]) << "x" << reg;
  }
  EXPECT_EQ(r.executed, 7u);  // three 2-word lis + the faulting store (ticked, not retired)
  EXPECT_EQ(cpu.instructions_retired(), 6u);
}

TEST_F(VmTest, SuperblockReleaseDropsAllBlocksAndMemory) {
  Load(kMixedProgram);
  DecodeCache cache;
  cache.Configure(kCodeBase, 4096);
  Cpu cpu(&mcu_.bus());
  cpu.set_decode_cache(&cache);
  ASSERT_EQ(RunBatched(&cpu, ctx_).status, StepResult::kEcall);
  CpuContext first_ctx = ctx_;
  EXPECT_GT(cache.MemoryBytes(), 0u);
  uint32_t live_before = cache.live_blocks();

  // Release is the restart path: every block dies with the tables, and the
  // freed cache must miss harmlessly rather than serve stale pointers.
  EXPECT_EQ(cache.Release(), live_before);
  EXPECT_EQ(cache.live_blocks(), 0u);
  EXPECT_EQ(cache.MemoryBytes(), 0u);
  EXPECT_FALSE(cache.IsConfigured());
  EXPECT_EQ(cache.Lookup(kCodeBase), nullptr);
  EXPECT_GT(live_before, 0u);

  // The cpu still holds the released cache: execution falls back to the checked
  // bus path and reproduces the identical result.
  ctx_ = CpuContext{};
  ctx_.pc = kCodeBase;
  ctx_.x[Reg::kSp] = kRam + 4096;
  ASSERT_EQ(RunBatched(&cpu, ctx_).status, StepResult::kEcall);
  EXPECT_EQ(ctx_.pc, first_ctx.pc);
  for (int reg = 0; reg < 32; ++reg) {
    EXPECT_EQ(ctx_.x[reg], first_ctx.x[reg]) << "x" << reg;
  }
}

}  // namespace
}  // namespace tock
