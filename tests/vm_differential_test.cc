// Differential check of the batch engine against the reference engine: seeded
// random RV32IM programs run under Cpu::RunBatch (threaded dispatch, superblocks,
// per-run slot charging) and, on a twin machine, under Cpu::Step (uncached, one
// instruction at a time, every access MPU-checked). After every batch both twins
// must agree on status, pc, registers, retire count, consumed slots, fault record
// and RAM.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <random>
#include <sstream>
#include <string>

#include "hw/mcu.h"
#include "hw/memory_map.h"
#include "vm/assembler.h"
#include "vm/cpu.h"

namespace tock {
namespace {

constexpr uint32_t kCodeBase = 0x1000;
constexpr uint32_t kRam = MemoryMap::kRamBase;
constexpr uint32_t kRamWindow = 4096;
constexpr uint32_t kSeed = 0x7E57'0C0B;
constexpr int kPrograms = 200;
constexpr uint64_t kSlotsPerProgram = 1500;
constexpr uint32_t kMaxBudget = 80;

// Destinations: x0 (writes must vanish), ra, the temporaries and the argument
// registers. s2..s11 hold the address bases and jump targets the prologue sets.
constexpr std::array<const char*, 19> kDest = {
    "zero", "ra", "t0", "t1", "t2", "s0", "s1", "a0", "a1", "a2",
    "a3",   "a4", "a5", "a6", "a7", "t3", "t4", "t5", "t6"};
constexpr std::array<const char*, 8> kBase = {"s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9"};
// Offsets around each base: the ±4 edges, sub-word misalignment, and a stride.
constexpr std::array<int, 11> kEdgeOffsets = {-8, -4, -2, -1, 0, 1, 2, 3, 4, 8, 64};
constexpr std::array<const char*, 17> kAluR = {
    "add", "sub", "sll", "slt", "sltu", "xor", "srl", "sra", "or",
    "and", "mul", "mulh", "mulhu", "div", "divu", "rem", "remu"};
constexpr std::array<const char*, 6> kAluI = {"addi", "slti", "sltiu", "xori", "ori", "andi"};
constexpr std::array<const char*, 3> kShiftI = {"slli", "srli", "srai"};
constexpr std::array<const char*, 6> kBranch = {"beq", "bne", "blt", "bge", "bltu", "bgeu"};
constexpr std::array<const char*, 5> kLoad = {"lb", "lh", "lw", "lbu", "lhu"};
constexpr std::array<const char*, 3> kStore = {"sb", "sh", "sw"};

class ProgramGen {
 public:
  explicit ProgramGen(uint32_t seed) : rng_(seed) {}

  uint32_t Below(uint32_t n) { return static_cast<uint32_t>(rng_() % n); }

  template <size_t N>
  const char* Pick(const std::array<const char*, N>& from) {
    return from[Below(N)];
  }

  // A program of `body` labelled instructions L0..L{body-1}, then `j L0`.
  std::string Generate(uint32_t body) {
    std::ostringstream s;
    s << "_start:\n"
      << "    li s2, " << kRam - 4 << "\n"                  // below the RAM window
      << "    li s3, " << kRam << "\n"                      // its first word
      << "    li s4, " << kRam + kRamWindow - 4 << "\n"     // its last word
      << "    li s5, " << kRam + kRamWindow << "\n"         // just past it
      << "    li s6, " << kCodeBase << "\n"                 // flash: readable, not writable
      << "    la s7, end\n"                                 // flash past the code window
      << "    li s8, " << MemoryMap::kMmioBase << "\n"      // MMIO
      << "    li s9, 0x30000000\n"                          // unmapped
      << "    li s11, 0xFFFFFFFC\n";                        // the upcall-return address
    for (uint32_t i = 0; i < body; ++i) {
      s << "L" << i << ":\n    " << Instruction(body) << "\n";
    }
    s << "    j L0\nend:\n";
    return s.str();
  }

 private:
  std::string Label(uint32_t body) { return "L" + std::to_string(Below(body)); }

  std::string Instruction(uint32_t body) {
    std::ostringstream s;
    uint32_t roll = Below(100);
    if (roll < 25) {
      s << Pick(kAluR) << " " << Pick(kDest) << ", " << Source() << ", " << Source();
    } else if (roll < 38) {
      s << Pick(kAluI) << " " << Pick(kDest) << ", " << Source() << ", "
        << static_cast<int>(Below(4096)) - 2048;
    } else if (roll < 43) {
      s << Pick(kShiftI) << " " << Pick(kDest) << ", " << Source() << ", " << Below(32);
    } else if (roll < 46) {
      s << (Below(2) == 0 ? "lui " : "auipc ") << Pick(kDest) << ", " << Below(1u << 20);
    } else if (roll < 62) {
      bool store = Below(2) == 0;
      s << (store ? Pick(kStore) : Pick(kLoad)) << " " << (store ? Source() : Pick(kDest))
        << ", " << Address();
    } else if (roll < 75) {
      s << Pick(kBranch) << " " << Source() << ", " << Source() << ", " << Label(body);
    } else if (roll < 80) {
      // jal, one time in four to the middle of a word.
      s << "jal " << Pick(kDest) << ", " << Label(body) << (Below(4) == 0 ? "+2" : "");
    } else if (roll < 85) {
      // jalr through s10; a few return to the kernel through the magic address.
      if (Below(8) == 0) {
        s << "jalr " << Pick(kDest) << ", 0(s11)";
      } else {
        s << "la s10, " << Label(body) << "\n    jalr " << Pick(kDest) << ", "
          << (Below(4) == 0 ? 2 : 0) << "(s10)";
      }
    } else if (roll < 89) {
      s << ".word " << (Below(2) == 0 ? "0xFFFFFFFF" : "0x00000000");
    } else if (roll < 94) {
      s << "ecall";
    } else if (roll < 97) {
      s << "ebreak";
    } else {
      s << "fence";
    }
    return s.str();
  }

  const char* Source() {
    return Below(5) == 0 ? Pick(kBase) : Pick(kDest);
  }

  // Mostly in the RAM window, so runs survive; otherwise at an edge of RAM, of
  // flash or of the code window, in MMIO or in unmapped space.
  std::string Address() {
    std::ostringstream s;
    if (Below(3) != 0) {
      if (Below(2) == 0) {
        s << Below(2048) << "(s3)";
      } else {
        s << -static_cast<int>(Below(2048)) << "(s4)";
      }
    } else {
      s << kEdgeOffsets[Below(kEdgeOffsets.size())] << "(" << Pick(kBase) << ")";
    }
    return s.str();
  }

  std::mt19937 rng_;
};

// One machine: its own memory, MPU windows for the code (RX) and 4 KiB of RAM
// (RW), and a context at the entry point.
struct Twin {
  Twin(const AssembledImage& image, std::mt19937& rng) : cpu(&mcu.bus()) {
    uint32_t size = static_cast<uint32_t>(image.bytes.size());
    EXPECT_TRUE(mcu.bus().ProgramFlash(kCodeBase, image.bytes.data(), size));
    mcu.mpu().ConfigureRegion(0, {kCodeBase, size, true, false, true, true});
    mcu.mpu().ConfigureRegion(1, {kRam, kRamWindow, true, true, false, true});
    ctx.pc = kCodeBase;
    for (auto& reg : ctx.x) {
      reg = static_cast<uint32_t>(rng());
    }
    ctx.x[0] = 0;
    ctx.x[Reg::kSp] = kRam + kRamWindow;
  }

  std::array<uint8_t, kRamWindow> Ram() {
    std::array<uint8_t, kRamWindow> ram{};
    EXPECT_TRUE(mcu.bus().ReadBlock(kRam, ram.data(), kRamWindow));
    return ram;
  }

  Mcu mcu;
  Cpu cpu;
  CpuContext ctx;
};

// The first difference between the twins, or "" when they agree.
std::string Compare(Twin& batch, StepResult batch_status, uint64_t batch_slots, Twin& step,
                    StepResult step_status, uint64_t step_slots) {
  std::ostringstream d;
  if (batch_status != step_status) {
    d << "status " << static_cast<int>(batch_status) << " vs " << static_cast<int>(step_status);
  } else if (batch_slots != step_slots) {
    d << "slots " << batch_slots << " vs " << step_slots;
  } else if (batch.ctx.pc != step.ctx.pc) {
    d << std::hex << "pc 0x" << batch.ctx.pc << " vs 0x" << step.ctx.pc;
  } else if (batch.cpu.instructions_retired() != step.cpu.instructions_retired()) {
    d << "retired " << batch.cpu.instructions_retired() << " vs "
      << step.cpu.instructions_retired();
  } else if (batch_status == StepResult::kFault &&
             (batch.cpu.fault().kind != step.cpu.fault().kind ||
              batch.cpu.fault().pc != step.cpu.fault().pc ||
              batch.cpu.fault().detail != step.cpu.fault().detail)) {
    d << std::hex << "fault kind " << static_cast<int>(batch.cpu.fault().kind) << " pc 0x"
      << batch.cpu.fault().pc << " detail 0x" << batch.cpu.fault().detail << " vs kind "
      << static_cast<int>(step.cpu.fault().kind) << " pc 0x" << step.cpu.fault().pc
      << " detail 0x" << step.cpu.fault().detail;
  } else if (batch.Ram() != step.Ram()) {
    d << "RAM window";
  } else {
    for (int r = 0; r < 32; ++r) {
      if (batch.ctx.x[r] != step.ctx.x[r]) {
        d << std::hex << "x" << std::dec << r << std::hex << " 0x" << batch.ctx.x[r] << " vs 0x"
          << step.ctx.x[r];
        break;
      }
    }
  }
  return d.str();
}

TEST(VmDifferential, RandomProgramsRunBatchMatchesStepAtEveryBatchBoundary) {
  ProgramGen gen(kSeed);
  std::mt19937 rng(kSeed ^ 0x5A5A5A5Au);
  Assembler assembler;
  // Coverage of the generator: every outcome the batch engine plumbs
  // separately must actually occur.
  uint64_t seen[5] = {};  // by StepResult
  uint64_t seen_fault[4] = {};  // by VmFault::Kind
  uint64_t blocks_built = 0;
  uint64_t chain_hits = 0;

  for (int program = 0; program < kPrograms; ++program) {
    std::string source = gen.Generate(24 + gen.Below(41));
    AssembledImage image;
    ASSERT_TRUE(assembler.Assemble(source, kCodeBase, &image)) << assembler.error();
    std::mt19937 regs_rng(static_cast<uint32_t>(rng()));
    std::mt19937 twin_rng = regs_rng;
    auto batch = std::make_unique<Twin>(image, regs_rng);
    auto step = std::make_unique<Twin>(image, twin_rng);
    DecodeCache cache;
    cache.Configure(kCodeBase, static_cast<uint32_t>(image.bytes.size()));
    batch->cpu.set_decode_cache(&cache);

    uint64_t batch_slots = 0;
    uint64_t step_slots = 0;
    for (int b = 0; batch_slots < kSlotsPerProgram; ++b) {
      uint32_t budget = 1 + static_cast<uint32_t>(rng() % kMaxBudget);
      Cpu::BatchResult res = batch->cpu.RunBatch(batch->ctx, budget);
      batch_slots += res.executed;
      blocks_built += res.blocks_built;
      chain_hits += res.chain_hits;
      StepResult status = StepResult::kOk;
      for (uint32_t slot = 0; slot < budget && status == StepResult::kOk; ++slot) {
        status = step->cpu.Step(step->ctx);
        ++step_slots;
      }
      // The twin never steps past the budget, so a batch that overran it shows
      // as a slot or status difference.
      std::string diff = Compare(*batch, res.status, batch_slots, *step, status, step_slots);
      ASSERT_EQ(diff, "") << "seed 0x" << std::hex << kSeed << std::dec << ", program "
                          << program << ", batch " << b << ", budget " << budget << "\n"
                          << source;
      ++seen[static_cast<int>(status)];
      if (status == StepResult::kFault) {
        ++seen_fault[static_cast<int>(step->cpu.fault().kind)];
      }
      if (status == StepResult::kFault || status == StepResult::kUpcallReturn) {
        // The kernel would end the process here; resume both twins at a label.
        uint32_t resume = image.symbols.at("L" + std::to_string(gen.Below(24)));
        batch->ctx.pc = resume;
        step->ctx.pc = resume;
      }
    }
  }
  EXPECT_GT(seen[static_cast<int>(StepResult::kOk)], 0u);
  EXPECT_GT(seen[static_cast<int>(StepResult::kEcall)], 0u);
  EXPECT_GT(seen[static_cast<int>(StepResult::kEbreak)], 0u);
  EXPECT_GT(seen[static_cast<int>(StepResult::kUpcallReturn)], 0u);
  EXPECT_GT(seen_fault[static_cast<int>(VmFault::Kind::kBus)], 0u);
  EXPECT_GT(seen_fault[static_cast<int>(VmFault::Kind::kIllegalInstruction)], 0u);
  EXPECT_GT(seen_fault[static_cast<int>(VmFault::Kind::kMisalignedJump)], 0u);
  EXPECT_GT(blocks_built, 0u);
  EXPECT_GT(chain_hits, 0u);
}

}  // namespace
}  // namespace tock
