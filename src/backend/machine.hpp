// Machine-level representation used by the EPIC backend between lowering
// and emission: core Instructions whose register fields may still hold
// *virtual* registers (ids >= analysis::kVirtBase, per register file),
// organised in the IR's block structure. The register allocator rewrites
// virtuals to physical indices; the scheduler then packs each block into
// MultiOps.
//
// Calling convention (CEPIC ABI):
//   r0  hardwired zero          r1  stack pointer (grows down)
//   r2  return address (BRL)    r3  return value
//   r4..r11  arguments (max 8)  r12.. allocatable temporaries
// All registers are caller-save. Frame layout (from sp after prologue):
//   [0,4)                saved return address
//   [4, 4+frame_bytes)   IR locals (FrameAddr offsets)
//   [4+frame_bytes, ..)  register spill slots
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/linear_scan.hpp"
#include "asmtool/assembler.hpp"
#include "core/instruction.hpp"

namespace cepic::backend {

using analysis::is_virtual;
using analysis::virt_reg;

struct CallConv {
  static constexpr std::uint32_t kZero = 0;
  static constexpr std::uint32_t kSp = 1;
  static constexpr std::uint32_t kRa = 2;
  static constexpr std::uint32_t kRv = 3;
  static constexpr std::uint32_t kArg0 = 4;
  static constexpr std::uint32_t kMaxArgs = 8;
  /// First general-purpose register available to the allocator.
  static constexpr std::uint32_t first_allocatable() {
    return kArg0 + kMaxArgs;  // r12
  }
};

struct MInst {
  Instruction inst;
  /// Label a PBR target literal resolves to (empty = literal is final).
  std::string target;
  /// BRL/BRR/HALT: no code motion across (calls clobber everything).
  bool is_barrier = false;
  /// Prologue/epilogue sp adjustment whose literal is patched with the
  /// final frame size after spill slots are known: -1 = sp -= frame,
  /// +1 = sp += frame.
  int frame_sign = 0;
};

struct MBlock {
  std::string label;  ///< empty for fall-through-only blocks
  std::vector<MInst> insts;
};

struct MFunc {
  std::string name;
  std::vector<MBlock> blocks;
  /// Successor block indices (mirrors the IR CFG; needed for liveness).
  std::vector<std::vector<int>> succs;
  std::uint32_t frame_bytes = 0;  ///< IR locals (before spill slots)
  std::uint32_t num_vgpr = 0;
  std::uint32_t num_vpred = 0;
  std::uint32_t num_vbtr = 0;
};

/// A scheduled function: per block, its MultiOps in the assembler's
/// bundle model (a PBR's MInst::target becomes its `@label` src1).
struct ScheduledFunc {
  std::string name;
  struct Block {
    std::string label;
    std::vector<std::vector<asmtool::Listing::Op>> bundles;
  };
  std::vector<Block> blocks;
};

}  // namespace cepic::backend
