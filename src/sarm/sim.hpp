// SARM simulator with an SA-110-like cycle model (the SimIt-ARM role
// from paper §5.2): single-issue in-order 5-stage pipeline —
//   * 1 cycle per issued instruction (condition-failed ones too);
//   * MUL: +2 cycles (SA-110 multiplies take 1-3 depending on operand);
//   * load-use interlock: +1 cycle when the very next executed
//     instruction reads a just-loaded register;
//   * taken branches (B/BL/BX): +2 cycles of fetch bubbles;
//   * software divide pseudo-ops: 35 cycles total (ARM has no divide
//     instruction; this models the shift-subtract library routine).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/memory.hpp"
#include "sarm/isa.hpp"

namespace cepic::sarm {

struct SarmStats {
  std::uint64_t cycles = 0;
  std::uint64_t insts_executed = 0;   ///< issued (including cond-failed)
  std::uint64_t insts_committed = 0;  ///< condition passed
  std::uint64_t branches_taken = 0;
  std::uint64_t branches_not_taken = 0;
  std::uint64_t load_use_stalls = 0;
  std::uint64_t mul_cycles = 0;
  std::uint64_t div_cycles = 0;
  std::uint64_t mem_reads = 0;
  std::uint64_t mem_writes = 0;
};

struct SarmOptionsSim {
  std::uint64_t max_cycles = 2'000'000'000;
  std::size_t mem_size = std::size_t{1} << 22;
  unsigned mul_extra_cycles = 2;
  unsigned div_total_cycles = 35;
  unsigned taken_branch_penalty = 2;
};

/// Runs a linked SProgram. The code is decoded once, at construction,
/// into flat records; construction rejects a register field above r15
/// and a shift amount above 31 with a SimError naming the instruction.
class SarmSimulator {
public:
  explicit SarmSimulator(SProgram program, SarmOptionsSim options = {});

  void reset();
  /// Runs until HALT; throws SimError on faults, with stats() counting
  /// up to the faulting instruction.
  const SarmStats& run();

  std::uint32_t reg(unsigned i) const;
  void set_reg(unsigned i, std::uint32_t v);
  const std::vector<std::uint32_t>& output() const { return output_; }
  const SarmStats& stats() const { return stats_; }
  DataMemory& memory() { return mem_; }
  bool halted() const { return halted_; }

private:
  /// One instruction as run() executes it.
  struct Decoded {
    /// Immediate second operand (0 for a register one), or the branch
    /// target of B/BL.
    std::uint32_t value = 0;
    /// Bit f set: the condition passes when the NZCV nibble equals f.
    std::uint16_t cond_mask = 0;
    /// Registers the load-use interlock checks, one bit each.
    std::uint16_t reads = 0;
    SOp op = SOp::Mov;
    std::uint8_t rd = 0;
    std::uint8_t rn = 0;
    /// Second-operand register; kZeroReg for an immediate.
    std::uint8_t rm = 0;
    /// The barrel shifter as three shifts in a row, at most one nonzero:
    /// op2 = (u32)((s32)(r[rm] << lsl) >> asr) >> lsr, then + value.
    std::uint8_t lsl = 0;
    std::uint8_t asr = 0;
    std::uint8_t lsr = 0;
    /// 1 for B/BL/BX: counts a not-taken branch when the condition fails.
    std::uint8_t branch = 0;
  };
  /// The register slot an immediate operand reads: always zero.
  static constexpr unsigned kZeroReg = kNumRegs;

  std::vector<Decoded> code_;
  std::vector<std::uint8_t> data_;
  std::uint32_t entry_ = 0;
  SarmOptionsSim options_;
  std::array<std::uint32_t, kNumRegs + 1> regs_{};
  std::uint8_t nzcv_ = 0;  ///< N=8, Z=4, C=2, V=1
  DataMemory mem_;
  std::uint32_t pc_ = 0;
  bool halted_ = false;
  /// The register the previous instruction loaded, as a bit; 0 when it
  /// was not a load.
  std::uint16_t load_mask_ = 0;
  std::vector<std::uint32_t> output_;
  SarmStats stats_;
};

}  // namespace cepic::sarm
