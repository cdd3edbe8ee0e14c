// ProcessorConfig: the compile-time customisation parameters of the EPIC
// processor (paper §3.3), and InstructionFormat: the parameterisable
// 64-bit instruction layout derived from them (paper Fig. 1).
//
// The paper instantiates all parameters "in the configuration header
// file"; ProcessorConfig::from_text()/to_text() implement that file so
// the assembler and simulator can re-target without recompilation
// (paper §4.2).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "support/error.hpp"

namespace cepic {

/// Which operation groups the ALUs implement. Trimming unused groups is
/// the paper's primary example of customisation ("ALUs do not need to
/// support division if this operation is not required").
struct AluFeatures {
  bool has_mul = true;
  bool has_div = true;  ///< covers DIV and REM
  bool has_shift = true;
  bool has_minmax = true;  ///< MIN/MAX/ABS

  bool operator==(const AluFeatures&) const = default;
};

/// Layout of one fixed-width instruction (paper Fig. 1):
///   OPCODE | DEST1 | DEST2 | SRC1 | SRC2 | PRED   (MSB → LSB)
/// The OPCODE field carries the operation id plus two "source is a
/// literal" flags. With the default configuration the widths are
/// 15/6/6/16/16/5 = 64 bits, exactly the paper's format.
struct InstructionFormat {
  unsigned opcode_bits = 15;
  unsigned dest_bits = 6;
  unsigned src_bits = 16;
  unsigned pred_bits = 5;

  /// Bits of the OPCODE field that hold the operation id (the remaining
  /// bits are the two literal flags and spare).
  static constexpr unsigned kOpIdBits = 12;
  /// Flag bit positions inside the OPCODE field (from its LSB).
  static constexpr unsigned kSrc1LitFlag = 0;
  static constexpr unsigned kSrc2LitFlag = 1;

  unsigned total_bits() const {
    return opcode_bits + 2 * dest_bits + 2 * src_bits + pred_bits;
  }

  // Field offsets from bit 0 (LSB) of the instruction word.
  unsigned pred_lo() const { return 0; }
  unsigned src2_lo() const { return pred_bits; }
  unsigned src1_lo() const { return pred_bits + src_bits; }
  unsigned dest2_lo() const { return pred_bits + 2 * src_bits; }
  unsigned dest1_lo() const { return pred_bits + 2 * src_bits + dest_bits; }
  unsigned opcode_lo() const {
    return pred_bits + 2 * src_bits + 2 * dest_bits;
  }

  bool operator==(const InstructionFormat&) const = default;
};

/// All customisation parameters from paper §3.3, with the paper's
/// defaults: 4 ALUs, 64 GPRs, 32 predicate registers, 16 branch target
/// registers, 32-bit datapath, 4 instructions per issue.
struct ProcessorConfig {
  unsigned num_alus = 4;
  unsigned num_gprs = 64;
  unsigned num_preds = 32;
  unsigned num_btrs = 16;
  /// Instructions per issue; constrained to 1..4 by memory bandwidth
  /// (paper §3.3 last paragraph).
  unsigned issue_width = 4;
  /// Width of datapath and registers, in bits (8..32 supported by the
  /// simulator; the FPGA model accepts up to 64).
  unsigned datapath_width = 32;
  /// "Number of registers each instruction can use" (paper §3.3) — an
  /// encoding-level cap on register operands per instruction.
  unsigned max_regs_per_instr = 4;
  /// Register read+write operations available per processor cycle. The
  /// paper's dual-port register file with a 4x-clock controller gives 8.
  unsigned reg_port_budget = 8;
  /// Result forwarding by the register file controller (paper §3.2).
  bool forwarding = true;
  /// If true, data-memory accesses steal instruction-fetch bandwidth
  /// from the shared external banks (ablation A2); off by default.
  bool unified_memory_contention = false;
  /// Load-to-use latency in cycles as exposed to the scheduler.
  unsigned load_latency = 2;
  /// Pipeline depth (paper future work: "parameterising the level of
  /// pipelining"). The prototype is 2-stage (Fetch/Decode/Issue |
  /// Execute/WriteBack); deeper pipelines raise the clock (see the FPGA
  /// model) at the cost of one taken-branch bubble per extra stage.
  unsigned pipeline_stages = 2;

  AluFeatures alu;

  /// Names of enabled custom ALU operations, bound to CUSTOM0.. slots in
  /// order. The CustomOpTable supplies their semantics.
  std::vector<std::string> custom_ops;

  /// Derive the instruction format. Field widths grow automatically with
  /// the register-file sizes (the paper's "provision for adjustment").
  InstructionFormat format() const;

  /// Throws ConfigError if any parameter is out of range or the derived
  /// format exceeds the 64-bit container.
  void validate() const;

  /// Parse the textual configuration file (one `key = value` per line,
  /// `#` comments). Unknown keys are rejected.
  static ProcessorConfig from_text(std::string_view text);

  /// Render as a configuration file (round-trips through from_text).
  std::string to_text() const;

  /// Order-stable 64-bit hash of the canonical textual form, identical
  /// across runs and platforms. Two configs hash equal iff they compare
  /// equal (to_text() covers every field). Keys the explore result
  /// cache, including its on-disk file.
  std::uint64_t stable_hash() const;

  /// This configuration with every affects-simulation-only field
  /// (pipeline_stages, unified_memory_contention) reset to its default:
  /// the part that compiled code depends on. The compiler, scheduler and
  /// assembler never read those fields, so configs with equal slices
  /// share one compiled Program, and one simulator image (sim/simulator.hpp).
  /// This is the normative definition of the options partition for
  /// ProcessorConfig (docs/PIPELINE.md).
  ProcessorConfig codegen_slice() const;

  /// Compact one-line description for sweep tables and CSV rows, e.g.
  /// "2alu/4iss/8port/2stg" plus any non-default extras.
  std::string summary() const;

  bool operator==(const ProcessorConfig&) const = default;
};

}  // namespace cepic
