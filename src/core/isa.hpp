// The CEPIC instruction set: an integer subset of HPL-PD (paper §3.1),
// plus CUSTOM0..CUSTOM3 slots for application-specific instructions
// (paper §3.3). Each operation carries static metadata (functional unit,
// operand shapes, latency class) consumed by the encoder, assembler,
// scheduler and simulator.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace cepic {

enum class Op : std::uint16_t {
  NOP = 0,

  // ALU operations (one of the N ALUs).
  ADD, SUB, MUL, DIV, REM,
  AND, OR, XOR,
  SHL, SHRA, SHRL,
  MIN, MAX, ABS,
  MOV,

  // Compare-to-predicate operations (CMPU). Dual destination, HPL-PD
  // style: DEST1 pred <- cond, DEST2 pred <- !cond.
  CMPP_EQ, CMPP_NE,
  CMPP_LT, CMPP_LE, CMPP_GT, CMPP_GE,
  CMPP_LTU, CMPP_LEU, CMPP_GTU, CMPP_GEU,
  PSET,  ///< DEST1 pred <- (src1 != 0)

  // Load/store unit.
  LDW,   ///< word load,  dest <- mem32[src1 + src2]
  LDB,   ///< byte load, sign-extended
  LDBU,  ///< byte load, zero-extended
  LDWS,  ///< speculative word load: never faults, out-of-range loads 0
  STW,   ///< mem32[src1 + src2] <- dest1-as-source
  STB,   ///< byte store
  OUT,   ///< memory-mapped output port: emit src1 (used by workloads)

  // Branch unit. Branch targets are *bundle* addresses held in branch
  // target registers (BTRs), prepared in advance by PBR (paper §3.2).
  PBR,   ///< BTR[dest1] <- literal target
  BRU,   ///< unconditional branch to BTR[src1]
  BRCT,  ///< branch to BTR[src1] if predicate src2 is true
  BRCF,  ///< branch to BTR[src1] if predicate src2 is false
  BRL,   ///< branch-and-link: GPR[dest1] <- return bundle, jump BTR[src1]
  BRR,   ///< indirect branch to bundle address in GPR[src1] (return)
  HALT,  ///< stop the processor

  // Custom-instruction slots (ALU class); semantics supplied at runtime
  // by a CustomOpTable bound to the configuration.
  CUSTOM0, CUSTOM1, CUSTOM2, CUSTOM3,

  kCount
};

constexpr std::size_t kNumOps = static_cast<std::size_t>(Op::kCount);

/// Functional unit classes (paper Fig. 2).
enum class FuClass : std::uint8_t { None, Alu, Cmpu, Lsu, Bru };

/// Register files addressed by operands.
enum class RegFile : std::uint8_t { None, Gpr, Pred, Btr };

/// Shape of a source operand slot.
enum class SrcSpec : std::uint8_t {
  None,      ///< slot unused
  Gpr,       ///< must be a GPR index
  Pred,      ///< must be a predicate-register index
  Btr,       ///< must be a BTR index
  GprOrLit,  ///< GPR index or inline literal
  LitOnly,   ///< inline literal only
};

/// Register file a source slot of this shape reads (None for literal-only
/// and unused slots).
constexpr RegFile reg_file(SrcSpec spec) {
  switch (spec) {
    case SrcSpec::Gpr:
    case SrcSpec::GprOrLit: return RegFile::Gpr;
    case SrcSpec::Pred: return RegFile::Pred;
    case SrcSpec::Btr: return RegFile::Btr;
    case SrcSpec::None:
    case SrcSpec::LitOnly: break;
  }
  return RegFile::None;
}

/// Assembly prefix of a register file: `r`, `p` or `b` (`?` for None).
constexpr char reg_prefix(RegFile file) {
  switch (file) {
    case RegFile::Gpr: return 'r';
    case RegFile::Pred: return 'p';
    case RegFile::Btr: return 'b';
    case RegFile::None: break;
  }
  return '?';
}

struct OpInfo {
  Op op = Op::NOP;
  std::string_view name;
  FuClass fu = FuClass::None;
  RegFile dest1 = RegFile::None;
  RegFile dest2 = RegFile::None;
  SrcSpec src1 = SrcSpec::None;
  SrcSpec src2 = SrcSpec::None;
  /// For stores the DEST1 field is read, not written (value operand).
  bool dest1_is_source = false;
  /// Literals are zero-extended (logical/shift/unsigned-compare ops)
  /// rather than sign-extended.
  bool literal_zero_extends = false;
  /// Default result latency in cycles (MDES may override loads).
  unsigned latency = 1;
  bool is_branch = false;
  bool is_load = false;
  bool is_store = false;

  bool is_mem() const { return is_load || is_store || op == Op::OUT; }
  bool writes_dest1() const {
    return dest1 != RegFile::None && !dest1_is_source;
  }
};

/// Static metadata for an operation. O(1).
const OpInfo& op_info(Op op);

/// Look an operation up by its assembly mnemonic (lower-case).
std::optional<Op> op_by_name(std::string_view name);

/// True for the CUSTOM0..CUSTOM3 slots.
constexpr bool is_custom(Op op) {
  return op >= Op::CUSTOM0 && op <= Op::CUSTOM3;
}

/// Slot index 0..3 of a custom op.
constexpr unsigned custom_slot(Op op) {
  return static_cast<unsigned>(op) - static_cast<unsigned>(Op::CUSTOM0);
}

}  // namespace cepic
