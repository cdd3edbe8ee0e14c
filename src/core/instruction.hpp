// Decoded instruction representation shared by the backend, assembler,
// encoder and simulator, plus structural validation against a
// ProcessorConfig.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.hpp"
#include "core/isa.hpp"

namespace cepic {

/// A source operand: absent, a register index (file implied by the op's
/// OpInfo), or an inline literal.
struct Operand {
  enum class Kind : std::uint8_t { None, Reg, Lit };

  Kind kind = Kind::None;
  std::uint32_t reg = 0;   ///< register index when kind == Reg
  std::int32_t lit = 0;    ///< literal value when kind == Lit

  static Operand none() { return {}; }
  static Operand r(std::uint32_t index) {
    Operand o;
    o.kind = Kind::Reg;
    o.reg = index;
    return o;
  }
  static Operand imm(std::int32_t value) {
    Operand o;
    o.kind = Kind::Lit;
    o.lit = value;
    return o;
  }

  bool is_reg() const { return kind == Kind::Reg; }
  bool is_lit() const { return kind == Kind::Lit; }
  bool operator==(const Operand&) const = default;
};

/// One decoded EPIC operation. `dest1`/`dest2` index the register file
/// given by the op's OpInfo; `pred` is the guard predicate (0 = p0,
/// hardwired true, i.e. unguarded).
struct Instruction {
  Op op = Op::NOP;
  std::uint32_t dest1 = 0;
  std::uint32_t dest2 = 0;
  Operand src1;
  Operand src2;
  std::uint32_t pred = 0;

  bool operator==(const Instruction&) const = default;

  const OpInfo& info() const { return op_info(op); }
  bool is_nop() const { return op == Op::NOP; }

  // --- factories for the common shapes (used heavily in tests) ---
  static Instruction make(Op op, std::uint32_t d1 = 0, Operand s1 = {},
                          Operand s2 = {}, std::uint32_t pred = 0,
                          std::uint32_t d2 = 0) {
    Instruction i;
    i.op = op;
    i.dest1 = d1;
    i.dest2 = d2;
    i.src1 = s1;
    i.src2 = s2;
    i.pred = pred;
    return i;
  }
  static Instruction nop() { return {}; }
  static Instruction halt() { return make(Op::HALT); }
};

/// Human-readable assembly rendering, e.g. "(p3) add r1, r2, #-5".
/// Non-empty `src1_text`/`src2_text` print in place of that source
/// operand (the assembler's `@symbol` references).
std::string to_string(const Instruction& inst, std::string_view src1_text = {},
                      std::string_view src2_text = {});

/// Number of registers in `file` on `cfg` (0 for RegFile::None).
unsigned reg_file_size(const ProcessorConfig& cfg, RegFile file);

/// Is `op` implemented on `cfg`? False for ops the ALU feature trims
/// remove and for custom slots the configuration does not bind.
bool implements(const ProcessorConfig& cfg, Op op);

/// What an instruction gets wrong about a configuration.
enum class DefectKind : std::uint8_t {
  Shape,          ///< operand present/absent/kind against the op's shape
  RegRange,       ///< register index past the end of its file
  LitWidth,       ///< literal does not fit the SRC field
  RegCap,         ///< more register operands than the encoding allows
  Unimplemented,  ///< op absent from this customisation
};

struct Defect {
  DefectKind kind = DefectKind::Shape;
  std::string message;
};

/// Every defect of `inst` on `cfg`, in field order: op support, dest1,
/// dest2, src1, src2, guard, register cap. Empty when valid. The one
/// definition of instruction validity: the assembler, the CEPX codec,
/// mcheck, the simulator and the static cycle predictor all call it.
std::vector<Defect> check_instruction(const Instruction& inst,
                                      const ProcessorConfig& cfg);

/// The first defect's message, or an empty string when `inst` is valid.
std::string validate_instruction(const Instruction& inst,
                                 const ProcessorConfig& cfg);

/// Number of GPR/pred/BTR *reads* this instruction performs (guard
/// predicate excluded — the predicate file has its own ports in the
/// modelled design) and writes it performs. Used for the register-port
/// budget (paper §3.2).
unsigned count_reg_reads(const Instruction& inst);
unsigned count_reg_writes(const Instruction& inst);

}  // namespace cepic
