// The CEPIC compiler's intermediate representation: a non-SSA
// three-address code over virtual registers, in the spirit of the Lcode
// used by Trimaran's IMPACT module (which the paper's compiler flow is
// built on). Machine-independent optimisations, if-conversion and both
// back-ends (EPIC and the SARM baseline) operate on this IR; the
// interpreter in interp.hpp gives its golden semantics.
//
// Conventions:
//  * all values are 32-bit words; signedness is per-operation;
//  * virtual registers are dense indices, 1.. (0 is "no register");
//  * an instruction may carry a guard: it commits only if the guard
//    vreg is non-zero (or zero, when guard_negate) — the IR-level image
//    of EPIC predication, produced by the if-conversion pass;
//  * memory is byte-addressed big-endian, shared layout with the EPIC
//    simulator: globals from kDataBase, stack at the top growing down;
//  * each block ends in exactly one terminator (Br/CondBr/Ret).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "support/error.hpp"

namespace cepic::ir {

using VReg = std::uint32_t;
inline constexpr VReg kNoVReg = 0;

enum class IrOp : std::uint8_t {
  // Binary arithmetic/logical: dst = a <op> b.
  Add, Sub, Mul, Div, Rem,
  And, Or, Xor,
  Shl, Shra, Shrl,
  Min, Max,
  // dst = a.
  Mov,
  // Comparisons: dst = (a <cond> b) ? 1 : 0.
  CmpEq, CmpNe, CmpLt, CmpLe, CmpGt, CmpGe,
  CmpLtU, CmpLeU, CmpGtU, CmpGeU,
  // Memory: address = a + b.
  LoadW, LoadB, LoadBU,
  StoreW, StoreB,  ///< stored value in `c`
  // Address materialisation.
  GlobalAddr,  ///< dst = address of globals[global_index]
  FrameAddr,   ///< dst = frame base + imm byte offset (in a)
  // Calls: dst (optional) = callee(args...).
  Call,
  // Emit a to the output port.
  Out,
  // Terminators.
  Br,       ///< jump to block_then
  CondBr,   ///< if a != 0 jump block_then else block_else
  Ret,      ///< return a (optional)
};

struct Value {
  enum class Kind : std::uint8_t { None, Reg, Imm };
  Kind kind = Kind::None;
  VReg reg = kNoVReg;
  std::int32_t imm = 0;

  static Value none() { return {}; }
  static Value r(VReg v) {
    Value x;
    x.kind = Kind::Reg;
    x.reg = v;
    return x;
  }
  static Value i(std::int32_t v) {
    Value x;
    x.kind = Kind::Imm;
    x.imm = v;
    return x;
  }
  bool is_reg() const { return kind == Kind::Reg; }
  bool is_imm() const { return kind == Kind::Imm; }
  bool is_none() const { return kind == Kind::None; }
  bool operator==(const Value&) const = default;
};

struct IrInst {
  IrOp op = IrOp::Mov;
  VReg dst = kNoVReg;
  Value a;
  Value b;
  Value c;  ///< store value operand

  // Guard (IR predication): commit only if vreg(guard) != 0, flipped by
  // guard_negate. kNoVReg = unguarded.
  VReg guard = kNoVReg;
  bool guard_negate = false;

  int global_index = -1;           ///< GlobalAddr
  std::string callee;              ///< Call
  std::vector<Value> args;         ///< Call
  int block_then = -1;             ///< Br/CondBr
  int block_else = -1;             ///< CondBr

  bool operator==(const IrInst&) const = default;
};

/// Operation predicates.
bool is_terminator(IrOp op);
bool is_cmp(IrOp op);
bool is_load(IrOp op);
bool is_store(IrOp op);
bool is_binary_alu(IrOp op);   // Add..Max (incl. Mov? no: pure 2-src ALU)
bool has_dst(const IrInst& inst);
/// Does the instruction have side effects beyond writing dst?
bool has_side_effects(const IrInst& inst);
const char* ir_op_name(IrOp op);

struct BasicBlock {
  std::string label;
  std::vector<IrInst> insts;

  const IrInst& terminator() const {
    CEPIC_CHECK(!insts.empty() && is_terminator(insts.back().op),
                "block has no terminator");
    return insts.back();
  }

  bool operator==(const BasicBlock&) const = default;
};

/// A word-array global with optional initialiser (zero-filled tail).
struct Global {
  std::string name;
  std::uint32_t size_words = 1;
  std::vector<std::uint32_t> init_words;

  bool operator==(const Global&) const = default;
};

struct Function {
  std::string name;
  std::vector<VReg> params;
  bool returns_value = false;
  std::uint32_t frame_bytes = 0;  ///< local array storage, 4-byte aligned
  std::vector<BasicBlock> blocks;
  VReg next_vreg = 1;

  VReg fresh_vreg() { return next_vreg++; }
  int add_block(std::string label) {
    blocks.push_back(BasicBlock{std::move(label), {}});
    return static_cast<int>(blocks.size()) - 1;
  }

  bool operator==(const Function&) const = default;
};

struct Module {
  std::vector<Global> globals;
  std::vector<Function> functions;

  Function* find_function(std::string_view name);
  const Function* find_function(std::string_view name) const;
  int global_index(std::string_view name) const;  ///< -1 if absent

  bool operator==(const Module&) const = default;
};

/// Placement of globals in data memory (shared between the interpreter
/// and both back-ends so addresses agree everywhere).
struct DataLayout {
  std::vector<std::uint32_t> global_addr;  ///< by global index
  std::vector<std::uint8_t> image;         ///< initial bytes at kDataBase
};

/// The globals' addresses (by global index), laid out from kDataBase in
/// declaration order. Throws CompileError naming the first global that
/// would end past `mem_top`, the caller's top of memory.
std::vector<std::uint32_t> global_addresses(const Module& module,
                                            std::uint64_t mem_top);

/// global_addresses() plus the initial image, allocated only once every
/// global fits. In-repo callers pass their memory size; the default (the
/// simulators' 4 MiB) serves perfbench/layers.cpp's one-argument call.
DataLayout layout_globals(const Module& module,
                          std::uint64_t mem_top = std::uint64_t{1} << 22);

/// Render IR as text (debugging and golden tests).
std::string to_string(const IrInst& inst, const Module* module = nullptr);
std::string to_string(const Function& fn, const Module* module = nullptr);
std::string to_string(const Module& module);

}  // namespace cepic::ir
