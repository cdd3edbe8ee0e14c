#include "sarm/codegen.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "analysis/linear_scan.hpp"
#include "ir/verify.hpp"
#include "support/bits.hpp"
#include "support/text.hpp"

namespace cepic::sarm {

namespace {

using ir::IrInst;
using ir::IrOp;
using ir::VReg;

using analysis::is_virtual;
using analysis::RegRef;
using analysis::virt_reg;

/// SARM immediates: 16-bit signed (a modelling simplification of ARM's
/// rotated 8-bit immediates; documented in DESIGN.md).
constexpr bool imm_fits(std::int32_t v) { return fits_signed(v, 16); }

struct CInst {
  SInst inst;
  int frame_sign = 0;  ///< ±1: sp adjustment patched after spilling
  bool is_call = false;
  std::string callee;  ///< Bl target function
};

struct CBlock {
  std::vector<CInst> insts;
};

struct CFunc {
  std::string name;
  std::vector<CBlock> blocks;
  std::vector<std::vector<int>> succs;
  std::uint32_t frame_bytes = 0;
  std::uint32_t num_virt = 0;
};

SOp alu_op_of(IrOp op) {
  switch (op) {
    case IrOp::Add: return SOp::Add;
    case IrOp::Sub: return SOp::Sub;
    case IrOp::Mul: return SOp::Mul;
    case IrOp::Div: return SOp::SDiv;
    case IrOp::Rem: return SOp::SRem;
    case IrOp::And: return SOp::And;
    case IrOp::Or: return SOp::Orr;
    case IrOp::Xor: return SOp::Eor;
    case IrOp::Shl: return SOp::Lsl;
    case IrOp::Shra: return SOp::Asr;
    case IrOp::Shrl: return SOp::Lsr;
    default: break;
  }
  CEPIC_CHECK(false, "not a SARM ALU op");
}

Cond cond_of(IrOp op) {
  switch (op) {
    case IrOp::CmpEq: return Cond::EQ;
    case IrOp::CmpNe: return Cond::NE;
    case IrOp::CmpLt: return Cond::LT;
    case IrOp::CmpLe: return Cond::LE;
    case IrOp::CmpGt: return Cond::GT;
    case IrOp::CmpGe: return Cond::GE;
    case IrOp::CmpLtU: return Cond::LO;
    case IrOp::CmpLeU: return Cond::LS;
    case IrOp::CmpGtU: return Cond::HI;
    case IrOp::CmpGeU: return Cond::HS;
    default: break;
  }
  CEPIC_CHECK(false, "not a compare");
}

Cond negate(Cond c) {
  switch (c) {
    case Cond::EQ: return Cond::NE;
    case Cond::NE: return Cond::EQ;
    case Cond::LT: return Cond::GE;
    case Cond::GE: return Cond::LT;
    case Cond::GT: return Cond::LE;
    case Cond::LE: return Cond::GT;
    case Cond::LO: return Cond::HS;
    case Cond::HS: return Cond::LO;
    case Cond::HI: return Cond::LS;
    case Cond::LS: return Cond::HI;
    case Cond::AL: break;
  }
  CEPIC_CHECK(false, "cannot negate AL");
}

/// Compares fused into the adjacent conditional branch (never
/// materialised): single def, and the only use is the CondBr that
/// immediately follows the defining compare in the same block.
std::set<VReg> fused_compares(const ir::Function& fn) {
  std::map<VReg, int> defs, uses;
  std::set<VReg> adjacent;
  for (const ir::BasicBlock& block : fn.blocks) {
    for (std::size_t i = 0; i < block.insts.size(); ++i) {
      const IrInst& inst = block.insts[i];
      if (ir::has_dst(inst)) ++defs[inst.dst];
      if (inst.op == IrOp::CondBr && inst.a.is_reg()) {
        ++uses[inst.a.reg];
        if (i > 0) {
          const IrInst& prev = block.insts[i - 1];
          if (ir::is_cmp(prev.op) && prev.dst == inst.a.reg &&
              prev.guard == ir::kNoVReg) {
            adjacent.insert(inst.a.reg);
          }
        }
        continue;
      }
      const auto note = [&](const ir::Value& v) {
        if (v.is_reg()) ++uses[v.reg];
      };
      switch (inst.op) {
        case IrOp::StoreW:
        case IrOp::StoreB:
          note(inst.a); note(inst.b); note(inst.c);
          break;
        case IrOp::Call:
          for (const ir::Value& v : inst.args) note(v);
          break;
        case IrOp::GlobalAddr:
        case IrOp::FrameAddr:
        case IrOp::Br:
          break;
        default:
          note(inst.a); note(inst.b);
          break;
      }
      if (inst.guard != ir::kNoVReg) ++uses[inst.guard];
    }
  }
  std::set<VReg> fused;
  for (VReg v : adjacent) {
    if (defs[v] == 1 && uses[v] == 1) fused.insert(v);
  }
  return fused;
}

class FuncGen {
public:
  FuncGen(const ir::Function& fn, const ir::Module& module,
          const ir::DataLayout& layout)
      : fn_(fn), module_(module), layout_(layout), fused_(fused_compares(fn)) {}

  CFunc run() {
    if (fn_.params.size() > kMaxArgs) {
      throw Error(cat("function @", fn_.name, " has ", fn_.params.size(),
                      " parameters; the SARM ABI supports at most ",
                      kMaxArgs));
    }
    out_.name = fn_.name;
    out_.frame_bytes = fn_.frame_bytes;
    next_virt_ = fn_.next_vreg;
    out_.blocks.resize(fn_.blocks.size());

    for (std::size_t bi = 0; bi < fn_.blocks.size(); ++bi) {
      cur_ = static_cast<int>(bi);
      if (bi == 0) prologue();
      const auto& insts = fn_.blocks[bi].insts;
      for (std::size_t i = 0; i < insts.size(); ++i) {
        lower(insts[i], i > 0 ? &insts[i - 1] : nullptr, bi);
      }
      const IrInst& term = fn_.blocks[bi].terminator();
      std::vector<int> succ;
      if (term.op == IrOp::Br) succ = {term.block_then};
      if (term.op == IrOp::CondBr) {
        if (term.a.is_imm()) {
          succ = {term.a.imm != 0 ? term.block_then : term.block_else};
        } else {
          succ = {term.block_then, term.block_else};
        }
      }
      out_.succs.push_back(std::move(succ));
    }
    out_.num_virt = next_virt_;
    return std::move(out_);
  }

private:
  void push(SInst inst, int frame_sign = 0, bool is_call = false,
            std::string callee = {}) {
    CInst c;
    c.inst = inst;
    c.frame_sign = frame_sign;
    c.is_call = is_call;
    c.callee = std::move(callee);
    out_.blocks[cur_].insts.push_back(std::move(c));
  }

  std::uint32_t fresh() { return virt_reg(next_virt_++); }
  std::uint32_t reg_of(VReg v) { return virt_reg(v); }

  SInst make(SOp op, std::uint32_t rd, std::uint32_t rn, Operand2 op2,
             Cond cond = Cond::AL) {
    SInst i;
    i.op = op;
    i.cond = cond;
    i.rd = rd;
    i.rn = rn;
    i.op2 = op2;
    return i;
  }

  /// Materialise an arbitrary 32-bit constant into dst.
  void emit_const(std::uint32_t dst, std::int32_t value, Cond cond) {
    if (imm_fits(value)) {
      push(make(SOp::Mov, dst, 0, Operand2::immediate(value), cond));
      return;
    }
    const std::uint32_t target = cond == Cond::AL ? dst : fresh();
    push(make(SOp::Mov, target, 0, Operand2::immediate(value >> 16)));
    push(make(SOp::Lsl, target, target, Operand2::immediate(16)));
    if ((value & 0xFFFF) != 0) {
      push(make(SOp::Orr, target, target,
                Operand2::immediate(value & 0xFFFF)));
    }
    if (cond != Cond::AL) {
      push(make(SOp::Mov, dst, 0, Operand2::reg(target), cond));
    }
  }

  std::uint32_t value_reg(const ir::Value& v) {
    if (v.is_reg()) return reg_of(v.reg);
    CEPIC_CHECK(v.is_imm(), "missing operand");
    const std::uint32_t t = fresh();
    emit_const(t, v.imm, Cond::AL);
    return t;
  }

  Operand2 op2_of(const ir::Value& v) {
    if (v.is_reg()) return Operand2::reg(reg_of(v.reg));
    CEPIC_CHECK(v.is_imm(), "missing operand");
    if (imm_fits(v.imm)) return Operand2::immediate(v.imm);
    return Operand2::reg(value_reg(v));
  }

  /// Establish flags for "v != 0" style guards; returns the condition
  /// under which the guarded op should execute.
  Cond guard_cond(const IrInst& inst) {
    if (inst.guard == ir::kNoVReg) return Cond::AL;
    push(make(SOp::Cmp, 0, reg_of(inst.guard), Operand2::immediate(0)));
    return inst.guard_negate ? Cond::EQ : Cond::NE;
  }

  void prologue() {
    push(make(SOp::Sub, kSp, kSp, Operand2::immediate(4)), /*frame=*/-1);
    push(make(SOp::Str, kLr, kSp, Operand2::immediate(0)));
    for (std::size_t i = 0; i < fn_.params.size(); ++i) {
      push(make(SOp::Mov, reg_of(fn_.params[i]), 0,
                Operand2::reg(kR0 + static_cast<std::uint32_t>(i))));
    }
  }

  void epilogue() {
    push(make(SOp::Ldr, kLr, kSp, Operand2::immediate(0)));
    push(make(SOp::Add, kSp, kSp, Operand2::immediate(4)), /*frame=*/+1);
    SInst bx;
    bx.op = SOp::Bx;
    bx.rn = kLr;
    push(bx, 0, /*is_call=*/true);  // barrier-like for the allocator
  }

  void branch_to(int block, std::size_t bi, Cond cond = Cond::AL) {
    if (cond == Cond::AL && block == static_cast<int>(bi) + 1) return;
    SInst b;
    b.op = SOp::B;
    b.cond = cond;
    b.target = block;
    push(b);
  }

  void lower(const IrInst& inst, const IrInst* prev, std::size_t bi) {
    switch (inst.op) {
      case IrOp::Mov: {
        const Cond c = guard_cond(inst);
        if (inst.a.is_imm() && !imm_fits(inst.a.imm)) {
          emit_const(reg_of(inst.dst), inst.a.imm, c);
        } else {
          push(make(SOp::Mov, reg_of(inst.dst), 0, op2_of(inst.a), c));
        }
        return;
      }
      case IrOp::GlobalAddr: {
        const Cond c = guard_cond(inst);
        emit_const(reg_of(inst.dst),
                   static_cast<std::int32_t>(
                       layout_.global_addr[inst.global_index]),
                   c);
        return;
      }
      case IrOp::FrameAddr: {
        const Cond c = guard_cond(inst);
        push(make(SOp::Add, reg_of(inst.dst), kSp,
                  Operand2::immediate(inst.a.imm + 4), c));
        return;
      }
      case IrOp::LoadW:
      case IrOp::LoadB:
      case IrOp::LoadBU: {
        const Cond c = guard_cond(inst);
        // LoadB (sign-extended byte) = Ldrb + sign extension.
        const SOp op = inst.op == IrOp::LoadW ? SOp::Ldr : SOp::Ldrb;
        const std::uint32_t base = value_reg(inst.a);
        if (inst.op == IrOp::LoadB) {
          const std::uint32_t t = fresh();
          push(make(op, t, base, op2_of(inst.b), c));
          push(make(SOp::Lsl, t, t, Operand2::immediate(24), c));
          push(make(SOp::Asr, reg_of(inst.dst), t, Operand2::immediate(24), c));
        } else {
          push(make(op, reg_of(inst.dst), base, op2_of(inst.b), c));
        }
        return;
      }
      case IrOp::StoreW:
      case IrOp::StoreB: {
        const Cond c = guard_cond(inst);
        const SOp op = inst.op == IrOp::StoreW ? SOp::Str : SOp::Strb;
        const std::uint32_t value = value_reg(inst.c);
        const std::uint32_t base = value_reg(inst.a);
        push(make(op, value, base, op2_of(inst.b), c));
        return;
      }
      case IrOp::Out: {
        const Cond c = guard_cond(inst);
        SInst o;
        o.op = SOp::Out;
        o.cond = c;
        o.op2 = op2_of(inst.a);
        push(o);
        return;
      }
      case IrOp::Call: {
        CEPIC_CHECK(inst.guard == ir::kNoVReg, "guarded call");
        if (inst.args.size() > kMaxArgs) {
          throw Error(cat("call to @", inst.callee, " passes ",
                          inst.args.size(), " arguments; SARM ABI max is ",
                          kMaxArgs));
        }
        for (std::size_t i = 0; i < inst.args.size(); ++i) {
          const auto arg = inst.args[i];
          if (arg.is_imm() && !imm_fits(arg.imm)) {
            emit_const(kR0 + static_cast<std::uint32_t>(i), arg.imm, Cond::AL);
          } else {
            push(make(SOp::Mov, kR0 + static_cast<std::uint32_t>(i), 0,
                      op2_of(arg)));
          }
        }
        SInst bl;
        bl.op = SOp::Bl;
        push(bl, 0, /*is_call=*/true, inst.callee);
        if (inst.dst != ir::kNoVReg) {
          push(make(SOp::Mov, reg_of(inst.dst), 0, Operand2::reg(kR0)));
        }
        return;
      }
      case IrOp::Ret: {
        if (!inst.a.is_none()) {
          if (inst.a.is_imm() && !imm_fits(inst.a.imm)) {
            emit_const(kR0, inst.a.imm, Cond::AL);
          } else {
            push(make(SOp::Mov, kR0, 0, op2_of(inst.a)));
          }
        }
        epilogue();
        return;
      }
      case IrOp::Br:
        branch_to(inst.block_then, bi);
        return;
      case IrOp::CondBr: {
        if (inst.a.is_imm()) {
          branch_to(inst.a.imm != 0 ? inst.block_then : inst.block_else, bi);
          return;
        }
        Cond cond;
        if (fused_.count(inst.a.reg) != 0 && prev != nullptr &&
            ir::is_cmp(prev->op) && prev->dst == inst.a.reg) {
          push(make(SOp::Cmp, 0, value_reg(prev->a), op2_of(prev->b)));
          cond = cond_of(prev->op);
        } else {
          push(make(SOp::Cmp, 0, reg_of(inst.a.reg), Operand2::immediate(0)));
          cond = Cond::NE;
        }
        if (inst.block_then == static_cast<int>(bi) + 1) {
          branch_to(inst.block_else, bi, negate(cond));
        } else {
          branch_to(inst.block_then, bi, cond);
          branch_to(inst.block_else, bi);
        }
        return;
      }
      case IrOp::Min:
      case IrOp::Max: {
        const Cond c = guard_cond(inst);
        const std::uint32_t target =
            c == Cond::AL ? reg_of(inst.dst) : fresh();
        const std::uint32_t a = value_reg(inst.a);
        const Operand2 b = op2_of(inst.b);
        push(make(SOp::Mov, target, 0, Operand2::reg(a)));
        push(make(SOp::Cmp, 0, a, b));
        // min: replace with b when a > b; max: when a < b.
        push(make(SOp::Mov, target, 0, b,
                  inst.op == IrOp::Min ? Cond::GT : Cond::LT));
        if (c != Cond::AL) {
          push(make(SOp::Mov, reg_of(inst.dst), 0, Operand2::reg(target), c));
        }
        return;
      }
      default:
        break;
    }

    if (ir::is_cmp(inst.op)) {
      if (fused_.count(inst.dst) != 0) return;  // emitted at the branch
      // Materialise 0/1 with a conditional mov.
      const Cond g = guard_cond(inst);
      const std::uint32_t target = g == Cond::AL ? reg_of(inst.dst) : fresh();
      push(make(SOp::Mov, target, 0, Operand2::immediate(0)));
      push(make(SOp::Cmp, 0, value_reg(inst.a), op2_of(inst.b)));
      push(make(SOp::Mov, target, 0, Operand2::immediate(1),
                cond_of(inst.op)));
      if (g != Cond::AL) {
        // Re-establish the guard flags (the compare clobbered them).
        const Cond g2 = guard_cond(inst);
        push(make(SOp::Mov, reg_of(inst.dst), 0, Operand2::reg(target), g2));
      }
      return;
    }

    // Binary ALU.
    const Cond c = guard_cond(inst);
    const SOp op = alu_op_of(inst.op);
    // `imm - reg` uses RSB.
    if (inst.op == IrOp::Sub && inst.a.is_imm() && imm_fits(inst.a.imm) &&
        inst.b.is_reg()) {
      push(make(SOp::Rsb, reg_of(inst.dst), reg_of(inst.b.reg),
                Operand2::immediate(inst.a.imm), c));
      return;
    }
    // MUL takes two registers (no immediate operand on ARM).
    if (op == SOp::Mul) {
      push(make(SOp::Mul, reg_of(inst.dst), value_reg(inst.a),
                Operand2::reg(value_reg(inst.b)), c));
      return;
    }
    push(make(op, reg_of(inst.dst), value_reg(inst.a), op2_of(inst.b), c));
  }

  const ir::Function& fn_;
  const ir::Module& module_;
  const ir::DataLayout& layout_;
  std::set<VReg> fused_;
  CFunc out_;
  int cur_ = 0;
  std::uint32_t next_virt_ = 0;
};

// ---------------- shift folding peephole (barrel shifter) ----------------

bool op2_shift_allowed(SOp op) {
  switch (op) {
    case SOp::Add: case SOp::Sub: case SOp::Rsb:
    case SOp::And: case SOp::Orr: case SOp::Eor: case SOp::Bic:
    case SOp::Mov: case SOp::Mvn: case SOp::Cmp:
    case SOp::Ldr: case SOp::Str: case SOp::Ldrb: case SOp::Strb:
      return true;
    default:
      return false;
  }
}

void fold_shifts(CFunc& fn) {
  // Count uses of each virtual register across the function.
  std::map<std::uint32_t, int> use_count;
  for (const CBlock& block : fn.blocks) {
    for (const CInst& ci : block.insts) {
      const SInst& inst = ci.inst;
      if (!inst.op2.is_imm && is_virtual(inst.op2.rm)) ++use_count[inst.op2.rm];
      if (is_virtual(inst.rn)) ++use_count[inst.rn];
      // Store value / Out read rd? Str reads rd.
      if ((inst.op == SOp::Str || inst.op == SOp::Strb) && is_virtual(inst.rd)) {
        ++use_count[inst.rd];
      }
    }
  }

  for (CBlock& block : fn.blocks) {
    for (std::size_t i = 0; i < block.insts.size(); ++i) {
      SInst& shift = block.insts[i].inst;
      Shift kind = Shift::None;
      if (shift.op == SOp::Lsl) kind = Shift::Lsl;
      else if (shift.op == SOp::Lsr) kind = Shift::Lsr;
      else if (shift.op == SOp::Asr) kind = Shift::Asr;
      if (kind == Shift::None) continue;
      if (shift.cond != Cond::AL) continue;
      if (!shift.op2.is_imm || shift.op2.imm <= 0 || shift.op2.imm >= 32) {
        continue;
      }
      if (!is_virtual(shift.rd) || use_count[shift.rd] != 1) continue;

      // Find the single use later in this block; bail on redefinitions.
      for (std::size_t j = i + 1; j < block.insts.size(); ++j) {
        SInst& use = block.insts[j].inst;
        const bool uses_here =
            !use.op2.is_imm && use.op2.rm == shift.rd &&
            use.op2.shift == Shift::None;
        if (uses_here && op2_shift_allowed(use.op) && use.cond == Cond::AL) {
          use.op2 = Operand2::reg(shift.rn, kind,
                                  static_cast<std::uint8_t>(shift.op2.imm));
          shift.op = SOp::Mov;  // neutralise: mov rd, rd (removed below)
          shift.op2 = Operand2::reg(shift.rd);
          shift.rn = 0;
          break;
        }
        // Any other appearance, or redefinition of the source/dest: stop.
        const bool reads = (!use.op2.is_imm && use.op2.rm == shift.rd) ||
                           use.rn == shift.rd ||
                           ((use.op == SOp::Str || use.op == SOp::Strb) &&
                            use.rd == shift.rd);
        const bool redefines_src =
            use.rd == shift.rn && use.op != SOp::Cmp && use.op != SOp::Str &&
            use.op != SOp::Strb && use.op != SOp::B && use.op != SOp::Out;
        if (reads || redefines_src || block.insts[j].is_call) break;
      }
    }
    // Sweep neutralised self-moves.
    std::erase_if(block.insts, [](const CInst& ci) {
      return ci.inst.op == SOp::Mov && !ci.inst.op2.is_imm &&
             ci.inst.op2.shift == Shift::None &&
             ci.inst.op2.rm == ci.inst.rd && ci.inst.cond == Cond::AL;
    });
  }
}

// ---------------- register allocation -------------

/// The SARM adapter of the shared linear scan (analysis/linear_scan.hpp).
/// What is SARM's own: one register file, r4..r12, that spills; BL is
/// the call; a spill store carries the condition of the instruction that
/// wrote the value; the sp adjustments are patched as plain #total.
struct SarmTarget {
  using Inst = CInst;
  static constexpr unsigned kFrameImmBits = 16;  // as imm_fits

  const CFunc& fn;

  /// Reads first (a store's value, then base, then offset), then the
  /// destination.
  template <typename Fn>
  void for_each_ref(CInst& ci, Fn&& visit) const {
    SInst& inst = ci.inst;
    const auto read = [&](std::uint32_t& reg) { visit(RegRef{0, &reg}); };
    const auto read_op2 = [&] {
      if (!inst.op2.is_imm) read(inst.op2.rm);
    };
    switch (inst.op) {
      case SOp::B:
      case SOp::Bl:
      case SOp::Halt:
        return;
      case SOp::Bx:
        read(inst.rn);
        return;
      case SOp::Out:
        read_op2();
        return;
      case SOp::Cmp:
        read(inst.rn);
        read_op2();
        return;
      case SOp::Str:
      case SOp::Strb:
        read(inst.rd);
        read(inst.rn);
        read_op2();
        return;
      case SOp::Mov:
      case SOp::Mvn:
        read_op2();
        break;
      default:  // ALU ops and loads
        read(inst.rn);
        read_op2();
        break;
    }
    visit(RegRef{0, &inst.rd, true, inst.cond != Cond::AL});
  }

  bool is_call(const CInst& ci) const { return ci.is_call; }

  CInst reload(std::uint32_t temp, std::int32_t offset) const {
    CInst ld;
    ld.inst.op = SOp::Ldr;
    ld.inst.rd = temp;
    ld.inst.rn = kSp;
    ld.inst.op2 = Operand2::immediate(offset);
    return ld;
  }

  CInst spill(std::uint32_t temp, std::int32_t offset, const CInst& def) const {
    CInst st;
    st.inst.op = SOp::Str;
    st.inst.cond = def.inst.cond;
    st.inst.rd = temp;
    st.inst.rn = kSp;
    st.inst.op2 = Operand2::immediate(offset);
    return st;
  }

  void patch_frame(CInst& ci, std::int32_t total) const {
    if (ci.frame_sign != 0) ci.inst.op2 = Operand2::immediate(total);
  }

  std::string no_convergence() const {
    return cat("SARM register allocation did not converge in @", fn.name);
  }
};

void allocate_registers(CFunc& fn) {
  std::vector<std::uint32_t> regs;
  for (std::uint32_t r = kFirstAllocatable; r <= kLastAllocatable; ++r) {
    regs.push_back(r);
  }
  analysis::LinearScan(fn, SarmTarget{fn}, {{std::move(regs), &fn.num_virt}})
      .run();
}

}  // namespace

SProgram compile_ir_to_sarm(const ir::Module& module,
                            const SarmOptions& options) {
  ir::verify_module(module, /*require_main=*/true);
  const ir::DataLayout layout = ir::layout_globals(module, options.stack_top);

  std::vector<CFunc> funcs;
  funcs.reserve(module.functions.size());
  for (const ir::Function& fn : module.functions) {
    CFunc cf = FuncGen(fn, module, layout).run();
    if (options.fold_shifts) fold_shifts(cf);
    allocate_registers(cf);
    funcs.push_back(std::move(cf));
  }

  // Link: start stub, then functions; resolve Bl by name, B by block.
  SProgram prog;
  prog.data = layout.image;

  const auto emit = [&prog](SInst inst) {
    prog.code.push_back(inst);
    return static_cast<std::uint32_t>(prog.code.size() - 1);
  };

  // __start: sp = stack_top; bl main; halt.
  const std::int32_t top = static_cast<std::int32_t>(options.stack_top);
  std::uint32_t stub_call_index = 0;
  {
    SInst mov;
    mov.op = SOp::Mov;
    mov.rd = kSp;
    mov.op2 = Operand2::immediate(top >> 16);
    emit(mov);
    SInst lsl;
    lsl.op = SOp::Lsl;
    lsl.rd = kSp;
    lsl.rn = kSp;
    lsl.op2 = Operand2::immediate(16);
    emit(lsl);
    if ((top & 0xFFFF) != 0) {
      SInst orr;
      orr.op = SOp::Orr;
      orr.rd = kSp;
      orr.rn = kSp;
      orr.op2 = Operand2::immediate(top & 0xFFFF);
      emit(orr);
    }
    SInst bl;
    bl.op = SOp::Bl;
    bl.target = -1;  // patched to main below
    stub_call_index = emit(bl);
    SInst halt;
    halt.op = SOp::Halt;
    emit(halt);
    prog.symbols.emplace_back("__start", 0);
  }

  std::map<std::string, std::uint32_t> fn_start;
  std::vector<std::pair<std::uint32_t, std::string>> pending_calls;
  pending_calls.emplace_back(stub_call_index, "main");

  for (CFunc& cf : funcs) {
    fn_start[cf.name] = static_cast<std::uint32_t>(prog.code.size());
    prog.symbols.emplace_back(cf.name,
                              static_cast<std::uint32_t>(prog.code.size()));
    std::vector<std::uint32_t> block_start(cf.blocks.size(), 0);
    std::vector<std::pair<std::uint32_t, int>> pending_branches;
    for (std::size_t b = 0; b < cf.blocks.size(); ++b) {
      block_start[b] = static_cast<std::uint32_t>(prog.code.size());
      for (CInst& ci : cf.blocks[b].insts) {
        const std::uint32_t idx = emit(ci.inst);
        if (ci.inst.op == SOp::B) {
          pending_branches.emplace_back(idx, ci.inst.target);
        } else if (ci.inst.op == SOp::Bl) {
          pending_calls.emplace_back(idx, ci.callee);
        }
      }
    }
    for (const auto& [idx, block] : pending_branches) {
      prog.code[idx].target = static_cast<int>(block_start[block]);
    }
  }
  for (const auto& [idx, callee] : pending_calls) {
    const auto it = fn_start.find(callee);
    CEPIC_CHECK(it != fn_start.end(), cat("unresolved call to ", callee));
    prog.code[idx].target = static_cast<int>(it->second);
  }
  prog.entry = 0;
  return prog;
}

}  // namespace cepic::sarm
