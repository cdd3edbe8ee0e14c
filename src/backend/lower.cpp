// IR -> machine lowering: maps IR virtual registers onto virtual GPRs,
// turns compare results that only feed branches/guards into virtual
// predicate registers (CMPP dual-destination when a complement is
// needed), materialises 32-bit constants, and builds the ABI prologue /
// epilogue / call sequences.
#include <vector>

#include "backend/backend.hpp"
#include "support/bits.hpp"
#include "support/text.hpp"

namespace cepic::backend {

namespace {

using ir::IrInst;
using ir::IrOp;
using ir::VReg;

Op alu_op_of(IrOp op) {
  switch (op) {
    case IrOp::Add: return Op::ADD;
    case IrOp::Sub: return Op::SUB;
    case IrOp::Mul: return Op::MUL;
    case IrOp::Div: return Op::DIV;
    case IrOp::Rem: return Op::REM;
    case IrOp::And: return Op::AND;
    case IrOp::Or: return Op::OR;
    case IrOp::Xor: return Op::XOR;
    case IrOp::Shl: return Op::SHL;
    case IrOp::Shra: return Op::SHRA;
    case IrOp::Shrl: return Op::SHRL;
    case IrOp::Min: return Op::MIN;
    case IrOp::Max: return Op::MAX;
    default: break;
  }
  CEPIC_CHECK(false, "not an ALU IrOp");
}

Op cmp_op_of(IrOp op) {
  switch (op) {
    case IrOp::CmpEq: return Op::CMPP_EQ;
    case IrOp::CmpNe: return Op::CMPP_NE;
    case IrOp::CmpLt: return Op::CMPP_LT;
    case IrOp::CmpLe: return Op::CMPP_LE;
    case IrOp::CmpGt: return Op::CMPP_GT;
    case IrOp::CmpGe: return Op::CMPP_GE;
    case IrOp::CmpLtU: return Op::CMPP_LTU;
    case IrOp::CmpLeU: return Op::CMPP_LEU;
    case IrOp::CmpGtU: return Op::CMPP_GTU;
    case IrOp::CmpGeU: return Op::CMPP_GEU;
    default: break;
  }
  CEPIC_CHECK(false, "not a compare IrOp");
}

Op load_op_of(IrOp op) {
  switch (op) {
    case IrOp::LoadW: return Op::LDW;
    case IrOp::LoadB: return Op::LDB;
    case IrOp::LoadBU: return Op::LDBU;
    default: break;
  }
  CEPIC_CHECK(false, "not a load IrOp");
}

/// Usage analysis deciding which IR vregs become predicate registers,
/// as flags indexed by vreg (ir::verify_module bounds every vreg below
/// Function::next_vreg).
struct PredInfo {
  std::vector<char> pred_only;       ///< all defs are compares, no value uses
  std::vector<char> needs_negation;  ///< some guard uses it negated
};

PredInfo analyse_preds(const ir::Function& fn) {
  enum : char { kNoDef, kCmpDefs, kOtherDef };
  const std::size_t n = fn.next_vreg;
  std::vector<char> defs(n, kNoDef);
  std::vector<char> value_used(n, 0);
  PredInfo info;
  info.needs_negation.assign(n, 0);

  for (const ir::BasicBlock& block : fn.blocks) {
    for (const IrInst& inst : block.insts) {
      if (ir::has_dst(inst)) {
        char& d = defs[inst.dst];
        if (!ir::is_cmp(inst.op)) {
          d = kOtherDef;
        } else if (d == kNoDef) {
          d = kCmpDefs;
        }
      }
      if (inst.guard != ir::kNoVReg && inst.guard_negate) {
        info.needs_negation[inst.guard] = 1;
      }
      if (inst.op == IrOp::CondBr) {
        // Branch lowering may fall through on true and branch on the
        // complement, so conservatively allocate both polarities.
        if (inst.a.is_reg()) info.needs_negation[inst.a.reg] = 1;
        continue;
      }
      // Every other operand read is a value use.
      const auto note = [&](const ir::Value& v) {
        if (v.is_reg()) value_used[v.reg] = 1;
      };
      switch (inst.op) {
        case IrOp::StoreW:
        case IrOp::StoreB:
          note(inst.a);
          note(inst.b);
          note(inst.c);
          break;
        case IrOp::Call:
          for (const ir::Value& v : inst.args) note(v);
          break;
        case IrOp::GlobalAddr:
        case IrOp::FrameAddr:
        case IrOp::Br:
          break;
        default:
          note(inst.a);
          note(inst.b);
          break;
      }
    }
  }
  // Parameters are defined by the caller, not by compares.
  for (VReg p : fn.params) defs[p] = kOtherDef;

  info.pred_only.resize(n);
  for (std::size_t v = 0; v < n; ++v) {
    info.pred_only[v] = defs[v] == kCmpDefs && value_used[v] == 0;
  }
  return info;
}

class Lowerer {
public:
  Lowerer(const ir::Function& fn, const ir::Module& module,
          const ir::DataLayout& layout, const Mdes& mdes,
          const ProcessorConfig& config)
      : fn_(fn),
        module_(module),
        layout_(layout),
        mdes_(mdes),
        config_(config),
        fmt_(config.format()),
        preds_(analyse_preds(fn)),
        cmp_preds_(fn.next_vreg) {}

  MFunc run() {
    if (fn_.params.size() > CallConv::kMaxArgs) {
      throw Error(cat("function @", fn_.name, " has ", fn_.params.size(),
                      " parameters; the CEPIC ABI supports at most ",
                      CallConv::kMaxArgs));
    }
    out_.name = fn_.name;
    out_.frame_bytes = fn_.frame_bytes;
    next_vgpr_ = fn_.next_vreg;  // IR vregs map identically onto vGPRs

    out_.blocks.resize(fn_.blocks.size());
    for (std::size_t bi = 0; bi < fn_.blocks.size(); ++bi) {
      MBlock& block = out_.blocks[bi];
      block.label = bi == 0 ? cat("fn_", fn_.name) : block_label(bi);
      // Most IR instructions lower to one op; the ABI adds a few.
      block.insts.reserve(fn_.blocks[bi].insts.size() + 8);
    }

    for (std::size_t bi = 0; bi < fn_.blocks.size(); ++bi) {
      cur_ = static_cast<int>(bi);
      if (bi == 0) emit_prologue();
      for (const IrInst& inst : fn_.blocks[bi].insts) lower_inst(inst, bi);

      const IrInst& term = fn_.blocks[bi].terminator();
      std::vector<int> succ;
      if (term.op == IrOp::Br) {
        succ = {term.block_then};
      } else if (term.op == IrOp::CondBr) {
        if (term.a.is_imm()) {
          succ = {term.a.imm != 0 ? term.block_then : term.block_else};
        } else {
          succ = {term.block_then, term.block_else};
        }
      }
      out_.succs.push_back(std::move(succ));
    }

    out_.num_vgpr = next_vgpr_;
    out_.num_vpred = next_vpred_;
    out_.num_vbtr = next_vbtr_;
    return std::move(out_);
  }

private:
  std::string block_label(std::size_t bi) const {
    return cat("L", fn_.name, "_", bi);
  }

  // ---- emission helpers ----

  void push(Instruction inst, std::string target = {}, bool barrier = false,
            int frame_sign = 0) {
    out_.blocks[cur_].insts.push_back(
        {inst, std::move(target), barrier, frame_sign});
  }

  std::uint32_t fresh_gpr() { return virt_reg(next_vgpr_++); }
  std::uint32_t fresh_pred() { return virt_reg(next_vpred_++); }
  std::uint32_t fresh_btr() { return virt_reg(next_vbtr_++); }

  std::uint32_t gpr_of(VReg v) { return virt_reg(v); }

  void require_op(Op op) {
    if (!mdes_.op_supported(op)) {
      throw Error(cat("operation `", std::string(op_info(op).name),
                      "` in @", fn_.name, " block ",
                      out_.blocks[static_cast<std::size_t>(cur_)].label,
                      " is not available on this customisation (see the "
                      "alu_* configuration switches)"));
    }
  }

  /// Emit a constant into `dst` (1 op when it fits the literal field,
  /// otherwise the 3-op mov/shl/or sequence), guarded by `pred`.
  /// When guarded and the value needs multiple ops, build in a temp and
  /// conditionally move so a false guard leaves dst untouched.
  void emit_const(std::uint32_t dst, std::int32_t value, std::uint32_t pred) {
    if (fits_signed(value, fmt_.src_bits)) {
      push(Instruction::make(Op::MOV, dst, Operand::imm(value), {}, pred));
      return;
    }
    const std::uint32_t target = pred == 0 ? dst : fresh_gpr();
    const std::int32_t hi = value >> 16;
    const std::int32_t lo = value & 0xFFFF;
    push(Instruction::make(Op::MOV, target, Operand::imm(hi)));
    push(Instruction::make(Op::SHL, target, Operand::r(target),
                           Operand::imm(16)));
    if (lo != 0) {
      push(Instruction::make(Op::OR, target, Operand::r(target),
                             Operand::imm(lo)));
    }
    if (pred != 0) {
      push(Instruction::make(Op::MOV, dst, Operand::r(target), {}, pred));
    }
  }

  std::uint32_t const_in_reg(std::int32_t value) {
    if (value == 0) return CallConv::kZero;
    const std::uint32_t t = fresh_gpr();
    emit_const(t, value, 0);
    return t;
  }

  /// IR value -> instruction operand; literals that do not fit the
  /// field are materialised.
  Operand operand_of(const ir::Value& v, bool zext_literal) {
    if (v.is_reg()) return Operand::r(gpr_of(v.reg));
    CEPIC_CHECK(v.is_imm(), "operand missing");
    const bool fits = zext_literal
                          ? fits_unsigned(static_cast<std::uint32_t>(v.imm),
                                          fmt_.src_bits)
                          : fits_signed(v.imm, fmt_.src_bits);
    if (fits) return Operand::imm(v.imm);
    return Operand::r(const_in_reg(v.imm));
  }

  /// Register-only operand (bases, store values).
  std::uint32_t reg_of(const ir::Value& v) {
    if (v.is_reg()) return gpr_of(v.reg);
    CEPIC_CHECK(v.is_imm(), "operand missing");
    return const_in_reg(v.imm);
  }

  // ---- predicates ----

  struct CmpPreds {
    std::uint32_t on_true = 0;   ///< 0 until first asked for
    std::uint32_t on_false = 0;  ///< 0 (p0 sink) if never needed
  };

  CmpPreds& preds_of(VReg cmp_vreg) {
    CmpPreds& cp = cmp_preds_[cmp_vreg];
    if (cp.on_true == 0) {
      cp.on_true = fresh_pred();
      if (preds_.needs_negation[cmp_vreg] != 0) cp.on_false = fresh_pred();
    }
    return cp;
  }

  /// Predicate register for "vreg is true" (or false). For pred-mapped
  /// compare results this is the CMPP destination; otherwise a PSET-like
  /// compare against zero is emitted on the spot.
  std::uint32_t pred_for(VReg v, bool negated) {
    if (preds_.pred_only[v] != 0) {
      CmpPreds& cp = preds_of(v);
      if (!negated) return cp.on_true;
      CEPIC_CHECK(cp.on_false != 0, "complement predicate not allocated");
      return cp.on_false;
    }
    const std::uint32_t p = fresh_pred();
    push(Instruction::make(negated ? Op::CMPP_EQ : Op::CMPP_NE, p,
                           Operand::r(gpr_of(v)), Operand::imm(0)));
    return p;
  }

  std::uint32_t guard_of(const IrInst& inst) {
    if (inst.guard == ir::kNoVReg) return 0;
    return pred_for(inst.guard, inst.guard_negate);
  }

  // ---- ABI pieces ----

  void emit_prologue() {
    // sp -= frame (patched after spill slots are known), save ra.
    push(Instruction::make(Op::ADD, CallConv::kSp,
                           Operand::r(CallConv::kSp), Operand::imm(-4)),
         {}, false, /*frame_sign=*/-1);
    push(Instruction::make(Op::STW, CallConv::kRa,
                           Operand::r(CallConv::kSp), Operand::imm(0)));
    for (std::size_t i = 0; i < fn_.params.size(); ++i) {
      push(Instruction::make(Op::MOV, gpr_of(fn_.params[i]),
                             Operand::r(CallConv::kArg0 +
                                        static_cast<std::uint32_t>(i))));
    }
  }

  void emit_epilogue_and_return() {
    push(Instruction::make(Op::LDW, CallConv::kRa,
                           Operand::r(CallConv::kSp), Operand::imm(0)));
    push(Instruction::make(Op::ADD, CallConv::kSp,
                           Operand::r(CallConv::kSp), Operand::imm(4)),
         {}, false, /*frame_sign=*/+1);
    push(Instruction::make(Op::BRR, 0, Operand::r(CallConv::kRa)), {},
         /*barrier=*/true);
  }

  // ---- per-instruction lowering ----

  void lower_inst(const IrInst& inst, std::size_t bi) {
    switch (inst.op) {
      case IrOp::Mov: {
        const std::uint32_t g = guard_of(inst);
        push(Instruction::make(Op::MOV, gpr_of(inst.dst),
                               operand_of(inst.a, false), {}, g));
        return;
      }
      case IrOp::GlobalAddr: {
        const std::uint32_t g = guard_of(inst);
        emit_const(gpr_of(inst.dst),
                   static_cast<std::int32_t>(
                       layout_.global_addr[inst.global_index]),
                   g);
        return;
      }
      case IrOp::FrameAddr: {
        const std::uint32_t g = guard_of(inst);
        push(Instruction::make(Op::ADD, gpr_of(inst.dst),
                               Operand::r(CallConv::kSp),
                               Operand::imm(inst.a.imm + 4), g));
        return;
      }
      case IrOp::LoadW:
      case IrOp::LoadB:
      case IrOp::LoadBU: {
        const std::uint32_t g = guard_of(inst);
        const Op op = load_op_of(inst.op);
        push(Instruction::make(op, gpr_of(inst.dst),
                               Operand::r(reg_of(inst.a)),
                               operand_of(inst.b, false), g));
        return;
      }
      case IrOp::StoreW:
      case IrOp::StoreB: {
        const std::uint32_t g = guard_of(inst);
        const Op op = inst.op == IrOp::StoreW ? Op::STW : Op::STB;
        push(Instruction::make(op, reg_of(inst.c),
                               Operand::r(reg_of(inst.a)),
                               operand_of(inst.b, false), g));
        return;
      }
      case IrOp::Out: {
        const std::uint32_t g = guard_of(inst);
        push(Instruction::make(Op::OUT, 0, operand_of(inst.a, false), {}, g));
        return;
      }
      case IrOp::Call:
        lower_call(inst);
        return;
      case IrOp::Ret: {
        if (!inst.a.is_none()) {
          push(Instruction::make(Op::MOV, CallConv::kRv,
                                 operand_of(inst.a, false)));
        }
        emit_epilogue_and_return();
        return;
      }
      case IrOp::Br: {
        const int target = inst.block_then;
        if (target != static_cast<int>(bi) + 1) {
          const std::uint32_t b = fresh_btr();
          push(Instruction::make(Op::PBR, b, Operand::imm(0)),
               block_label(target));
          push(Instruction::make(Op::BRU, 0, Operand::r(b)));
        }
        return;
      }
      case IrOp::CondBr:
        lower_condbr(inst, bi);
        return;
      default:
        break;
    }

    if (ir::is_cmp(inst.op)) {
      lower_cmp(inst);
      return;
    }

    // Binary ALU.
    const Op op = alu_op_of(inst.op);
    require_op(op);
    const bool zext = op_info(op).literal_zero_extends;
    const std::uint32_t g = guard_of(inst);
    push(Instruction::make(op, gpr_of(inst.dst), operand_of(inst.a, zext),
                           operand_of(inst.b, zext), g));
  }

  void lower_cmp(const IrInst& inst) {
    const Op op = cmp_op_of(inst.op);
    const bool zext = op_info(op).literal_zero_extends;
    const std::uint32_t g = guard_of(inst);
    const Operand a = operand_of(inst.a, zext);
    const Operand b = operand_of(inst.b, zext);

    if (preds_.pred_only[inst.dst] != 0) {
      const CmpPreds& cp = preds_of(inst.dst);
      push(Instruction::make(op, cp.on_true, a, b, g, cp.on_false));
      return;
    }
    // Value materialisation: 0/1 into a GPR via a fresh predicate.
    const std::uint32_t p = fresh_pred();
    push(Instruction::make(op, p, a, b, g));
    const std::uint32_t target = g == 0 ? gpr_of(inst.dst) : fresh_gpr();
    push(Instruction::make(Op::MOV, target, Operand::imm(0)));
    push(Instruction::make(Op::MOV, target, Operand::imm(1), {}, p));
    if (g != 0) {
      push(Instruction::make(Op::MOV, gpr_of(inst.dst), Operand::r(target),
                             {}, g));
    }
  }

  void lower_call(const IrInst& inst) {
    CEPIC_CHECK(inst.guard == ir::kNoVReg, "calls cannot be guarded");
    if (inst.args.size() > CallConv::kMaxArgs) {
      throw Error(cat("call to @", inst.callee, " passes ", inst.args.size(),
                      " arguments; the CEPIC ABI supports at most ",
                      CallConv::kMaxArgs));
    }
    for (std::size_t i = 0; i < inst.args.size(); ++i) {
      push(Instruction::make(Op::MOV,
                             CallConv::kArg0 + static_cast<std::uint32_t>(i),
                             operand_of(inst.args[i], false)));
    }
    const std::uint32_t b = fresh_btr();
    push(Instruction::make(Op::PBR, b, Operand::imm(0)),
         cat("fn_", inst.callee));
    push(Instruction::make(Op::BRL, CallConv::kRa, Operand::r(b)), {},
         /*barrier=*/true);
    if (inst.dst != ir::kNoVReg) {
      push(Instruction::make(Op::MOV, gpr_of(inst.dst),
                             Operand::r(CallConv::kRv)));
    }
  }

  void lower_condbr(const IrInst& inst, std::size_t bi) {
    const int bt = inst.block_then;
    const int bf = inst.block_else;
    if (inst.a.is_imm()) {
      const int target = inst.a.imm != 0 ? bt : bf;
      if (target != static_cast<int>(bi) + 1) {
        const std::uint32_t b = fresh_btr();
        push(Instruction::make(Op::PBR, b, Operand::imm(0)),
             block_label(target));
        push(Instruction::make(Op::BRU, 0, Operand::r(b)));
      }
      return;
    }
    // Prefer falling through to the then-target when it is the next
    // block (branch on the complement), else branch-on-true.
    if (bt == static_cast<int>(bi) + 1) {
      const std::uint32_t p = pred_for(inst.a.reg, /*negated=*/true);
      const std::uint32_t b = fresh_btr();
      push(Instruction::make(Op::PBR, b, Operand::imm(0)), block_label(bf));
      push(Instruction::make(Op::BRCT, 0, Operand::r(b), Operand::r(p)));
      return;
    }
    const std::uint32_t p = pred_for(inst.a.reg, /*negated=*/false);
    const std::uint32_t b = fresh_btr();
    push(Instruction::make(Op::PBR, b, Operand::imm(0)), block_label(bt));
    push(Instruction::make(Op::BRCT, 0, Operand::r(b), Operand::r(p)));
    if (bf != static_cast<int>(bi) + 1) {
      const std::uint32_t b2 = fresh_btr();
      push(Instruction::make(Op::PBR, b2, Operand::imm(0)), block_label(bf));
      push(Instruction::make(Op::BRU, 0, Operand::r(b2)));
    }
  }

  const ir::Function& fn_;
  const ir::Module& module_;
  const ir::DataLayout& layout_;
  const Mdes& mdes_;
  const ProcessorConfig& config_;
  InstructionFormat fmt_;
  PredInfo preds_;

  MFunc out_;
  int cur_ = 0;
  std::uint32_t next_vgpr_ = 0;
  std::uint32_t next_vpred_ = 0;
  std::uint32_t next_vbtr_ = 0;
  std::vector<CmpPreds> cmp_preds_;  ///< by compare vreg
};

}  // namespace

MFunc lower_function(const ir::Function& fn, const ir::Module& module,
                     const ir::DataLayout& layout, const Mdes& mdes,
                     const ProcessorConfig& config) {
  return Lowerer(fn, module, layout, mdes, config).run();
}

}  // namespace cepic::backend
