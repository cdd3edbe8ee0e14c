// Constant folding + algebraic simplification + canonicalisation
// (immediates of commutative operations move to the second operand,
// which is also the EPIC literal slot the backend prefers).
#include "core/eval.hpp"
#include "opt/opt.hpp"
#include "support/bits.hpp"

namespace cepic::opt {

namespace {

using ir::IrInst;
using ir::IrOp;
using ir::Value;

bool is_commutative(IrOp op) {
  switch (op) {
    case IrOp::Add:
    case IrOp::Mul:
    case IrOp::And:
    case IrOp::Or:
    case IrOp::Xor:
    case IrOp::Min:
    case IrOp::Max:
      return true;
    default:
      return false;
  }
}

Op core_alu_op(IrOp op) {
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
  CEPIC_CHECK(false, "not foldable");
}

Op core_cmp_op(IrOp op) {
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
  CEPIC_CHECK(false, "not a compare");
}

void make_mov(IrInst& inst, Value v) {
  const auto dst = inst.dst;
  const auto guard = inst.guard;
  const bool neg = inst.guard_negate;
  inst = IrInst{};
  inst.op = IrOp::Mov;
  inst.dst = dst;
  inst.a = v;
  inst.guard = guard;
  inst.guard_negate = neg;
}

/// Is v a power of two (>= 1)?
bool power_of_two(std::int32_t v, unsigned& log2_out) {
  if (v <= 0) return false;
  const auto u = static_cast<std::uint32_t>(v);
  if ((u & (u - 1)) != 0) return false;
  unsigned n = 0;
  while ((u >> n) != 1) ++n;
  log2_out = n;
  return true;
}

bool fold_inst(IrInst& inst) {
  if (!ir::is_binary_alu(inst.op) && !ir::is_cmp(inst.op)) return false;

  // Canonicalise: immediate to the right for commutative ops.
  bool changed = false;
  if (is_commutative(inst.op) && inst.a.is_imm() && !inst.b.is_imm()) {
    std::swap(inst.a, inst.b);
    changed = true;
  }

  if (inst.a.is_imm() && inst.b.is_imm()) {
    const auto a = static_cast<std::uint32_t>(inst.a.imm);
    const auto b = static_cast<std::uint32_t>(inst.b.imm);
    std::uint32_t r;
    if (ir::is_cmp(inst.op)) {
      r = eval_cmpp(core_cmp_op(inst.op), a, b, 32) ? 1 : 0;
    } else {
      r = eval_alu(core_alu_op(inst.op), a, b, 32);
    }
    make_mov(inst, Value::i(to_signed(r)));
    return true;
  }

  if (!inst.b.is_imm()) return changed;
  const std::int32_t k = inst.b.imm;
  unsigned log2 = 0;
  switch (inst.op) {
    case IrOp::Add:
    case IrOp::Sub:
      if (k == 0) {
        make_mov(inst, inst.a);
        return true;
      }
      break;
    case IrOp::Mul:
      if (k == 0) {
        make_mov(inst, Value::i(0));
        return true;
      }
      if (k == 1) {
        make_mov(inst, inst.a);
        return true;
      }
      if (power_of_two(k, log2)) {
        inst.op = IrOp::Shl;
        inst.b = Value::i(static_cast<std::int32_t>(log2));
        return true;
      }
      break;
    case IrOp::Div:
      if (k == 1) {
        make_mov(inst, inst.a);
        return true;
      }
      break;
    case IrOp::And:
      if (k == 0) {
        make_mov(inst, Value::i(0));
        return true;
      }
      if (k == -1) {
        make_mov(inst, inst.a);
        return true;
      }
      break;
    case IrOp::Or:
      if (k == 0) {
        make_mov(inst, inst.a);
        return true;
      }
      if (k == -1) {
        make_mov(inst, Value::i(-1));
        return true;
      }
      break;
    case IrOp::Xor:
      if (k == 0) {
        make_mov(inst, inst.a);
        return true;
      }
      break;
    case IrOp::Shl:
    case IrOp::Shra:
    case IrOp::Shrl:
      if (k == 0) {
        make_mov(inst, inst.a);
        return true;
      }
      break;
    default:
      break;
  }
  return changed;
}

}  // namespace

bool pass_constfold(ir::Function& fn, analysis::AnalysisManager& am) {
  bool changed = false;
  bool cfg_changed = false;
  for (ir::BasicBlock& block : fn.blocks) {
    for (IrInst& inst : block.insts) {
      // Fold a constant conditional branch into a plain branch.
      if (inst.op == IrOp::CondBr && inst.a.is_imm()) {
        const int target = inst.a.imm != 0 ? inst.block_then : inst.block_else;
        inst = IrInst{};
        inst.op = IrOp::Br;
        inst.block_then = target;
        changed = true;
        cfg_changed = true;
        continue;
      }
      changed |= fold_inst(inst);
    }
  }
  if (changed) {
    // Folding keeps every def at its position with its guard, so the
    // def-site structure survives; the graph and dominance survive too
    // unless a conditional branch collapsed (an edge disappeared, which
    // also moves the reaching-defs solution).
    auto preserved = analysis::PreservedAnalyses::none();
    if (!cfg_changed) {
      preserved.preserve(analysis::AnalysisKind::kCfg)
          .preserve(analysis::AnalysisKind::kDominators)
          .preserve(analysis::AnalysisKind::kReachingDefs);
    }
    am.invalidate(fn, preserved, "constfold");
  }
  return changed;
}

}  // namespace cepic::opt
