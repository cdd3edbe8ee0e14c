// If-conversion: turn small branch hammocks into straight-line guarded
// (predicated) code — the transformation that EPIC predication exists to
// enable (paper §2: "Predicated instructions transform control
// dependence to data dependence"). Handles triangles (if-then) and
// diamonds (if-then-else) whose arms are small, single-predecessor
// blocks of unguarded, call-free instructions.
//
// Correctness in the non-SSA IR: a guarded write preserves the old value
// when the guard is false, which is exactly the value the skipped path
// would have observed.
#include "analysis/cfg.hpp"
#include "opt/opt.hpp"

namespace cepic::opt {

namespace {

using ir::BasicBlock;
using ir::IrInst;
using ir::IrOp;
using ir::VReg;

/// Is the block a convertible hammock arm: only unguarded, guardable
/// instructions followed by `br join`?
bool convertible_arm(const BasicBlock& block, int max_ops, int& join_out) {
  const IrInst& t = block.insts.back();
  if (t.op != IrOp::Br) return false;
  if (static_cast<int>(block.insts.size()) - 1 > max_ops) return false;
  for (std::size_t i = 0; i + 1 < block.insts.size(); ++i) {
    const IrInst& inst = block.insts[i];
    if (inst.guard != ir::kNoVReg) return false;  // no guard composition
    if (inst.op == IrOp::Call) return false;      // calls stay branchy
    if (ir::is_terminator(inst.op)) return false;
  }
  join_out = t.block_then;
  return true;
}

/// Does the block define `v` (unguarded or guarded)?
bool defines(const BasicBlock& block, VReg v) {
  for (const IrInst& inst : block.insts) {
    if (analysis::def_of(inst) == v) return true;
  }
  return false;
}

void append_guarded(BasicBlock& dst, const BasicBlock& arm, VReg guard,
                    bool negate) {
  for (std::size_t i = 0; i + 1 < arm.insts.size(); ++i) {
    IrInst inst = arm.insts[i];
    inst.guard = guard;
    inst.guard_negate = negate;
    dst.insts.push_back(std::move(inst));
  }
}

}  // namespace

bool pass_if_convert(ir::Function& fn, analysis::AnalysisManager& am,
                     int max_ops) {
  bool changed = false;
  const auto preds = analysis::predecessors(fn);

  for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
    BasicBlock& block = fn.blocks[b];
    const IrInst term = block.insts.back();
    if (term.op != IrOp::CondBr) continue;
    if (!term.a.is_reg()) continue;
    const VReg cond = term.a.reg;
    const int bt = term.block_then;
    const int bf = term.block_else;
    if (bt == bf || bt == static_cast<int>(b) || bf == static_cast<int>(b)) {
      continue;
    }

    const auto sole_pred = [&](int x) {
      return preds[x].size() == 1 && preds[x][0] == static_cast<int>(b);
    };

    int join_t = -1;
    int join_f = -1;
    const bool t_arm = sole_pred(bt) &&
                       convertible_arm(fn.blocks[bt], max_ops, join_t) &&
                       !defines(fn.blocks[bt], cond);
    const bool f_arm = sole_pred(bf) &&
                       convertible_arm(fn.blocks[bf], max_ops, join_f) &&
                       !defines(fn.blocks[bf], cond);

    int join = -1;
    bool use_t = false;
    bool use_f = false;
    if (t_arm && f_arm && join_t == join_f && join_t != bt && join_t != bf) {
      join = join_t;  // diamond
      use_t = use_f = true;
    } else if (t_arm && join_t == bf) {
      join = bf;  // triangle: then-arm, fall to else target
      use_t = true;
    } else if (f_arm && join_f == bt) {
      join = bt;  // inverted triangle: else-arm
      use_f = true;
    } else {
      continue;
    }

    // Rewrite: drop the CondBr, splice guarded arms, branch to join.
    block.insts.pop_back();
    if (use_t) append_guarded(block, fn.blocks[bt], cond, /*negate=*/false);
    if (use_f) append_guarded(block, fn.blocks[bf], cond, /*negate=*/true);
    IrInst br;
    br.op = IrOp::Br;
    br.block_then = join;
    block.insts.push_back(std::move(br));
    changed = true;
    // The arm blocks are now unreachable; simplify_cfg sweeps them.
  }
  // Edges vanished and defs became guarded: nothing survives.
  if (changed) am.invalidate_all(fn);
  return changed;
}

}  // namespace cepic::opt
