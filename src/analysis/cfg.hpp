// CFG utilities over ir::Function shared by the dataflow framework, the
// optimiser passes and the IR lints: successor/predecessor computation,
// operand visitation, and a prebuilt Cfg with traversal orders so every
// client walks the same graph. A Cfg can also be built from bare
// successor lists, which is how machine code reaches the same solver.
#pragma once

#include <vector>

#include "ir/ir.hpp"

namespace cepic::analysis {

/// Successor block indices of a block (from its terminator).
std::vector<int> successors(const ir::BasicBlock& block);

/// preds[b] = blocks branching to b.
std::vector<std::vector<int>> predecessors(const ir::Function& fn);

/// The vreg defined by an instruction, or kNoVReg.
ir::VReg def_of(const ir::IrInst& inst);

/// Invoke fn(Value&) on every value operand the instruction *reads*
/// (a/b/c/args as applicable; the guard is visited separately since it
/// is a bare vreg).
template <typename Fn>
void for_each_use(ir::IrInst& inst, Fn&& fn) {
  using ir::IrOp;
  switch (inst.op) {
    case IrOp::GlobalAddr:
    case IrOp::FrameAddr:
      break;
    case IrOp::Call:
      for (ir::Value& v : inst.args) fn(v);
      break;
    case IrOp::Ret:
    case IrOp::Out:
    case IrOp::Mov:
    case IrOp::CondBr:
      if (!inst.a.is_none()) fn(inst.a);
      break;
    case IrOp::Br:
      break;
    case IrOp::StoreW:
    case IrOp::StoreB:
      fn(inst.a);
      fn(inst.b);
      fn(inst.c);
      break;
    default:
      if (!inst.a.is_none()) fn(inst.a);
      if (!inst.b.is_none()) fn(inst.b);
      break;
  }
}

template <typename Fn>
void for_each_use(const ir::IrInst& inst, Fn&& fn) {
  for_each_use(const_cast<ir::IrInst&>(inst),
               [&fn](ir::Value& v) { fn(static_cast<const ir::Value&>(v)); });
}

/// A control-flow graph built once per function and shared by every
/// analysis: adjacency both ways, graph reachability from the entry
/// block, and depth-first traversal orders for fast fixed points.
struct Cfg {
  const ir::Function* fn = nullptr;
  std::vector<std::vector<int>> succs;
  std::vector<std::vector<int>> preds;
  std::vector<bool> reachable;  ///< reachable from block 0 by graph edges
  std::vector<int> rpo;         ///< reverse postorder over reachable blocks
  std::vector<int> rpo_index;   ///< block -> position in rpo (-1 unreachable)

  int num_blocks() const { return static_cast<int>(succs.size()); }

  static Cfg build(const ir::Function& fn);
  /// A Cfg over any block graph given as successor lists (block 0 is the
  /// entry); `fn` stays null. The machine-level allocator uses this.
  static Cfg build(std::vector<std::vector<int>> succs);

  bool operator==(const Cfg&) const = default;
};

/// Visit each successor block index of `block` without allocating (the
/// vector-returning successors() is kept for callers that want one).
template <typename Fn>
void for_each_successor(const ir::BasicBlock& block, Fn&& fn) {
  const ir::IrInst& t = block.insts.back();
  switch (t.op) {
    case ir::IrOp::Br:
      fn(t.block_then);
      break;
    case ir::IrOp::CondBr:
      fn(t.block_then);
      if (t.block_else != t.block_then) fn(t.block_else);
      break;
    default:
      break;
  }
}

}  // namespace cepic::analysis
