// Control-flow cleanup: thread jumps through empty forwarding blocks,
// merge single-predecessor fallthrough chains (bigger blocks = bigger
// scheduling regions for the EPIC list scheduler), fold trivial
// conditional branches, and drop unreachable blocks.
//
// The rewrite sequence (thread / merge / remove-unreachable to a fixed
// point, bounded) is deliberately unchanged — block numbering in the
// output depends on it.  What changed is the machinery: reachability
// and predecessor counts come from arena-backed scratch arrays instead
// of a freshly heap-built Cfg per round.
#include <algorithm>

#include "analysis/cfg.hpp"
#include "opt/opt.hpp"
#include "support/arena.hpp"

namespace cepic::opt {

namespace {

using ir::IrInst;
using ir::IrOp;

/// A block containing only `br X` forwards to X.
bool is_forwarder(const ir::BasicBlock& block, int& target) {
  if (block.insts.size() != 1) return false;
  const IrInst& t = block.insts[0];
  if (t.op != IrOp::Br) return false;
  target = t.block_then;
  return true;
}

int thread_target(const ir::Function& fn, int target) {
  int fuel = static_cast<int>(fn.blocks.size());
  int next = 0;
  while (fuel-- > 0 && is_forwarder(fn.blocks[target], next) &&
         next != target) {
    target = next;
  }
  return target;
}

bool thread_jumps(ir::Function& fn) {
  bool changed = false;
  for (ir::BasicBlock& block : fn.blocks) {
    IrInst& t = block.insts.back();
    if (t.op == IrOp::Br) {
      const int nt = thread_target(fn, t.block_then);
      if (nt != t.block_then) {
        t.block_then = nt;
        changed = true;
      }
    } else if (t.op == IrOp::CondBr) {
      const int nt = thread_target(fn, t.block_then);
      const int ne = thread_target(fn, t.block_else);
      if (nt != t.block_then || ne != t.block_else) {
        t.block_then = nt;
        t.block_else = ne;
        changed = true;
      }
      // Both arms equal: degrade to an unconditional branch.
      if (t.block_then == t.block_else) {
        const int target = t.block_then;
        t = IrInst{};
        t.op = IrOp::Br;
        t.block_then = target;
        changed = true;
      }
    }
  }
  return changed;
}

bool merge_chains(ir::Function& fn) {
  bool changed = false;
  const std::size_t nb = fn.blocks.size();
  ArenaScope scope(Arena::scratch());
  // Only the predecessor *count* matters here (a chain head is the sole
  // predecessor of its successor), so skip building adjacency lists.
  int* pred_count = scope.arena().alloc_zeroed<int>(nb);
  for (const ir::BasicBlock& block : fn.blocks) {
    analysis::for_each_successor(block,
                                 [&](int s) { ++pred_count[s]; });
  }
  for (std::size_t b = 0; b < nb; ++b) {
    ir::BasicBlock& block = fn.blocks[b];
    IrInst& t = block.insts.back();
    if (t.op != IrOp::Br) continue;
    const int succ = t.block_then;
    if (succ == static_cast<int>(b) || succ == 0) continue;  // not entry
    if (pred_count[succ] != 1) continue;
    // Splice succ's instructions in place of our Br. succ becomes
    // unreachable and is removed below.
    block.insts.pop_back();
    ir::BasicBlock& victim = fn.blocks[succ];
    std::move(victim.insts.begin(), victim.insts.end(),
              std::back_inserter(block.insts));
    victim.insts.clear();
    IrInst dead_ret;
    dead_ret.op = IrOp::Ret;
    if (fn.returns_value) dead_ret.a = ir::Value::i(0);
    victim.insts.push_back(dead_ret);
    changed = true;
    // The merged terminator may itself be a Br to another mergeable
    // block, but pred counts are stale now; the next round continues.
  }
  return changed;
}

bool remove_unreachable(ir::Function& fn) {
  const std::size_t nb = fn.blocks.size();
  ArenaScope scope(Arena::scratch());
  // Plain DFS from the entry block; matches Cfg::build's notion of
  // graph reachability without paying for adjacency lists.
  bool* reachable = scope.arena().alloc_zeroed<bool>(nb);
  int* stack = scope.arena().alloc_array<int>(nb);
  int sp = 0;
  reachable[0] = true;
  stack[sp++] = 0;
  std::size_t num_reachable = 1;
  while (sp > 0) {
    const int b = stack[--sp];
    analysis::for_each_successor(fn.blocks[b], [&](int s) {
      if (!reachable[s]) {
        reachable[s] = true;
        ++num_reachable;
        stack[sp++] = s;
      }
    });
  }
  if (num_reachable == nb) return false;
  std::vector<int> remap(nb, -1);
  std::vector<ir::BasicBlock> kept;
  for (std::size_t b = 0; b < nb; ++b) {
    if (reachable[b]) {
      remap[b] = static_cast<int>(kept.size());
      kept.push_back(std::move(fn.blocks[b]));
    }
  }
  for (ir::BasicBlock& block : kept) {
    IrInst& t = block.insts.back();
    if (t.op == IrOp::Br) t.block_then = remap[t.block_then];
    if (t.op == IrOp::CondBr) {
      t.block_then = remap[t.block_then];
      t.block_else = remap[t.block_else];
    }
  }
  fn.blocks = std::move(kept);
  return true;
}

bool run_rounds(ir::Function& fn) {
  bool changed = false;
  for (int round = 0; round < 8; ++round) {
    bool round_changed = false;
    round_changed |= thread_jumps(fn);
    round_changed |= merge_chains(fn);
    round_changed |= remove_unreachable(fn);
    if (!round_changed) break;
    changed = true;
  }
  return changed;
}

}  // namespace

bool pass_simplify_cfg(ir::Function& fn, analysis::AnalysisManager& am) {
  // Any change can splice, renumber or delete blocks, so nothing
  // survives; the driver's version skip is what makes repeat
  // invocations cheap.
  const bool changed = run_rounds(fn);
  if (changed) {
    am.invalidate(fn, analysis::PreservedAnalyses::none(), "simplify_cfg");
  }
  return changed;
}

}  // namespace cepic::opt
