#include "analysis/cfg.hpp"

#include <utility>

namespace cepic::analysis {

using ir::IrInst;
using ir::IrOp;
using ir::VReg;

std::vector<int> successors(const ir::BasicBlock& block) {
  const IrInst& t = block.terminator();
  switch (t.op) {
    case IrOp::Br:
      return {t.block_then};
    case IrOp::CondBr:
      if (t.block_then == t.block_else) return {t.block_then};
      return {t.block_then, t.block_else};
    default:
      return {};
  }
}

std::vector<std::vector<int>> predecessors(const ir::Function& fn) {
  std::vector<std::vector<int>> preds(fn.blocks.size());
  for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
    for (int s : successors(fn.blocks[b])) {
      preds[s].push_back(static_cast<int>(b));
    }
  }
  return preds;
}

VReg def_of(const IrInst& inst) {
  return ir::has_dst(inst) ? inst.dst : ir::kNoVReg;
}

Cfg Cfg::build(const ir::Function& fn) {
  std::vector<std::vector<int>> succs(fn.blocks.size());
  for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
    succs[b] = successors(fn.blocks[b]);
  }
  Cfg cfg = build(std::move(succs));
  cfg.fn = &fn;
  return cfg;
}

Cfg Cfg::build(std::vector<std::vector<int>> succs) {
  const int nb = static_cast<int>(succs.size());
  Cfg cfg;
  cfg.succs = std::move(succs);
  cfg.preds.assign(nb, {});
  for (int b = 0; b < nb; ++b) {
    for (int s : cfg.succs[b]) cfg.preds[s].push_back(b);
  }

  // Iterative DFS from the entry block producing a postorder; rpo is its
  // reverse. Blocks never reached stay out of rpo entirely.
  cfg.reachable.assign(nb, false);
  std::vector<int> postorder;
  postorder.reserve(nb);
  if (nb > 0) {
    // stack of (block, next successor index to visit)
    std::vector<std::pair<int, std::size_t>> stack;
    cfg.reachable[0] = true;
    stack.emplace_back(0, 0);
    while (!stack.empty()) {
      auto& [b, next] = stack.back();
      if (next < cfg.succs[b].size()) {
        const int s = cfg.succs[b][next++];
        if (!cfg.reachable[s]) {
          cfg.reachable[s] = true;
          stack.emplace_back(s, 0);
        }
      } else {
        postorder.push_back(b);
        stack.pop_back();
      }
    }
  }
  cfg.rpo.assign(postorder.rbegin(), postorder.rend());
  cfg.rpo_index.assign(nb, -1);
  for (std::size_t i = 0; i < cfg.rpo.size(); ++i) {
    cfg.rpo_index[cfg.rpo[i]] = static_cast<int>(i);
  }
  return cfg;
}

}  // namespace cepic::analysis
