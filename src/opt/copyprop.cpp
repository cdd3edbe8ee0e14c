// Global copy and constant propagation on the non-SSA IR.  `mov d, x`
// records d -> x; later reads of d become x until either d or x is
// redefined.  Cross-block facts come from the framework's available-
// copies analysis (forward, intersection join), so a copy survives a
// join point only when it holds on every incoming path.  Guarded movs
// are conditional and are never propagated.  Rewriting a block is a
// pure function of its contents and the copies available on entry, so
// one forward walk per block seeded from the analysis is the whole pass.
#include <unordered_map>
#include <vector>

#include "analysis/cfg.hpp"
#include "opt/opt.hpp"

namespace cepic::opt {

namespace {

using ir::IrInst;
using ir::IrOp;
using ir::Value;
using ir::VReg;

class CopyMap {
public:
  void clear() {
    map_.clear();
    by_src_.clear();
  }

  /// Resolve v through the copy chain.
  Value resolve(Value v) const {
    int fuel = 64;  // chains are short; guard against cycles regardless
    while (v.is_reg() && fuel-- > 0) {
      const auto it = map_.find(v.reg);
      if (it == map_.end()) return v;
      v = it->second;
    }
    return v;
  }

  void record(VReg dst, Value src) {
    map_[dst] = src;
    if (src.is_reg()) by_src_[src.reg].push_back(dst);
  }

  /// A definition of d invalidates d's entry and entries copying from d.
  void kill(VReg d) {
    map_.erase(d);
    const auto it = by_src_.find(d);
    if (it == by_src_.end()) return;
    for (const VReg dst : it->second) {
      // The reverse index keeps stale dsts (re-recorded with another
      // src, or already killed); erase only a still-matching entry.
      const auto mit = map_.find(dst);
      if (mit != map_.end() && mit->second.is_reg() && mit->second.reg == d) {
        map_.erase(mit);
      }
    }
    by_src_.erase(it);
  }

private:
  std::unordered_map<VReg, Value> map_;
  std::unordered_map<VReg, std::vector<VReg>> by_src_;
};

/// Rewrite one block against the copies valid on entry; true if changed.
bool propagate_block(ir::BasicBlock& block, CopyMap& copies) {
  bool changed = false;
  for (IrInst& inst : block.insts) {
    analysis::for_each_use(inst, [&](Value& v) {
      const Value resolved = copies.resolve(v);
      if (!(resolved == v)) {
        v = resolved;
        changed = true;
      }
    });
    // Note: the guard is deliberately not rewritten — a guard must
    // stay a vreg, and the backend prefers compare results directly.
    if (inst.guard != ir::kNoVReg) {
      const Value g = copies.resolve(Value::r(inst.guard));
      if (g.is_reg() && g.reg != inst.guard) {
        inst.guard = g.reg;
        changed = true;
      }
    }
    const VReg d = analysis::def_of(inst);
    if (d != ir::kNoVReg) {
      copies.kill(d);
      if (inst.op == IrOp::Mov && inst.guard == ir::kNoVReg) {
        const Value src = inst.a;
        if (!(src.is_reg() && src.reg == d)) copies.record(d, src);
      }
    }
  }
  return changed;
}

}  // namespace

bool pass_copy_propagate(ir::Function& fn, analysis::AnalysisManager& am) {
  const analysis::AvailableCopies& ac = am.available_copies(fn);
  bool changed = false;
  CopyMap copies;
  for (std::size_t bi = 0; bi < fn.blocks.size(); ++bi) {
    // Seed the map with the copies available on entry.  At most one
    // site per dst is ever available at once (a second mov to the same
    // dst kills the first), so the recording order is immaterial.
    copies.clear();
    for (std::size_t s = 0; s < ac.sites.size(); ++s) {
      if (ac.avail_in[bi].test(s)) {
        copies.record(ac.sites[s].dst, ac.sites[s].src);
      }
    }
    changed |= propagate_block(fn.blocks[bi], copies);
  }
  if (changed) {
    // Operand rewrites only: no instruction moves, no dst changes, no
    // guard appears or disappears — the graph, dominance and the
    // def-site structure survive.
    am.invalidate(fn,
                  analysis::PreservedAnalyses::none()
                      .preserve(analysis::AnalysisKind::kCfg)
                      .preserve(analysis::AnalysisKind::kDominators)
                      .preserve(analysis::AnalysisKind::kReachingDefs),
                  "copy_propagate");
  }
  return changed;
}

}  // namespace cepic::opt
