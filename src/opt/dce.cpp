// Liveness-based dead-code elimination: a pure instruction whose result
// is not live immediately after it is removed.  Sweeping a block is a
// pure function of its contents and its live_out set, and one backward
// sweep reaches the block-local fixed point (a dead instruction's uses
// are simply not marked live, so feeder chains die in the same sweep).
// Removals only shrink liveness, so instead of re-sweeping the whole
// function per liveness iteration the pass re-sweeps exactly the blocks
// whose live_out moved.
#include <vector>

#include "analysis/analyses.hpp"
#include "analysis/cfg.hpp"
#include "opt/opt.hpp"

namespace cepic::opt {

namespace {

using ir::IrInst;
using ir::VReg;

bool removable(const IrInst& inst) {
  return !ir::has_side_effects(inst) && ir::has_dst(inst);
}

/// Remove the dead instructions of one block; true if any were removed.
bool sweep_block(ir::BasicBlock& block, const analysis::BitSet& live_out) {
  analysis::BitSet live = live_out;
  // Walk backwards maintaining the live set; collect dead indices.
  std::vector<bool> dead(block.insts.size(), false);
  for (std::size_t i = block.insts.size(); i-- > 0;) {
    const IrInst& inst = block.insts[i];
    const VReg d = analysis::def_of(inst);
    if (removable(inst) && d != ir::kNoVReg && !live.test(d)) {
      dead[i] = true;
      continue;  // its uses do not become live
    }
    if (d != ir::kNoVReg && inst.guard == ir::kNoVReg) live.reset(d);
    analysis::for_each_use(inst, [&](const ir::Value& v) {
      if (v.is_reg()) live.set(v.reg);
    });
    if (inst.guard != ir::kNoVReg) live.set(inst.guard);
  }
  std::size_t out = 0;
  for (std::size_t i = 0; i < block.insts.size(); ++i) {
    if (!dead[i]) {
      if (out != i) block.insts[out] = std::move(block.insts[i]);
      ++out;
    }
  }
  if (out == block.insts.size()) return false;
  block.insts.resize(out);
  return true;
}

}  // namespace

bool pass_dce(ir::Function& fn, analysis::AnalysisManager& am) {
  const std::size_t nb = fn.blocks.size();

  // Removing defs and uses never shelters a previously-dead value (a
  // dead def's kill is always shadowed by the later def that made it
  // dead), so dce keeps the graph and dominance but moves everything
  // value-related.
  const auto preserved = analysis::PreservedAnalyses::none()
                             .preserve(analysis::AnalysisKind::kCfg)
                             .preserve(analysis::AnalysisKind::kDominators);

  const analysis::Liveness* lv = &am.liveness(fn);
  analysis::BitSet work(nb);
  work.set_all();
  bool changed = false;
  for (;;) {
    bool swept = false;
    for (std::size_t b = 0; b < nb; ++b) {
      if (work.test(b) && sweep_block(fn.blocks[b], lv->live_out[b])) {
        swept = true;
        changed = true;
      }
    }
    if (!swept) break;
    // Removing uses can expose more dead defs elsewhere: re-solve
    // liveness and re-sweep exactly the blocks whose live_out moved.
    std::vector<analysis::BitSet> old_live_out = lv->live_out;
    am.invalidate(fn, preserved, "dce");
    lv = &am.liveness(fn);
    work.clear();
    for (std::size_t b = 0; b < nb; ++b) {
      if (lv->live_out[b] != old_live_out[b]) work.set(b);
    }
  }
  return changed;
}

}  // namespace cepic::opt
