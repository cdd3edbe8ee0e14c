// Loop-invariant code motion: pure computations whose operands are not
// defined inside a loop move to a freshly created preheader. The big
// winners on this IR are re-materialised global addresses and constants
// inside hot loops (the frontend emits a GlobalAddr per access; local
// CSE removes duplicates within an iteration but not across them).
//
// Loop shape handled: a header H whose CondBr enters a single-block body
// B that branches straight back to H (the shape the frontend + CFG
// simplification produce for while/for loops without inner control
// flow). Safety in the non-SSA IR:
//  * only unguarded, side-effect-free, non-memory instructions move
//    (division is fault-free by our defined semantics, so it may
//    speculate past a zero-trip loop);
//  * the destination must be defined exactly once inside the loop and
//    must not be live into the header (it could carry a pre-loop value
//    around a zero-trip execution) nor live into the loop exit.
#include <set>

#include "analysis/analyses.hpp"
#include "analysis/cfg.hpp"
#include "opt/opt.hpp"

namespace cepic::opt {

namespace {

using ir::BasicBlock;
using ir::IrInst;
using ir::IrOp;
using ir::VReg;

bool hoistable_op(const IrInst& inst) {
  if (inst.guard != ir::kNoVReg) return false;
  switch (inst.op) {
    case IrOp::Mov:
    case IrOp::GlobalAddr:
    case IrOp::FrameAddr:
      return true;
    default:
      return ir::is_binary_alu(inst.op) || ir::is_cmp(inst.op);
  }
}

struct Loop {
  int header;
  int body;
  int exit;
};

/// Find header/body pairs of the handled shape.
std::vector<Loop> find_loops(const ir::Function& fn,
                             const std::vector<std::vector<int>>& preds) {
  std::vector<Loop> loops;
  for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
    const IrInst& back = fn.blocks[b].terminator();
    if (back.op != IrOp::Br) continue;
    const int h = back.block_then;
    if (h == static_cast<int>(b)) continue;
    const IrInst& head = fn.blocks[h].terminator();
    if (head.op != IrOp::CondBr) continue;
    int exit = -1;
    if (head.block_then == static_cast<int>(b)) {
      exit = head.block_else;
    } else if (head.block_else == static_cast<int>(b)) {
      exit = head.block_then;
    } else {
      continue;
    }
    if (exit == h || exit == static_cast<int>(b)) continue;
    // The body must be entered only from the header.
    if (preds[b].size() != 1 || preds[b][0] != h) continue;
    loops.push_back({h, static_cast<int>(b), exit});
  }
  return loops;
}

}  // namespace

bool pass_licm(ir::Function& fn, analysis::AnalysisManager& am) {
  bool changed = false;
  const auto preds = analysis::predecessors(fn);
  const std::vector<Loop> loops = find_loops(fn, preds);
  if (loops.empty()) return false;
  // The pre-hoist solution: it stays cached (and this reference valid)
  // until the invalidation below.
  const analysis::Liveness& lv = am.liveness(fn);

  for (const Loop& loop : loops) {
    // Registers defined anywhere in the loop, with def counts.
    std::map<VReg, int> def_count;
    for (int b : {loop.header, loop.body}) {
      for (const IrInst& inst : fn.blocks[b].insts) {
        const VReg d = analysis::def_of(inst);
        if (d != ir::kNoVReg) ++def_count[d];
      }
    }

    std::vector<IrInst> hoisted;
    std::set<VReg> hoisted_defs;
    bool moved = true;
    while (moved) {
      moved = false;
      BasicBlock& body = fn.blocks[loop.body];
      for (std::size_t i = 0; i + 1 < body.insts.size(); ++i) {
        const IrInst& inst = body.insts[i];
        if (!hoistable_op(inst)) continue;
        const VReg d = inst.dst;
        if (def_count[d] != 1) continue;
        if (lv.live_in[loop.header].test(d)) continue;
        if (lv.live_in[loop.exit].test(d)) continue;
        bool invariant = true;
        analysis::for_each_use(inst, [&](const ir::Value& v) {
          if (v.is_reg() && def_count.count(v.reg) != 0 &&
              hoisted_defs.count(v.reg) == 0) {
            invariant = false;
          }
        });
        if (!invariant) continue;

        hoisted.push_back(inst);
        hoisted_defs.insert(d);
        def_count.erase(d);
        body.insts.erase(body.insts.begin() +
                         static_cast<std::ptrdiff_t>(i));
        moved = true;
        changed = true;
        break;  // indices shifted; rescan
      }
    }
    if (hoisted.empty()) continue;

    // Build the preheader: redirect every non-backedge predecessor of
    // the header to it. (New block indices don't disturb existing ones.)
    IrInst br;
    br.op = IrOp::Br;
    br.block_then = loop.header;
    hoisted.push_back(br);
    const int pre = fn.add_block("preheader");
    fn.blocks[pre].insts = std::move(hoisted);
    for (int p : preds[loop.header]) {
      if (p == loop.body) continue;
      IrInst& term = fn.blocks[p].insts.back();
      if (term.op == IrOp::Br && term.block_then == loop.header) {
        term.block_then = pre;
      } else if (term.op == IrOp::CondBr) {
        if (term.block_then == loop.header) term.block_then = pre;
        if (term.block_else == loop.header) term.block_else = pre;
      }
    }
    // If the header was the entry block, the new preheader must become
    // the entry: swap them.
    if (loop.header == 0) {
      std::swap(fn.blocks[0], fn.blocks[pre]);
      // Fix references to the swapped indices.
      for (BasicBlock& block : fn.blocks) {
        IrInst& t = block.insts.back();
        const auto remap = [&](int x) {
          if (x == 0) return pre;
          if (x == pre) return 0;
          return x;
        };
        if (t.op == IrOp::Br) t.block_then = remap(t.block_then);
        if (t.op == IrOp::CondBr) {
          t.block_then = remap(t.block_then);
          t.block_else = remap(t.block_else);
        }
      }
    }
  }
  // New blocks and moved defs: nothing survives.
  if (changed) am.invalidate_all(fn);
  return changed;
}

}  // namespace cepic::opt
