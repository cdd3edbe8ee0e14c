// Bottom-up leaf inlining: a callee that itself performs no calls and is
// small enough is cloned into the caller. Run inside the pass pipeline,
// successive rounds collapse deeper call chains (a caller whose calls
// were all inlined becomes a leaf for the next round).
#include "analysis/cfg.hpp"
#include "opt/opt.hpp"

namespace cepic::opt {

namespace {

using ir::BasicBlock;
using ir::Function;
using ir::IrInst;
using ir::IrOp;
using ir::Value;
using ir::VReg;

bool is_leaf(const Function& fn) {
  for (const BasicBlock& block : fn.blocks) {
    for (const IrInst& inst : block.insts) {
      if (inst.op == IrOp::Call) return false;
    }
  }
  return true;
}

std::size_t inst_count(const Function& fn) {
  std::size_t n = 0;
  for (const BasicBlock& block : fn.blocks) n += block.insts.size();
  return n;
}

/// Clone `callee` into `caller` at the call site (block bi, instruction
/// index ii). Returns true on success.
void inline_at(Function& caller, int bi, std::size_t ii,
               const Function& callee) {
  const IrInst call = caller.blocks[bi].insts[ii];

  // Split the call block: everything after the call moves to `cont`.
  const int cont = caller.add_block(caller.blocks[bi].label + ".cont");
  BasicBlock& call_block = caller.blocks[bi];
  BasicBlock& cont_block = caller.blocks[cont];
  cont_block.insts.assign(
      std::make_move_iterator(call_block.insts.begin() + ii + 1),
      std::make_move_iterator(call_block.insts.end()));
  call_block.insts.resize(ii);  // drop the call and the tail

  // Map callee vregs to fresh caller vregs.
  std::vector<VReg> vmap(callee.next_vreg, ir::kNoVReg);
  const auto map_vreg = [&](VReg v) -> VReg {
    if (v == ir::kNoVReg) return ir::kNoVReg;
    if (vmap[v] == ir::kNoVReg) vmap[v] = caller.fresh_vreg();
    return vmap[v];
  };

  // Bind arguments.
  for (std::size_t p = 0; p < callee.params.size(); ++p) {
    IrInst mov;
    mov.op = IrOp::Mov;
    mov.dst = map_vreg(callee.params[p]);
    mov.a = call.args[p];
    caller.blocks[bi].insts.push_back(std::move(mov));
  }

  // The callee frame lives after the caller's current frame.
  const std::uint32_t frame_shift = caller.frame_bytes;
  caller.frame_bytes += callee.frame_bytes;

  // Clone blocks.
  const int base = static_cast<int>(caller.blocks.size());
  for (const BasicBlock& cb : callee.blocks) {
    const int nb = caller.add_block("inl." + callee.name +
                                    (cb.label.empty() ? "" : "." + cb.label));
    for (const IrInst& src : cb.insts) {
      IrInst inst = src;
      if (ir::has_dst(inst)) inst.dst = map_vreg(inst.dst);
      analysis::for_each_use(inst, [&](Value& v) {
        if (v.is_reg()) v.reg = map_vreg(v.reg);
      });
      if (inst.guard != ir::kNoVReg) inst.guard = map_vreg(inst.guard);
      switch (inst.op) {
        case IrOp::FrameAddr:
          inst.a = Value::i(inst.a.imm + static_cast<std::int32_t>(frame_shift));
          break;
        case IrOp::Br:
          inst.block_then += base;
          break;
        case IrOp::CondBr:
          inst.block_then += base;
          inst.block_else += base;
          break;
        case IrOp::Ret: {
          // ret v  ->  [dst = v;] br cont
          IrInst br;
          br.op = IrOp::Br;
          br.block_then = cont;
          if (call.dst != ir::kNoVReg) {
            IrInst mov;
            mov.op = IrOp::Mov;
            mov.dst = call.dst;
            mov.a = inst.a;
            caller.blocks[nb].insts.push_back(std::move(mov));
          }
          caller.blocks[nb].insts.push_back(std::move(br));
          continue;
        }
        default:
          break;
      }
      caller.blocks[nb].insts.push_back(std::move(inst));
    }
  }

  // Jump from the call site into the cloned entry.
  IrInst enter;
  enter.op = IrOp::Br;
  enter.block_then = base;
  caller.blocks[bi].insts.push_back(std::move(enter));
}

}  // namespace

bool pass_inline(ir::Module& module, int max_insts,
                 std::vector<bool>* fn_changed) {
  if (fn_changed != nullptr) {
    fn_changed->assign(module.functions.size(), false);
  }
  bool changed = false;
  for (std::size_t fi = 0; fi < module.functions.size(); ++fi) {
    Function& caller = module.functions[fi];
    bool scan_again = true;
    int budget = 16;  // cap clones per caller per pass invocation
    while (scan_again && budget > 0) {
      scan_again = false;
      for (int bi = 0; bi < static_cast<int>(caller.blocks.size()); ++bi) {
        const BasicBlock& block = caller.blocks[bi];
        for (std::size_t ii = 0; ii < block.insts.size(); ++ii) {
          const IrInst& inst = block.insts[ii];
          if (inst.op != IrOp::Call) continue;
          const Function* callee = module.find_function(inst.callee);
          if (callee == nullptr || callee == &caller) continue;
          if (!is_leaf(*callee)) continue;
          if (inst_count(*callee) > static_cast<std::size_t>(max_insts)) {
            continue;
          }
          inline_at(caller, bi, ii, *callee);
          changed = true;
          if (fn_changed != nullptr) (*fn_changed)[fi] = true;
          scan_again = true;
          --budget;
          break;  // block structure changed; rescan
        }
        if (scan_again) break;
      }
    }
  }
  return changed;
}

}  // namespace cepic::opt
