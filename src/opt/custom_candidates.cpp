#include "opt/custom_candidates.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "analysis/cfg.hpp"
#include "support/text.hpp"

namespace cepic::opt {

namespace {

using ir::IrInst;
using ir::IrOp;
using ir::VReg;

/// Blocks that sit on a CFG cycle (loop bodies), found by DFS back-edge
/// detection from the entry.
std::vector<unsigned> loop_depth(const ir::Function& fn) {
  // Approximate nesting: a block's depth = number of back-edge targets
  // (natural-loop headers) that can both reach it and be reached from it.
  // For candidate weighting a cruder measure works: depth 1 for any
  // block on a cycle, +1 if on a cycle within that cycle is overkill —
  // use reachability-based membership per header.
  const std::size_t nb = fn.blocks.size();
  std::vector<std::vector<int>> succ(nb);
  for (std::size_t b = 0; b < nb; ++b) {
    succ[b] = analysis::successors(fn.blocks[b]);
  }

  // Find headers: targets of back edges in DFS.
  std::vector<int> state(nb, 0);  // 0 unvisited, 1 on stack, 2 done
  std::vector<int> headers;
  const auto dfs = [&](auto&& self, int b) -> void {
    state[b] = 1;
    for (int s : succ[b]) {
      if (state[s] == 0) {
        self(self, s);
      } else if (state[s] == 1) {
        headers.push_back(s);
      }
    }
    state[b] = 2;
  };
  dfs(dfs, 0);

  // Membership: block m is in header h's loop if h reaches m and m
  // reaches h.
  const auto reachable_from = [&](int from) {
    std::vector<bool> seen(nb, false);
    std::vector<int> stack = {from};
    seen[from] = true;
    while (!stack.empty()) {
      const int b = stack.back();
      stack.pop_back();
      for (int s : succ[b]) {
        if (!seen[s]) {
          seen[s] = true;
          stack.push_back(s);
        }
      }
    }
    return seen;
  };

  std::vector<unsigned> depth(nb, 0);
  std::set<int> unique_headers(headers.begin(), headers.end());
  for (int h : unique_headers) {
    const std::vector<bool> from_h = reachable_from(h);
    for (std::size_t m = 0; m < nb; ++m) {
      if (!from_h[m]) continue;
      const std::vector<bool> from_m = reachable_from(static_cast<int>(m));
      if (from_m[h]) ++depth[m];
    }
  }
  return depth;
}

std::uint64_t weight_of(unsigned depth) {
  std::uint64_t w = 1;
  for (unsigned i = 0; i < std::min(depth, 4u); ++i) w *= 10;
  return w;
}

struct Accumulator {
  std::map<std::string, CustomCandidate> table;

  void hit(const std::string& pattern, const std::string& builtin,
           unsigned ops_saved, std::uint64_t weight) {
    CustomCandidate& c = table[pattern];
    c.pattern = pattern;
    c.builtin = builtin;
    c.ops_saved = ops_saved;
    c.occurrences += 1;
    c.weighted += weight;
  }
};

/// Number of uses of each vreg in a function.
std::map<VReg, int> use_counts(const ir::Function& fn) {
  std::map<VReg, int> uses;
  for (const ir::BasicBlock& block : fn.blocks) {
    for (const IrInst& inst : block.insts) {
      analysis::for_each_use(inst, [&](const ir::Value& v) {
        if (v.is_reg()) ++uses[v.reg];
      });
      if (inst.guard != ir::kNoVReg) ++uses[inst.guard];
    }
  }
  return uses;
}

}  // namespace

std::vector<CustomCandidate> find_custom_candidates(
    const ir::Module& module, std::size_t max_candidates) {
  Accumulator acc;

  for (const ir::Function& fn : module.functions) {
    const std::vector<unsigned> depths = loop_depth(fn);
    const std::map<VReg, int> uses = use_counts(fn);
    const auto single_use = [&](VReg v) {
      const auto it = uses.find(v);
      return it != uses.end() && it->second == 1;
    };

    for (std::size_t bi = 0; bi < fn.blocks.size(); ++bi) {
      const ir::BasicBlock& block = fn.blocks[bi];
      const std::uint64_t w = weight_of(depths[bi]);

      // Map from defining vreg to its instruction index (within block,
      // unguarded defs only — fusing across guards changes semantics).
      std::map<VReg, std::size_t> def_at;
      for (std::size_t i = 0; i < block.insts.size(); ++i) {
        const IrInst& inst = block.insts[i];

        // --- specific idiom: rotate = Or(Shrl(x,k), Shl(x, 32-k)) ---
        if (inst.op == IrOp::Or && inst.a.is_reg() && inst.b.is_reg()) {
          const auto ia = def_at.find(inst.a.reg);
          const auto ib = def_at.find(inst.b.reg);
          if (ia != def_at.end() && ib != def_at.end()) {
            const IrInst* l = &block.insts[ia->second];
            const IrInst* r = &block.insts[ib->second];
            if (l->op == IrOp::Shl && r->op == IrOp::Shrl) std::swap(l, r);
            if (l->op == IrOp::Shrl && r->op == IrOp::Shl &&
                l->a == r->a && l->b.is_imm() && r->b.is_imm() &&
                l->b.imm + r->b.imm == 32 && single_use(inst.a.reg) &&
                single_use(inst.b.reg)) {
              acc.hit("rotate: (x >>> k) | (x << 32-k)", "rotr", 2, w);
            }
          }
        }

        // --- generic single-use producer -> consumer pairs ---
        if (ir::is_binary_alu(inst.op)) {
          analysis::for_each_use(inst, [&](const ir::Value& v) {
            if (!v.is_reg() || !single_use(v.reg)) return;
            const auto it = def_at.find(v.reg);
            if (it == def_at.end()) return;
            const IrInst& producer = block.insts[it->second];
            if (!ir::is_binary_alu(producer.op)) return;
            // Specific well-known fusions get friendly names.
            if (producer.op == IrOp::Mul && inst.op == IrOp::Add) {
              acc.hit("multiply-accumulate: a*b + c", "", 1, w);
            } else if (producer.op == IrOp::Shl && inst.op == IrOp::Add) {
              acc.hit("scaled add: (a << k) + b", "", 1, w);
            } else if (producer.op == IrOp::Sub &&
                       (inst.op == IrOp::Max || inst.op == IrOp::Min)) {
              acc.hit("clamped difference: min/max(a-b, c)", "sadd", 1, w);
            } else {
              acc.hit(cat("pair: ", ir::ir_op_name(producer.op), " -> ",
                          ir::ir_op_name(inst.op)),
                      "", 1, w);
            }
          });
        }

        const VReg d = analysis::def_of(inst);
        if (d != ir::kNoVReg) {
          if (inst.guard == ir::kNoVReg) {
            def_at[d] = i;
          } else {
            def_at.erase(d);
          }
        }
      }
    }
  }

  std::vector<CustomCandidate> out;
  out.reserve(acc.table.size());
  for (auto& [key, candidate] : acc.table) out.push_back(candidate);
  std::sort(out.begin(), out.end(),
            [](const CustomCandidate& a, const CustomCandidate& b) {
              return a.score() > b.score() ||
                     (a.score() == b.score() && a.pattern < b.pattern);
            });
  if (out.size() > max_candidates) out.resize(max_candidates);
  return out;
}

std::string format_candidates(
    const std::vector<CustomCandidate>& candidates) {
  std::string s = "custom-instruction candidates (ranked):\n";
  if (candidates.empty()) {
    s += "  (none found)\n";
    return s;
  }
  for (const CustomCandidate& c : candidates) {
    s += cat("  ", pad_right(c.pattern, 40), " x", c.occurrences,
             " (weighted ", c.weighted, "), saves ", c.ops_saved,
             " op/occurrence");
    if (!c.builtin.empty()) {
      s += cat("  -> enable `custom_ops = ", c.builtin, "`");
    }
    s += "\n";
  }
  return s;
}

}  // namespace cepic::opt
