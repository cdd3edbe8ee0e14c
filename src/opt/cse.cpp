// Local common-subexpression elimination: within a block, a pure
// computation with identical operands reuses the earlier result via a
// mov. Loads participate too, invalidated by any store or call (no alias
// analysis — conservative). Guarded instructions neither create nor
// reuse entries (their result is conditional), but their defs still
// invalidate.
//
// The available-expression table is a hash map keyed by
// (op, a, b, global_index).  At most one *live* entry can exist per key
// (a second identical instruction is rewritten to a mov and never
// inserted), so a map lookup returns exactly what the historical linear
// scan found, and the pass stays byte-identical while dropping from
// O(insts * table) to O(insts).  Redefinition kills go through per-vreg
// dependency lists; each entry carries a unique id so a stale dependency
// (left behind by an already-erased entry, or by a previous block) never
// removes a newer entry that happens to reuse the key.
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "analysis/cfg.hpp"
#include "opt/opt.hpp"
#include "support/bits.hpp"

namespace cepic::opt {

namespace {

using ir::IrInst;
using ir::IrOp;
using ir::Value;
using ir::VReg;

/// Order-insensitive 64-bit encoding of a Value (kind tag + payload).
std::uint64_t encode_value(const Value& v) {
  const auto kind = static_cast<std::uint64_t>(v.kind);
  const auto payload = v.is_reg()
                           ? static_cast<std::uint64_t>(v.reg)
                           : static_cast<std::uint64_t>(
                                 static_cast<std::uint32_t>(v.imm));
  return (kind << 32) | payload;
}

struct Key {
  IrOp op;
  int global_index;
  std::uint64_t a, b;

  bool operator==(const Key&) const = default;
};

struct KeyHash {
  std::size_t operator()(const Key& k) const {
    std::uint64_t h = kFnvOffset64;
    const auto mix = [&h](std::uint64_t x) {
      for (int i = 0; i < 8; ++i) {
        h ^= (x >> (8 * i)) & 0xff;
        h *= kFnvPrime64;
      }
    };
    mix(static_cast<std::uint64_t>(k.op));
    mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.global_index)));
    mix(k.a);
    mix(k.b);
    return static_cast<std::size_t>(h);
  }
};

struct Entry {
  VReg result;
  std::uint32_t id;  ///< unique per insertion; stamps dependency records
};

Key key_of(const IrInst& inst) {
  return Key{inst.op, inst.global_index, encode_value(inst.a),
             encode_value(inst.b)};
}

bool cse_eligible(const IrInst& inst) {
  if (inst.guard != ir::kNoVReg) return false;
  switch (inst.op) {
    case IrOp::GlobalAddr:
    case IrOp::FrameAddr:
    case IrOp::LoadW:
    case IrOp::LoadB:
    case IrOp::LoadBU:
      return true;
    default:
      return ir::is_binary_alu(inst.op) || ir::is_cmp(inst.op);
  }
}

struct Dep {
  Key key;
  std::uint32_t id;
};

class Table {
 public:
  explicit Table(std::size_t num_vregs) : deps_(num_vregs) {}

  /// Start a new block: live entries are dropped wholesale; dependency
  /// records go stale instead of being swept (their ids no longer match
  /// anything, so kills skip them).
  void new_block() {
    map_.clear();
    loads_.clear();
  }

  const Entry* lookup(const Key& k) const {
    const auto it = map_.find(k);
    return it == map_.end() ? nullptr : &it->second;
  }

  void insert(const IrInst& inst) {
    const Key k = key_of(inst);
    const std::uint32_t id = next_id_++;
    map_[k] = Entry{inst.dst, id};
    add_dep(inst.dst, k, id);
    if (inst.a.is_reg()) add_dep(inst.a.reg, k, id);
    if (inst.b.is_reg()) add_dep(inst.b.reg, k, id);
    if (ir::is_load(inst.op)) loads_.push_back(Dep{k, id});
  }

  /// A definition of d invalidates entries producing or reading d.
  void kill(VReg d) {
    if (d >= deps_.size()) return;
    for (const Dep& dep : deps_[d]) {
      const auto it = map_.find(dep.key);
      if (it != map_.end() && it->second.id == dep.id) map_.erase(it);
    }
    deps_[d].clear();
  }

  /// Stores and calls clobber memory: drop load entries.
  void kill_loads() {
    for (const Dep& dep : loads_) {
      const auto it = map_.find(dep.key);
      if (it != map_.end() && it->second.id == dep.id) map_.erase(it);
    }
    loads_.clear();
  }

 private:
  void add_dep(VReg v, const Key& k, std::uint32_t id) {
    if (v < deps_.size()) deps_[v].push_back(Dep{k, id});
  }

  std::unordered_map<Key, Entry, KeyHash> map_;
  std::vector<std::vector<Dep>> deps_;  ///< per vreg, lazily invalidated
  std::vector<Dep> loads_;              ///< live load entries this block
  std::uint32_t next_id_ = 0;
};

bool cse_block(ir::BasicBlock& block, Table& table) {
  bool changed = false;
  table.new_block();
  for (IrInst& inst : block.insts) {
    if (ir::is_store(inst.op) || inst.op == IrOp::Call) table.kill_loads();

    if (cse_eligible(inst)) {
      if (const Entry* hit = table.lookup(key_of(inst))) {
        const VReg dst = inst.dst;
        const VReg src = hit->result;
        inst = IrInst{};
        inst.op = IrOp::Mov;
        inst.dst = dst;
        inst.a = Value::r(src);
        changed = true;
      }
    }

    const VReg d = analysis::def_of(inst);
    if (d != ir::kNoVReg) {
      table.kill(d);
      if (cse_eligible(inst) && inst.op != IrOp::Mov) table.insert(inst);
    }
  }
  return changed;
}

}  // namespace

bool pass_cse(ir::Function& fn, analysis::AnalysisManager& am) {
  Table table(fn.next_vreg);
  bool changed = false;
  for (ir::BasicBlock& block : fn.blocks) changed |= cse_block(block, table);
  if (changed) {
    // Rewrites replace an instruction with a mov to the same dst at the
    // same position and never touch terminators or guards: the graph,
    // dominance and the def-site structure all survive.
    am.invalidate(fn,
                  analysis::PreservedAnalyses::none()
                      .preserve(analysis::AnalysisKind::kCfg)
                      .preserve(analysis::AnalysisKind::kDominators)
                      .preserve(analysis::AnalysisKind::kReachingDefs),
                  "cse");
  }
  return changed;
}

}  // namespace cepic::opt
