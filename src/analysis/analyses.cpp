#include "analysis/analyses.hpp"

#include <algorithm>
#include <unordered_map>

#include "support/arena.hpp"
#include "support/bits.hpp"
#include "support/text.hpp"

namespace cepic::analysis {

using ir::IrInst;
using ir::VReg;

namespace {

// ---------------------------------------------------------------------
// Dominators: forward, all-blocks top, intersection join, transfer adds
// the block itself.  The classic iterative formulation.
struct DomProblem {
  using State = BitSet;
  static constexpr bool kForward = true;
  int nb;

  State boundary() const { return BitSet(nb); }  // entry dominated by itself only (added in transfer)
  State top() const {
    BitSet s(nb);
    s.set_all();
    return s;
  }
  bool join(State& into, const State& from) const { return into.iand(from); }
  void transfer(int block, State& state) const { state.set(block); }
};

// ---------------------------------------------------------------------
// Liveness: backward, union join, use/def per block precomputed into
// arena-backed bit matrices; the transfer is three word-parallel ops.
struct LiveProblem {
  using State = BitSet;
  static constexpr bool kForward = false;
  std::size_t nv;
  BitMatrix use, def;

  LiveProblem(const ir::Function& fn, Arena& arena) : nv(fn.next_vreg) {
    const std::size_t nb = fn.blocks.size();
    use = BitMatrix(nb, nv, arena);
    def = BitMatrix(nb, nv, arena);
    for (std::size_t b = 0; b < nb; ++b) {
      BitRow u = use.row(b);
      BitRow d = def.row(b);
      for (const IrInst& inst : fn.blocks[b].insts) {
        for_each_use(inst, [&](const ir::Value& v) {
          if (v.is_reg() && !d.test(v.reg)) u.set(v.reg);
        });
        if (inst.guard != ir::kNoVReg && !d.test(inst.guard)) {
          u.set(inst.guard);
        }
        const VReg dst = def_of(inst);
        // A guarded def does not kill: the old value may flow through.
        if (dst != ir::kNoVReg && inst.guard == ir::kNoVReg) d.set(dst);
      }
    }
  }

  State boundary() const { return BitSet(nv); }
  State top() const { return BitSet(nv); }
  bool join(State& into, const State& from) const { return into.ior(from); }
  void transfer(int block, State& state) const {
    // live_in = use ∪ (live_out − def)
    state.iandnot(def.row(block));
    state.ior(use.row(block));
  }
};

// ---------------------------------------------------------------------
// Reaching definitions: forward, union join, gen/kill over def sites.
struct ReachProblem {
  using State = BitSet;
  static constexpr bool kForward = true;
  std::size_t ns;
  BitMatrix gen, kill;
  BitSet entry;

  ReachProblem(const ir::Function& fn, const ReachingDefs& rd, Arena& arena)
      : ns(rd.sites.size()) {
    const std::size_t nb = fn.blocks.size();
    gen = BitMatrix(nb, ns, arena);
    kill = BitMatrix(nb, ns, arena);
    entry = BitSet(ns);
    for (VReg v = 1; v < fn.next_vreg; ++v) entry.set(v);

    for (std::size_t s = fn.next_vreg; s < ns; ++s) {
      const auto& site = rd.sites[s];
      const IrInst& inst = fn.blocks[site.block].insts[site.inst];
      BitRow g = gen.row(site.block);
      BitRow k = kill.row(site.block);
      if (inst.guard == ir::kNoVReg) {
        // Unguarded def: kills every other site of the vreg.
        for (int o : rd.sites_of_vreg[site.vreg]) {
          if (static_cast<std::size_t>(o) != s) {
            k.set(o);
            g.reset(o);
          }
        }
      }
      g.set(s);
      k.reset(s);
    }
  }

  State boundary() const { return entry; }
  State top() const { return BitSet(ns); }
  bool join(State& into, const State& from) const { return into.ior(from); }
  void transfer(int block, State& state) const {
    state.iandnot(kill.row(block));
    state.ior(gen.row(block));
  }
};

void append_vreg_set(std::string& out, const BitSet& s) {
  bool first = true;
  for (std::size_t v = 0; v < s.size(); ++v) {
    if (!s.test(v)) continue;
    out += first ? "%" : " %";
    out += std::to_string(v);
    first = false;
  }
  if (first) out += "-";
}

}  // namespace

Dominators compute_dominators(const ir::Function&, const Cfg& cfg) {
  const int nb = cfg.num_blocks();
  DomProblem p{nb};
  auto r = solve(cfg, p);
  Dominators d;
  d.dom = std::move(r.out);
  // Graph-unreachable blocks keep the vacuous all-ones solution; clear
  // them so dominates() queries are never accidentally true.
  for (int b = 0; b < nb; ++b) {
    if (!cfg.reachable[b]) d.dom[b].clear();
  }
  // idom[b]: the dominator of b (≠ b) that is itself dominated by every
  // other dominator of b; by construction it is the strict dominator
  // with the deepest rpo position.
  d.idom.assign(nb, -1);
  for (int b : cfg.rpo) {
    if (b == 0) continue;
    int best = -1;
    for (int a = 0; a < nb; ++a) {
      if (a == b || !d.dom[b].test(a)) continue;
      if (best == -1 || cfg.rpo_index[a] > cfg.rpo_index[best]) best = a;
    }
    d.idom[b] = best;
  }
  return d;
}

std::string Dominators::to_string(const ir::Function& fn) const {
  std::string out = cat("dominators @", fn.name, "\n");
  for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
    out += cat("  .b", b, ": idom=",
               idom[b] < 0 ? std::string("-") : cat(".b", idom[b]), " dom={");
    bool first = true;
    for (std::size_t a = 0; a < dom[b].size(); ++a) {
      if (!dom[b].test(a)) continue;
      out += first ? cat(".b", a) : cat(" .b", a);
      first = false;
    }
    out += "}\n";
  }
  return out;
}

Liveness compute_liveness(const ir::Function& fn, const Cfg& cfg) {
  ArenaScope scope(Arena::scratch());
  LiveProblem p(fn, scope.arena());
  auto r = solve(cfg, p);
  Liveness lv;
  lv.live_in = std::move(r.in);
  lv.live_out = std::move(r.out);
  return lv;
}

Liveness compute_liveness(const ir::Function& fn) {
  return compute_liveness(fn, Cfg::build(fn));
}

std::string Liveness::to_string(const ir::Function& fn) const {
  std::string out = cat("liveness @", fn.name, "\n");
  for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
    out += cat("  .b", b, ": in=");
    append_vreg_set(out, live_in[b]);
    out += " out=";
    append_vreg_set(out, live_out[b]);
    out += "\n";
  }
  return out;
}

ReachingDefs compute_reaching_defs(const ir::Function& fn, const Cfg& cfg) {
  ReachingDefs rd;
  // Synthetic entry sites first so site index == vreg for them.
  rd.sites_of_vreg.assign(fn.next_vreg, {});
  for (VReg v = 0; v < fn.next_vreg; ++v) {
    rd.sites.push_back({-1, -1, v});
    if (v != ir::kNoVReg) rd.sites_of_vreg[v].push_back(static_cast<int>(v));
  }
  for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
    for (std::size_t i = 0; i < fn.blocks[b].insts.size(); ++i) {
      const VReg d = def_of(fn.blocks[b].insts[i]);
      if (d == ir::kNoVReg) continue;
      rd.sites_of_vreg[d].push_back(static_cast<int>(rd.sites.size()));
      rd.sites.push_back(
          {static_cast<int>(b), static_cast<int>(i), d});
    }
  }

  ArenaScope scope(Arena::scratch());
  ReachProblem p(fn, rd, scope.arena());
  auto r = solve(cfg, p);
  rd.reach_in = std::move(r.in);
  rd.reach_out = std::move(r.out);
  return rd;
}

bool ReachingDefs::entry_def_reaches(const ir::Function& fn, int block,
                                     ir::VReg v) const {
  if (v == ir::kNoVReg || v >= fn.next_vreg) return false;
  if (std::find(fn.params.begin(), fn.params.end(), v) != fn.params.end()) {
    return false;
  }
  return reach_in[block].test(v);
}

std::string ReachingDefs::to_string(const ir::Function& fn) const {
  std::string out = cat("reaching-defs @", fn.name, "\n");
  for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
    out += cat("  .b", b, ": in={");
    bool first = true;
    for (std::size_t s = 0; s < sites.size(); ++s) {
      if (!reach_in[b].test(s)) continue;
      const Site& site = sites[s];
      std::string tag = site.block < 0
                            ? cat("entry:%", site.vreg)
                            : cat(".b", site.block, "#", site.inst, ":%",
                                  site.vreg);
      out += first ? tag : cat(" ", tag);
      first = false;
    }
    out += "}\n";
  }
  return out;
}

namespace {

/// Hash-map key identifying the (dst, src) fact of a copy site.
struct CopyFactKey {
  ir::VReg dst = ir::kNoVReg;
  std::uint8_t src_kind = 0;
  std::uint32_t src_payload = 0;

  static CopyFactKey of(ir::VReg dst, const ir::Value& src) {
    CopyFactKey k;
    k.dst = dst;
    k.src_kind = static_cast<std::uint8_t>(src.kind);
    k.src_payload = src.is_reg() ? src.reg
                                 : static_cast<std::uint32_t>(src.imm);
    return k;
  }
  bool operator==(const CopyFactKey&) const = default;
};

struct CopyFactHash {
  std::size_t operator()(const CopyFactKey& k) const {
    std::uint64_t h = kFnvOffset64;
    h = (h ^ k.dst) * kFnvPrime64;
    h = (h ^ k.src_kind) * kFnvPrime64;
    h = (h ^ k.src_payload) * kFnvPrime64;
    return static_cast<std::size_t>(h);
  }
};

using CopyFactMap = std::unordered_map<CopyFactKey, int, CopyFactHash>;

// Available copies: forward, intersection.  Per-block net gen/kill sets
// are precomputed by one walk per block (kill-then-gen per instruction,
// composed exactly like the reaching-defs transfer), so the solver's
// transfer is word-parallel.
struct CopyProblem {
  using State = BitSet;
  static constexpr bool kForward = true;

  std::size_t ns;
  BitMatrix gen, kill;

  CopyProblem(const ir::Function& fn, const AvailableCopies& ac,
              const CopyFactMap& fact_site, Arena& arena)
      : ns(ac.sites.size()) {
    const std::size_t nb = fn.blocks.size();
    gen = BitMatrix(nb, ns, arena);
    kill = BitMatrix(nb, ns, arena);
    // Sites invalidated by a definition of vreg v (dst or register src).
    std::vector<std::vector<int>> killed_by(fn.next_vreg);
    for (std::size_t s = 0; s < ns; ++s) {
      const AvailableCopies::Site& site = ac.sites[s];
      killed_by[site.dst].push_back(static_cast<int>(s));
      if (site.src.is_reg()) {
        killed_by[site.src.reg].push_back(static_cast<int>(s));
      }
    }
    // Linear in defs + sites: only a block's first def of a vreg walks
    // all the vreg's sites. A later def can change only the sites
    // generated since the previous one, which gen_by lists under each
    // vreg the site mentions.
    std::vector<std::size_t> first_def_in(fn.next_vreg, nb);
    std::vector<std::vector<int>> gen_by(fn.next_vreg);
    for (std::size_t b = 0; b < nb; ++b) {
      BitRow g = gen.row(b);
      BitRow k = kill.row(b);
      for (const IrInst& inst : fn.blocks[b].insts) {
        const VReg d = def_of(inst);
        if (d == ir::kNoVReg) continue;
        const bool first = first_def_in[d] != b;
        first_def_in[d] = b;
        for (int s : first ? killed_by[d] : gen_by[d]) {
          k.set(s);
          g.reset(s);
        }
        gen_by[d].clear();
        // Every occurrence of the (dst, src) fact generates the same
        // shared site, so the fact survives an all-paths join even when
        // each path establishes it with a different instruction.
        if (inst.op == ir::IrOp::Mov && inst.guard == ir::kNoVReg) {
          const auto it = fact_site.find(CopyFactKey::of(inst.dst, inst.a));
          if (it != fact_site.end()) {
            g.set(it->second);
            k.reset(it->second);
            const AvailableCopies::Site& site = ac.sites[it->second];
            gen_by[site.dst].push_back(it->second);
            if (site.src.is_reg()) gen_by[site.src.reg].push_back(it->second);
          }
        }
      }
    }
  }

  State boundary() const { return BitSet(ns); }  // entry: nothing yet
  State top() const {
    BitSet s(ns);
    s.set_all();
    return s;
  }
  bool join(State& into, const State& from) const { return into.iand(from); }
  void transfer(int block, State& state) const {
    state.iandnot(kill.row(block));
    state.ior(gen.row(block));
  }
};

}  // namespace

AvailableCopies compute_available_copies(const ir::Function& fn,
                                         const Cfg& cfg) {
  AvailableCopies ac;
  CopyFactMap fact_site;
  for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
    const auto& insts = fn.blocks[b].insts;
    for (std::size_t i = 0; i < insts.size(); ++i) {
      const IrInst& inst = insts[i];
      if (inst.op != ir::IrOp::Mov || inst.guard != ir::kNoVReg) continue;
      // A self-copy carries no information and would kill itself.
      if (inst.a.is_reg() && inst.a.reg == inst.dst) continue;
      // Sites are keyed by the (dst, src) fact, not the instruction:
      // repeats of the same copy share one site (block/inst record the
      // first occurrence).
      const CopyFactKey key = CopyFactKey::of(inst.dst, inst.a);
      if (fact_site.find(key) != fact_site.end()) continue;
      fact_site.emplace(key, static_cast<int>(ac.sites.size()));
      ac.sites.push_back(
          {static_cast<int>(b), static_cast<int>(i), inst.dst, inst.a});
    }
  }

  ArenaScope scope(Arena::scratch());
  CopyProblem p(fn, ac, fact_site, scope.arena());
  auto r = solve(cfg, p);
  ac.avail_in = std::move(r.in);
  ac.avail_out = std::move(r.out);
  // Graph-unreachable blocks keep the vacuous all-ones solution; clear
  // them so callers never seed rewrites from contradictory facts.
  for (int b = 0; b < cfg.num_blocks(); ++b) {
    if (!cfg.reachable[b]) {
      ac.avail_in[b].clear();
      ac.avail_out[b].clear();
    }
  }
  return ac;
}

std::string AvailableCopies::to_string(const ir::Function& fn) const {
  std::string out = cat("available-copies @", fn.name, "\n");
  for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
    out += cat("  .b", b, ": in={");
    bool first = true;
    for (std::size_t s = 0; s < sites.size(); ++s) {
      if (!avail_in[b].test(s)) continue;
      const Site& site = sites[s];
      std::string tag =
          site.src.is_reg()
              ? cat("%", site.dst, "=%", site.src.reg)
              : cat("%", site.dst, "=#", site.src.imm);
      out += first ? tag : cat(" ", tag);
      first = false;
    }
    out += "}\n";
  }
  return out;
}

}  // namespace cepic::analysis
