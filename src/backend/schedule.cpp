// Resource-constrained list scheduling (the core of the elcor role):
// builds the dependence DAG of each block — true/anti/output register
// dependences across all three register files, memory and output-port
// ordering, and control edges that pin branches to the block end — and
// packs operations into MultiOps honouring the Mdes functional-unit
// counts, the issue width, operation latencies, and the register-file
// controller's port budget with forwarding (paper §3.2). Priority is
// critical-path height. Edges come from trackers, not all pairs, and
// ready ops wait in buckets keyed by (FU class, port cost): O(n log n)
// per block, with exactly the all-pairs schedule (DESIGN.md §5.3).
#include <algorithm>
#include <functional>
#include <queue>
#include <set>
#include <span>

#include "backend/backend.hpp"
#include "support/text.hpp"

namespace cepic::backend {

namespace {

constexpr unsigned kClasses = 5;  // FuClass values
constexpr unsigned kCosts = 9;    // port cost <= 6 reads + 2 writes

/// One operation as a flat record. Registers are keys `reg << 2 | file`;
/// each list holds distinct keys.
struct OpRec {
  std::uint32_t reads[6] = {};
  std::uint32_t writes[2] = {};
  std::uint8_t num_reads = 0, num_writes = 0, fu = 0;
  bool ctrl = false;  ///< branch, HALT or barrier: nothing moves across
  bool load = false, store = false, out = false;
  unsigned latency = 0;
  std::span<const std::uint32_t> rd() const { return {reads, num_reads}; }
  std::span<const std::uint32_t> wr() const { return {writes, num_writes}; }
};

bool is_gpr(std::uint32_t key) {
  return (key & 3) == static_cast<std::uint32_t>(RegFile::Gpr);
}

void add_key(std::uint32_t* keys, std::uint8_t& n, RegFile f,
             std::uint32_t reg) {
  const std::uint32_t key = reg << 2 | static_cast<std::uint32_t>(f);
  if (std::find(keys, keys + n, key) == keys + n) keys[n++] = key;
}

OpRec classify(const MInst& mi, const Mdes& mdes) {
  OpRec s;
  const Instruction& inst = mi.inst;
  const OpInfo& info = inst.info();
  const auto read = [&](RegFile f, std::uint32_t r) {
    if (f == RegFile::None) return;
    if ((f == RegFile::Gpr || f == RegFile::Pred) && r == 0) return;  // r0, p0
    add_key(s.reads, s.num_reads, f, r);
  };
  if (inst.src1.is_reg()) read(reg_file(info.src1), inst.src1.reg);
  if (inst.src2.is_reg()) read(reg_file(info.src2), inst.src2.reg);
  if (info.dest1_is_source) read(RegFile::Gpr, inst.dest1);
  if (inst.pred != 0) read(RegFile::Pred, inst.pred);
  if (info.writes_dest1() && !(info.dest1 == RegFile::Gpr && inst.dest1 == 0)) {
    add_key(s.writes, s.num_writes, info.dest1, inst.dest1);
    if (inst.pred != 0) read(info.dest1, inst.dest1);  // guarded def
  }
  if (info.dest2 != RegFile::None && inst.dest2 != 0) {
    add_key(s.writes, s.num_writes, info.dest2, inst.dest2);
    if (inst.pred != 0) read(info.dest2, inst.dest2);
  }
  s.fu = static_cast<std::uint8_t>(info.fu);
  s.ctrl = info.is_branch || inst.op == Op::HALT || mi.is_barrier;
  s.load = info.is_load;
  s.store = info.is_store;
  s.out = inst.op == Op::OUT;
  s.latency = mdes.latency(inst.op);
  return s;
}

struct Edge {
  int op;  ///< the other end
  unsigned delay;
};

}  // namespace

ScheduledFunc schedule_function(const MFunc& fn, const Mdes& mdes,
                                const ProcessorConfig& config, bool schedule,
                                unsigned override_port_budget) {
  ScheduledFunc out;
  out.name = fn.name;
  // By register key, emptied after each block: writers in program order,
  // readers since the last write, and "written in the previous cycle".
  std::vector<std::vector<int>> writers, readers;
  std::vector<char> forwarded;
  const unsigned width = mdes.issue_width();
  const unsigned budget = override_port_budget != 0 ? override_port_budget
                                                    : mdes.reg_port_budget();
  const bool fwd = mdes.forwarding();

  for (const MBlock& block : fn.blocks) {
    ScheduledFunc::Block sblock;
    sblock.label = block.label;

    if (!schedule) {
      for (const MInst& mi : block.insts) {
        sblock.bundles.push_back({{mi.inst, mi.target, {}, 0}});
      }
      out.blocks.push_back(std::move(sblock));
      continue;
    }

    const int n = static_cast<int>(block.insts.size());
    std::vector<OpRec> ops;
    ops.reserve(block.insts.size());
    unsigned max_latency = 0;
    std::uint32_t top = 0;  // largest register key
    for (const MInst& mi : block.insts) {
      const OpRec& o = ops.emplace_back(classify(mi, mdes));
      max_latency = std::max(max_latency, o.latency);
      for (const std::uint32_t k : o.rd()) top = std::max(top, k);
      for (const std::uint32_t k : o.wr()) top = std::max(top, k);
    }
    writers.resize(std::max<std::size_t>(writers.size(), top + 1));
    readers.resize(writers.size());
    forwarded.resize(writers.size());

    // ---- dependence edges, from trackers ----
    std::vector<std::vector<Edge>> succs(n);
    std::vector<int> remaining(n, 0);  // unplaced predecessors
    int j = 0;  // the op whose incoming edges are being added
    const auto edge = [&](int from, unsigned delay) {
      succs[from].push_back({j, delay});
      ++remaining[j];
    };
    int last_store = -1, last_out = -1, last_ctrl = -1;
    std::vector<int> loads, since_ctrl;  // since the last store / ctrl
    for (; j < n; ++j) {
      const OpRec& o = ops[j];
      for (const std::uint32_t k : o.rd()) {
        // RAW from each writer that a later writer does not dominate:
        // writer p reaches p + latency over the WAW chain (>= 1 cycle per
        // link); walking stops once no older writer can reach further.
        const std::vector<int>& w = writers[k];
        long reach = -1;
        for (long p = std::ssize(w) - 1; p >= 0 && p + max_latency > reach;
             --p) {
          if (p + ops[w[p]].latency <= reach) continue;
          reach = p + ops[w[p]].latency;
          edge(w[p], ops[w[p]].latency);
        }
      }
      for (const std::uint32_t k : o.wr()) {
        if (!writers[k].empty()) edge(writers[k].back(), 1);  // WAW
        for (const int r : readers[k]) edge(r, 0);            // WAR
      }
      if ((o.load || o.store) && last_store >= 0) edge(last_store, 1);
      if (o.store) {
        for (const int l : loads) edge(l, 0);
        loads.clear();
        last_store = j;
      }
      if (o.load) loads.push_back(j);
      if (o.out && last_out >= 0) edge(last_out, 1);
      if (o.out) last_out = j;
      if (last_ctrl >= 0) edge(last_ctrl, 1);
      if (o.ctrl) {
        for (const int i : since_ctrl) edge(i, 0);
        since_ctrl.clear();
        last_ctrl = j;
      } else {
        since_ctrl.push_back(j);
      }
      for (const std::uint32_t k : o.rd()) readers[k].push_back(j);
      for (const std::uint32_t k : o.wr()) {
        readers[k].clear();
        writers[k].push_back(j);
      }
    }
    for (const OpRec& o : ops) {
      for (const std::uint32_t k : o.rd()) readers[k].clear();
      for (const std::uint32_t k : o.wr()) writers[k].clear();
    }

    // ---- priorities: critical-path height ----
    std::vector<unsigned> height(n, 0);
    for (int i = n - 1; i >= 0; --i) {
      for (const Edge& e : succs[i]) {
        height[i] = std::max(height[i], height[e.op] + std::max(e.delay, 1u));
      }
    }

    // ---- cycle-by-cycle packing ----
    std::vector<unsigned> earliest(n, 0);
    std::vector<int> slot(n, -1);  // fu * kCosts + port cost; -1: not ready
    std::set<std::uint64_t> ready[kClasses * kCosts];  // key(op), best first
    std::priority_queue<std::pair<unsigned, int>,
                        std::vector<std::pair<unsigned, int>>, std::greater<>>
        held;  // (earliest, op) with every predecessor placed
    const auto key = [&](int i) {
      return std::uint64_t{~height[i]} << 32 | static_cast<std::uint32_t>(i);
    };
    // (Re)files op i under its port cost against the previous cycle.
    const auto make_ready = [&](int i) {
      unsigned c = 0;
      for (const std::uint32_t k : ops[i].rd()) c += is_gpr(k) && !forwarded[k];
      for (const std::uint32_t k : ops[i].wr()) c += is_gpr(k);
      if (slot[i] >= 0) ready[slot[i]].erase(key(i));
      slot[i] = static_cast<int>(ops[i].fu * kCosts + c);
      ready[slot[i]].insert(key(i));
    };
    const auto mark_forwarded = [&](const std::vector<int>& bundle, char on) {
      for (const int i : bundle) {
        for (const std::uint32_t k : ops[i].wr()) forwarded[k] = on;
      }
    };
    for (int i = 0; i < n; ++i) {
      if (remaining[i] == 0) held.push({0, i});
    }
    std::vector<int> last;  // the previous cycle's bundle
    for (unsigned cycle = 0, scheduled = 0; scheduled < ops.size(); ++cycle) {
      CEPIC_CHECK(cycle < 1000000u,
                  cat("scheduler failed to make progress in @", fn.name,
                      " block ", block.label));
      std::vector<asmtool::Listing::Op> bundle;
      std::vector<int> placed;
      unsigned used[kClasses] = {};
      unsigned ports = 0;
      while (placed.size() < width) {
        // Zero-delay successors of this cycle's picks join mid-cycle.
        for (; !held.empty() && held.top().first <= cycle; held.pop()) {
          make_ready(held.top().second);
        }
        // Within a cycle a bucket that does not fit never fits again, so
        // the best op is among the heads of the buckets that still fit.
        std::uint64_t best = ~std::uint64_t{0};
        for (unsigned fu = 0; fu < kClasses; ++fu) {
          const auto cls = static_cast<FuClass>(fu);
          if (cls != FuClass::None && used[fu] >= mdes.units(cls)) continue;
          for (unsigned c = 0; c < kCosts && ports + c <= budget; ++c) {
            const std::set<std::uint64_t>& b = ready[fu * kCosts + c];
            if (!b.empty()) best = std::min(best, *b.begin());
          }
        }
        if (best == ~std::uint64_t{0}) break;
        const int i = static_cast<int>(best & 0xFFFFFFFFu);
        ready[slot[i]].erase(best);
        ports += slot[i] % kCosts;
        slot[i] = -1;
        placed.push_back(i);
        bundle.push_back({block.insts[i].inst, block.insts[i].target, {}, 0});
        ++scheduled;
        ++used[ops[i].fu];
        for (const Edge& e : succs[i]) {
          earliest[e.op] = std::max(earliest[e.op], cycle + e.delay);
          if (--remaining[e.op] == 0) held.push({earliest[e.op], e.op});
        }
      }

      // Latency gaps become explicit empty (all-NOP) bundles: fetching a
      // NOP bundle costs the same cycle the scoreboard stall would have,
      // and it keeps bundle index == issue cycle within the block — the
      // invariant mcheck's port-budget and latency rules verify.
      sblock.bundles.push_back(std::move(bundle));
      if (!fwd) continue;
      // The next cycle forwards this bundle's writes. A ready op reads a
      // register whose forwarding changes only if it succeeds one of the
      // last two bundles, so only those ops are refiled.
      mark_forwarded(last, 0);
      mark_forwarded(placed, 1);
      for (const std::vector<int>* group : {&placed, &last}) {
        for (const int i : *group) {
          for (const Edge& e : succs[i]) {
            if (slot[e.op] >= 0) make_ready(e.op);
          }
        }
      }
      last = std::move(placed);
    }
    mark_forwarded(last, 0);

    out.blocks.push_back(std::move(sblock));
  }
  (void)config;
  return out;
}

}  // namespace cepic::backend
