// Resource-constrained list scheduling (the core of the elcor role):
// builds the dependence DAG of each block — true/anti/output register
// dependences across all three register files, memory and output-port
// ordering, and control edges that pin branches to the block end — and
// packs operations into MultiOps honouring the Mdes functional-unit
// counts, the issue width, operation latencies, and the register-file
// controller's port budget with forwarding (paper §3.2). Priority is
// critical-path height. Edges come from trackers, not all pairs: per
// register, its last writer and its readers since, as lists threaded
// through the ops. They sit in one flat array grouped by tail (CSR).
// Ready ops wait in 45 flat min-heaps keyed by (FU class, port cost),
// with lazy deletion and a per-class mask of non-empty heaps. No node
// container is left, and the working arrays are one set per thread,
// reused from call to call, block to block and cycle to cycle.
// O(n log n) per block, with exactly the all-pairs schedule (DESIGN.md
// §5.3).
#include <algorithm>
#include <bit>
#include <functional>
#include <limits>
#include <span>
#include <utility>

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
  /// The register trackers' lists, threaded through the ops: the
  /// previous writer of writes[w] and the previous reader of reads[r]
  /// since that register's last write (-1: none).
  int prev_writer[2] = {-1, -1};
  int prev_reader[6] = {-1, -1, -1, -1, -1, -1};
  std::span<const std::uint32_t> rd() const { return {reads, num_reads}; }
  std::span<const std::uint32_t> wr() const { return {writes, num_writes}; }
  int prev_writer_of(std::uint32_t key) const {
    return prev_writer[writes[0] == key ? 0 : 1];
  }
  int prev_reader_of(std::uint32_t key) const {
    return prev_reader[std::find(reads, reads + num_reads, key) - reads];
  }
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

constexpr std::uint64_t kNoKey = ~std::uint64_t{0};

/// The list scheduler and its working arrays. Each block sizes and
/// resets what it uses, so one instance per thread serves every block
/// of every call: a large block's arrays are allocated once, not freed
/// back to the system and faulted in again on the next call.
struct Scheduler {
  ScheduledFunc run(const MFunc& fn, const Mdes& mdes, bool schedule,
                    unsigned override_port_budget);

  // By register key: its last writer, its last reader since that write
  // (each the head of a list through OpRec), and "written in the
  // previous cycle".
  std::vector<int> last_writer, last_reader;
  std::vector<char> forwarded;
  std::vector<OpRec> ops;
  std::vector<Edge> in_edges;  // by head, in program order; Edge::op = tail
  std::vector<int> in_start;   // head j's edges: [in_start[j], in_start[j+1])
  std::vector<Edge> succs;     // by tail; Edge::op = head
  std::vector<int> succ_start, fill;
  std::vector<int> remaining;  // unplaced predecessors
  std::vector<int> loads, since_ctrl;  // since the last store / ctrl
  std::vector<unsigned> height, earliest;
  std::vector<int> slot;  // fu * kCosts + port cost; -1: not ready
  // Ready ops by slot: min-heaps of key(op), best first. An entry is live
  // while slot[op] names its heap; a refiled op leaves a dead entry
  // behind, dropped when it reaches the top.
  std::vector<std::uint64_t> ready[kClasses * kCosts];
  // Min-heap of (earliest, op) with every predecessor placed.
  std::vector<std::pair<unsigned, int>> held;
  std::vector<int> placed, last;  // this cycle's and the previous bundle
};

ScheduledFunc Scheduler::run(const MFunc& fn, const Mdes& mdes,
                             bool schedule, unsigned override_port_budget) {
  ScheduledFunc out;
  out.name = fn.name;
  out.blocks.reserve(fn.blocks.size());
  const unsigned width = mdes.issue_width();
  const unsigned budget = override_port_budget != 0 ? override_port_budget
                                                    : mdes.reg_port_budget();
  const bool fwd = mdes.forwarding();
  unsigned units[kClasses];  // free units per class; None is unbounded
  for (unsigned fu = 0; fu < kClasses; ++fu) {
    const auto cls = static_cast<FuClass>(fu);
    units[fu] = cls == FuClass::None ? width : mdes.units(cls);
  }

  // Bit c of nonempty[fu]: heap fu * kCosts + c may hold a live entry.
  unsigned nonempty[kClasses] = {};

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
    ops.clear();
    unsigned max_latency = 0;
    std::uint32_t top = 0;  // largest register key
    for (const MInst& mi : block.insts) {
      const OpRec& o = ops.emplace_back(classify(mi, mdes));
      max_latency = std::max(max_latency, o.latency);
      for (const std::uint32_t k : o.rd()) top = std::max(top, k);
      for (const std::uint32_t k : o.wr()) top = std::max(top, k);
    }
    last_writer.assign(top + 1, -1);
    last_reader.assign(top + 1, -1);
    forwarded.assign(top + 1, 0);

    // ---- dependence edges, from trackers ----
    in_edges.clear();
    in_start.assign(n + 1, 0);
    succ_start.assign(n + 1, 0);  // out-degrees, shifted by one
    const auto edge = [&](int from, unsigned delay) {
      in_edges.push_back({from, delay});
      ++succ_start[from + 1];
    };
    int last_store = -1, last_out = -1, last_ctrl = -1;
    loads.clear();
    since_ctrl.clear();
    for (int j = 0; j < n; ++j) {
      in_start[j] = static_cast<int>(in_edges.size());
      OpRec& o = ops[j];
      for (const std::uint32_t k : o.rd()) {
        // RAW from each writer that a later writer does not dominate:
        // walking back along the WAW chain, the writer p links back
        // reaches p + latency (>= 1 cycle per link); the walk stops once
        // no older writer can reach further.
        long reach = std::numeric_limits<long>::min();
        for (long p = 0, w = last_writer[k]; w >= 0 && p + max_latency > reach;
             --p, w = ops[w].prev_writer_of(k)) {
          if (p + ops[w].latency <= reach) continue;
          reach = p + ops[w].latency;
          edge(static_cast<int>(w), ops[w].latency);
        }
      }
      for (const std::uint32_t k : o.wr()) {
        if (last_writer[k] >= 0) edge(last_writer[k], 1);  // WAW
        for (int r = last_reader[k]; r >= 0; r = ops[r].prev_reader_of(k)) {
          edge(r, 0);  // WAR
        }
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
      for (unsigned r = 0; r < o.num_reads; ++r) {
        o.prev_reader[r] = std::exchange(last_reader[o.reads[r]], j);
      }
      for (unsigned w = 0; w < o.num_writes; ++w) {
        last_reader[o.writes[w]] = -1;
        o.prev_writer[w] = std::exchange(last_writer[o.writes[w]], j);
      }
    }
    in_start[n] = static_cast<int>(in_edges.size());
    // Regroup by tail, each tail's successors in program order.
    for (int i = 0; i < n; ++i) succ_start[i + 1] += succ_start[i];
    fill.assign(succ_start.begin(), succ_start.end() - 1);
    succs.resize(in_edges.size());
    remaining.resize(n);
    for (int j = 0; j < n; ++j) {
      remaining[j] = in_start[j + 1] - in_start[j];
      for (int e = in_start[j]; e < in_start[j + 1]; ++e) {
        succs[fill[in_edges[e].op]++] = {j, in_edges[e].delay};
      }
    }
    const auto succs_of = [&](int i) {
      return std::span<const Edge>(succs.data() + succ_start[i],
                                   succs.data() + succ_start[i + 1]);
    };

    // ---- priorities: critical-path height ----
    height.assign(n, 0);
    for (int i = n - 1; i >= 0; --i) {
      for (const Edge& e : succs_of(i)) {
        height[i] = std::max(height[i], height[e.op] + std::max(e.delay, 1u));
      }
    }

    // ---- cycle-by-cycle packing ----
    earliest.assign(n, 0);
    slot.assign(n, -1);
    for (std::vector<std::uint64_t>& r : ready) r.clear();
    std::fill(std::begin(nonempty), std::end(nonempty), 0u);
    held.clear();
    last.clear();
    const auto release = [&](unsigned at, int i) {
      held.emplace_back(at, i);
      std::push_heap(held.begin(), held.end(), std::greater<>{});
    };
    const auto key = [&](int i) {
      return std::uint64_t{~height[i]} << 32 | static_cast<std::uint32_t>(i);
    };
    // (Re)files op i under its port cost against the previous cycle.
    const auto make_ready = [&](int i) {
      unsigned c = 0;
      for (const std::uint32_t k : ops[i].rd()) c += is_gpr(k) && !forwarded[k];
      for (const std::uint32_t k : ops[i].wr()) c += is_gpr(k);
      const int s = static_cast<int>(ops[i].fu * kCosts + c);
      if (slot[i] == s) return;
      slot[i] = s;
      ready[s].push_back(key(i));
      std::push_heap(ready[s].begin(), ready[s].end(), std::greater<>{});
      nonempty[ops[i].fu] |= 1u << c;
    };
    // Drops the top entry of heap s.
    const auto pop = [&](unsigned s) {
      std::vector<std::uint64_t>& r = ready[s];
      std::pop_heap(r.begin(), r.end(), std::greater<>{});
      r.pop_back();
    };
    // The best live key of heap s (kNoKey when it has none).
    const auto head = [&](unsigned s) {
      const std::vector<std::uint64_t>& r = ready[s];
      const auto live = [&] {
        return slot[r.front() & 0xFFFFFFFFu] == static_cast<int>(s);
      };
      while (!r.empty() && !live()) pop(s);
      if (!r.empty()) return r.front();
      nonempty[s / kCosts] &= ~(1u << s % kCosts);
      return kNoKey;
    };
    const auto mark_forwarded = [&](const std::vector<int>& bundle, char on) {
      for (const int i : bundle) {
        for (const std::uint32_t k : ops[i].wr()) forwarded[k] = on;
      }
    };
    for (int i = 0; i < n; ++i) {
      if (remaining[i] == 0) release(0, i);
    }
    for (unsigned cycle = 0, scheduled = 0; scheduled < ops.size(); ++cycle) {
      CEPIC_CHECK(cycle < 1000000u,
                  cat("scheduler failed to make progress in @", fn.name,
                      " block ", block.label));
      std::vector<asmtool::Listing::Op> bundle;
      placed.clear();
      unsigned used[kClasses] = {};
      unsigned ports = 0;
      while (placed.size() < width) {
        // Zero-delay successors of this cycle's picks join mid-cycle.
        while (!held.empty() && held.front().first <= cycle) {
          make_ready(held.front().second);
          std::pop_heap(held.begin(), held.end(), std::greater<>{});
          held.pop_back();
        }
        // Within a cycle a heap that does not fit never fits again, so
        // the best op is among the heads of the heaps that still fit:
        // a free unit of its class, and a port cost c <= budget - ports.
        std::uint64_t best = kNoKey;
        for (unsigned fu = 0; fu < kClasses; ++fu) {
          if (used[fu] >= units[fu]) continue;
          unsigned fits = nonempty[fu];
          if (budget - ports < kCosts - 1) fits &= (2u << (budget - ports)) - 1;
          for (; fits != 0; fits &= fits - 1) {
            best = std::min(best, head(fu * kCosts + std::countr_zero(fits)));
          }
        }
        if (best == kNoKey) break;
        const int i = static_cast<int>(best & 0xFFFFFFFFu);
        pop(slot[i]);  // best is its top
        ports += slot[i] % kCosts;
        slot[i] = -1;
        placed.push_back(i);
        if (bundle.empty()) bundle.reserve(width);
        bundle.emplace_back(block.insts[i].inst, block.insts[i].target);
        ++scheduled;
        ++used[ops[i].fu];
        for (const Edge& e : succs_of(i)) {
          earliest[e.op] = std::max(earliest[e.op], cycle + e.delay);
          if (--remaining[e.op] == 0) release(earliest[e.op], e.op);
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
          for (const Edge& e : succs_of(i)) {
            if (slot[e.op] >= 0) make_ready(e.op);
          }
        }
      }
      std::swap(last, placed);
    }

    out.blocks.push_back(std::move(sblock));
  }
  return out;
}

thread_local Scheduler scheduler;

}  // namespace

ScheduledFunc schedule_function(const MFunc& fn, const Mdes& mdes,
                                const ProcessorConfig& config, bool schedule,
                                unsigned override_port_budget) {
  (void)config;
  return scheduler.run(fn, mdes, schedule, override_port_budget);
}

}  // namespace cepic::backend
