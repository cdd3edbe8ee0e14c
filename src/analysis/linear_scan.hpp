// Liveness-driven linear-scan register allocation, shared by the EPIC
// back end (backend/regalloc.cpp) and the SA-110 baseline
// (sarm/codegen.cpp). The two allocate the same way and differ only
// where the machines do; each says how through a target adapter:
//
//   using Inst = ...;                          // the block element type
//   static constexpr unsigned kFrameImmBits;   // width of sp adjustments
//   // Call fn(RegRef) for every register operand of `inst`, in a fixed
//   // order: spill temps are numbered in it, and temp numbers break
//   // ties between live ranges that start together.
//   template <typename Fn> void for_each_ref(Inst& inst, Fn&& fn) const;
//   bool is_call(const Inst& inst) const;      // clobbers every register
//   Inst reload(std::uint32_t temp, std::int32_t offset) const;
//   // The store of `temp` after `def`, under def's guard or condition.
//   Inst spill(std::uint32_t temp, std::int32_t offset, const Inst& def) const;
//   void patch_frame(Inst& inst, std::int32_t total) const;
//   std::string no_convergence() const;        // the error text
//
// plus one RegFileSpec per register file. The function type needs
// `name`, `blocks[b].insts`, `succs` and `frame_bytes`.
//
// Each round numbers the instructions in layout order (one gap after
// each block) and, file by file:
//  1. computes liveness through analysis::solve and gives every virtual
//     register one live range [first, last] position;
//  2. in a file that can spill, spills every range that strictly
//     crosses a call (all registers are caller-save);
//  3. scans the ranges by start (ties by id). A freed register goes to
//     the back of a FIFO queue, so short-lived neighbours land in
//     distinct registers and the EPIC scheduler sees no false WAW/WAR
//     dependences between them. Under pressure the active range that
//     ends furthest away is spilled (or the new one, if it ends later);
//     a file that cannot spill throws its exhaustion error instead.
// Any spill rewrites the code (a reload before each read, a store after
// each write, one fresh temp per instruction) and starts a new round.
// When no file spills, virtual registers are replaced by physical ones
// and the frame is finalised: [0,4) return address, [4, 4+frame_bytes)
// locals, then one 4-byte slot per spilled register. Its total must fit
// the targets' sp-adjustment immediates.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/cfg.hpp"
#include "analysis/dataflow.hpp"
#include "support/bits.hpp"
#include "support/error.hpp"
#include "support/text.hpp"

namespace cepic::analysis {

/// Register ids at or above this are virtual (numbered per file).
inline constexpr std::uint32_t kVirtBase = 0x10000;

inline constexpr bool is_virtual(std::uint32_t reg) { return reg >= kVirtBase; }
inline constexpr std::uint32_t virt_id(std::uint32_t reg) {
  return reg - kVirtBase;
}
inline constexpr std::uint32_t virt_reg(std::uint32_t id) {
  return id + kVirtBase;
}

/// One register operand of a machine instruction.
struct RegRef {
  unsigned file = 0;               ///< index into the RegFileSpec list
  std::uint32_t* slot = nullptr;   ///< the operand, rewritten in place
  bool is_def = false;
  bool guarded = false;  ///< a def that may not happen reads the old value
};

/// One register file as the allocator sees it.
struct RegFileSpec {
  std::vector<std::uint32_t> regs;    ///< allocatable, in first-use order
  std::uint32_t* num_virt = nullptr;  ///< the function's virtual count
  /// Null for a file that spills; otherwise the error text when its
  /// registers run out (given the function name).
  std::string (*exhausted)(const std::string& fn_name) = nullptr;
};

/// Allocates `fn`'s virtual registers in place:
/// `LinearScan(fn, target, files).run()`.
template <typename Func, typename Target>
class LinearScan {
 public:
  LinearScan(Func& fn, const Target& target,
             const std::vector<RegFileSpec>& files)
      : fn_(fn), t_(target), files_(files), cfg_(Cfg::build(fn.succs)) {}

  void run() {
    for (int round = 0; round < kMaxRounds; ++round) {
      if (allocate_once()) {
        finish_frame();
        return;
      }
    }
    throw Error(t_.no_convergence());
  }

 private:
  using Inst = typename Target::Inst;
  static constexpr int kMaxRounds = 24;

  struct LiveRange {
    std::uint32_t vid = 0;
    int start = -1;
    int end = -1;
  };

  // Backward union liveness; use/def rows live in the scratch arena.
  struct LiveProblem {
    using State = BitSet;
    static constexpr bool kForward = false;
    std::size_t nv;
    BitMatrix use, def;

    State boundary() const { return BitSet(nv); }
    State top() const { return BitSet(nv); }
    bool join(State& into, const State& from) const { return into.ior(from); }
    void transfer(int block, State& state) const {
      state.iandnot(def.row(block));
      state.ior(use.row(block));
    }
  };

  template <typename Fn>
  static void for_each_bit(const BitSet& set, Fn&& fn) {
    for (std::size_t w = 0; w < set.num_words(); ++w) {
      for (std::uint64_t bits = set.words()[w]; bits != 0; bits &= bits - 1) {
        fn(static_cast<std::uint32_t>(64 * w + std::countr_zero(bits)));
      }
    }
  }

  /// True when every file got registers; false after spilling.
  bool allocate_once() {
    number_positions();
    std::vector<std::vector<std::uint32_t>> assignment(files_.size());
    for (unsigned f = 0; f < files_.size(); ++f) {
      std::vector<LiveRange> ranges = live_ranges(f);
      std::set<std::uint32_t> spills;
      if (files_[f].exhausted == nullptr) spills = call_crossing(ranges);
      if (spills.empty()) spills = scan(f, ranges, assignment[f]);
      if (!spills.empty()) {
        rewrite_spills(f, spills);
        return false;
      }
    }
    for_each_inst([&](Inst& inst) {
      t_.for_each_ref(inst, [&](const RegRef& r) {
        if (is_virtual(*r.slot)) *r.slot = assignment[r.file][virt_id(*r.slot)];
      });
    });
    return true;
  }

  template <typename Fn>
  void for_each_inst(Fn&& fn) {
    for (auto& block : fn_.blocks) {
      for (Inst& inst : block.insts) fn(inst);
    }
  }

  void number_positions() {
    const std::size_t nb = fn_.blocks.size();
    block_start_.resize(nb);
    block_end_.resize(nb);
    calls_.clear();
    int p = 0;
    for (std::size_t b = 0; b < nb; ++b) {
      block_start_[b] = p;
      for (const Inst& inst : fn_.blocks[b].insts) {
        if (t_.is_call(inst)) calls_.push_back(p);
        ++p;
      }
      block_end_[b] = p;  // one past the last instruction
      ++p;                // the gap between blocks
    }
  }

  /// The live ranges of file f's virtual registers, unused ones dropped.
  std::vector<LiveRange> live_ranges(unsigned f) {
    const std::uint32_t nv = *files_[f].num_virt;
    const std::size_t nb = fn_.blocks.size();
    std::vector<LiveRange> ranges(nv);
    for (std::uint32_t v = 0; v < nv; ++v) ranges[v].vid = v;
    const auto extend = [&](std::uint32_t v, int p) {
      LiveRange& r = ranges[v];
      if (r.start < 0 || p < r.start) r.start = p;
      if (p > r.end) r.end = p;
    };

    ArenaScope scope(Arena::scratch());
    LiveProblem problem{nv, BitMatrix(nb, nv, scope.arena()),
                        BitMatrix(nb, nv, scope.arena())};
    for (std::size_t b = 0; b < nb; ++b) {
      BitRow use = problem.use.row(b);
      BitRow def = problem.def.row(b);
      int p = block_start_[b];
      for (Inst& inst : fn_.blocks[b].insts) {
        t_.for_each_ref(inst, [&](const RegRef& r) {
          if (r.file != f || !is_virtual(*r.slot)) return;
          const std::uint32_t v = virt_id(*r.slot);
          extend(v, p);
          if (r.is_def && !r.guarded) {
            def.set(v);
          } else if (!def.test(v)) {
            use.set(v);
          }
        });
        ++p;
      }
    }
    const DataflowResult<BitSet> live = solve(cfg_, problem);
    for (std::size_t b = 0; b < nb; ++b) {
      const int start = block_start_[b];
      const int end = block_end_[b];
      for_each_bit(live.in[b], [&](std::uint32_t v) { extend(v, start); });
      for_each_bit(live.out[b], [&](std::uint32_t v) { extend(v, end); });
    }
    std::erase_if(ranges, [](const LiveRange& r) { return r.start < 0; });
    return ranges;
  }

  std::set<std::uint32_t> call_crossing(const std::vector<LiveRange>& ranges) {
    std::set<std::uint32_t> spills;
    for (const LiveRange& r : ranges) {
      const auto call = std::upper_bound(calls_.begin(), calls_.end(), r.start);
      if (call != calls_.end() && *call < r.end) spills.insert(r.vid);
    }
    return spills;
  }

  /// Linear scan over file f. Returns the ranges to spill; when there
  /// are none, `assignment` maps every virtual id to its register.
  std::set<std::uint32_t> scan(unsigned f, std::vector<LiveRange>& ranges,
                               std::vector<std::uint32_t>& assignment) {
    std::sort(ranges.begin(), ranges.end(),
              [](const LiveRange& a, const LiveRange& b) {
                return a.start < b.start ||
                       (a.start == b.start && a.vid < b.vid);
              });
    const RegFileSpec& spec = files_[f];
    std::deque<std::uint32_t> free(spec.regs.begin(), spec.regs.end());
    struct Active {
      int end;
      std::uint32_t vid;
      std::uint32_t phys;
    };
    std::vector<Active> active;  // in allocation order
    std::set<std::uint32_t> spills;
    assignment.assign(*spec.num_virt, 0);

    for (const LiveRange& r : ranges) {
      std::erase_if(active, [&](const Active& a) {
        if (a.end >= r.start) return false;
        free.push_back(a.phys);
        return true;
      });
      if (!free.empty()) {
        assignment[r.vid] = free.front();
        active.push_back({r.end, r.vid, free.front()});
        free.pop_front();
        continue;
      }
      if (spec.exhausted != nullptr) throw Error(spec.exhausted(fn_.name));
      const auto victim = std::max_element(
          active.begin(), active.end(),
          [](const Active& a, const Active& b) { return a.end < b.end; });
      if (victim != active.end() && victim->end > r.end) {
        spills.insert(victim->vid);
        assignment[r.vid] = victim->phys;
        const Active taken{r.end, r.vid, victim->phys};
        active.erase(victim);
        active.push_back(taken);
      } else {
        spills.insert(r.vid);
      }
    }
    return spills;
  }

  std::uint32_t frame_total() const {
    return 4 + fn_.frame_bytes + 4 * static_cast<std::uint32_t>(slots_.size());
  }

  /// A spilled register's frame offset; a new slot goes at the end.
  std::int32_t slot_of(unsigned f, std::uint32_t vid) {
    const auto [it, fresh] = slots_.try_emplace({f, vid}, frame_total());
    return static_cast<std::int32_t>(it->second);
  }

  void rewrite_spills(unsigned f, const std::set<std::uint32_t>& to_spill) {
    for (std::uint32_t vid : to_spill) slot_of(f, vid);
    struct Temp {
      std::uint32_t vid;
      std::uint32_t reg;
      bool read = false;
      bool written = false;
    };
    std::vector<Temp> temps;
    for (auto& block : fn_.blocks) {
      std::vector<Inst> old = std::move(block.insts);
      block.insts.clear();
      block.insts.reserve(old.size());
      for (Inst& inst : old) {
        temps.clear();
        t_.for_each_ref(inst, [&](const RegRef& r) {
          if (r.file != f || !is_virtual(*r.slot) ||
              to_spill.count(virt_id(*r.slot)) == 0) {
            return;
          }
          const std::uint32_t vid = virt_id(*r.slot);
          auto it = std::find_if(temps.begin(), temps.end(),
                                 [vid](const Temp& t) { return t.vid == vid; });
          if (it == temps.end()) {
            temps.push_back({vid, virt_reg((*files_[f].num_virt)++)});
            it = temps.end() - 1;
          }
          *r.slot = it->reg;
          it->written |= r.is_def;
          it->read |= !r.is_def || r.guarded;
        });
        std::sort(temps.begin(), temps.end(),
                  [](const Temp& a, const Temp& b) { return a.vid < b.vid; });
        for (const Temp& t : temps) {
          if (!t.read) continue;
          block.insts.push_back(t_.reload(t.reg, slot_of(f, t.vid)));
        }
        block.insts.push_back(std::move(inst));
        const std::size_t def = block.insts.size() - 1;
        for (const Temp& t : temps) {
          if (!t.written) continue;
          Inst store = t_.spill(t.reg, slot_of(f, t.vid), block.insts[def]);
          block.insts.push_back(std::move(store));
        }
      }
    }
  }

  void finish_frame() {
    const std::uint32_t total = frame_total();
    if (!fits_signed(total, Target::kFrameImmBits)) {
      throw Error(cat("frame of @", fn_.name, " too large: ", total));
    }
    for_each_inst([&](Inst& inst) {
      t_.patch_frame(inst, static_cast<std::int32_t>(total));
    });
  }

  Func& fn_;
  const Target& t_;
  const std::vector<RegFileSpec>& files_;
  const Cfg cfg_;
  std::vector<int> block_start_, block_end_;
  std::vector<int> calls_;  ///< call positions, ascending
  std::map<std::pair<unsigned, std::uint32_t>, std::uint32_t> slots_;
};

}  // namespace cepic::analysis
