// Register allocation: liveness-driven linear scan over each register
// file. All registers are caller-save in the CEPIC ABI, so any virtual
// GPR live across a call is spilled to a frame slot; GPR pressure spills
// pick the interval with the furthest end. Predicate/BTR files cannot be
// spilled — exhaustion is reported as a configuration problem (the
// paper's parameters trade register-file size against area, and the
// compiler must tell the designer when a customisation is too small).
#include <algorithm>
#include <map>
#include <set>

#include "backend/backend.hpp"
#include "support/bits.hpp"
#include "support/text.hpp"

namespace cepic::backend {

namespace {

struct RegRef {
  RegFile file = RegFile::None;
  std::uint32_t* slot = nullptr;
  bool is_def = false;
  bool guarded = false;  ///< guarded defs do not kill liveness
};

/// Collect every register reference in an instruction (reads and
/// writes), with pointers so callers can rewrite in place.
std::vector<RegRef> reg_refs(Instruction& inst) {
  const OpInfo& info = inst.info();
  std::vector<RegRef> refs;
  const bool guarded = inst.pred != 0;

  if (inst.src1.is_reg() && reg_file(info.src1) != RegFile::None) {
    refs.push_back({reg_file(info.src1), &inst.src1.reg, false, false});
  }
  if (inst.src2.is_reg() && reg_file(info.src2) != RegFile::None) {
    refs.push_back({reg_file(info.src2), &inst.src2.reg, false, false});
  }
  if (info.dest1_is_source) {
    refs.push_back({RegFile::Gpr, &inst.dest1, false, false});
  } else if (info.dest1 != RegFile::None) {
    refs.push_back({info.dest1, &inst.dest1, true, guarded});
  }
  if (info.dest2 != RegFile::None) {
    refs.push_back({info.dest2, &inst.dest2, true, guarded});
  }
  if (inst.pred != 0) {
    refs.push_back({RegFile::Pred, &inst.pred, false, false});
  }
  return refs;
}

constexpr std::size_t file_index(RegFile f) {
  return static_cast<std::size_t>(f);
}

struct Interval {
  std::uint32_t vid = 0;
  int start = -1;
  int end = -1;
  bool crosses_call = false;
};

class Allocator {
public:
  Allocator(MFunc& fn, const ProcessorConfig& config)
      : fn_(fn), config_(config) {}

  void run() {
    if (config_.num_gprs <= CallConv::first_allocatable() + 1) {
      throw Error(cat("cannot allocate @", fn_.name,
                      ": configuration has only ", config_.num_gprs,
                      " GPRs; the CEPIC ABI reserves r0-r11, so at least ",
                      CallConv::first_allocatable() + 2, " are required"));
    }
    for (int iteration = 0; iteration < 24; ++iteration) {
      if (try_allocate()) {
        patch_frame();
        return;
      }
      // try_allocate() queued spills and rewrote code; go again.
    }
    throw Error(cat("register allocation did not converge in @", fn_.name));
  }

private:
  // ---- positions ----

  void number_positions() {
    pos_start_.assign(fn_.blocks.size(), 0);
    pos_end_.assign(fn_.blocks.size(), 0);
    int p = 0;
    call_positions_.clear();
    for (std::size_t b = 0; b < fn_.blocks.size(); ++b) {
      pos_start_[b] = p;
      for (MInst& mi : fn_.blocks[b].insts) {
        if (mi.inst.op == Op::BRL) call_positions_.push_back(p);
        ++p;
      }
      pos_end_[b] = p;  // one past the last inst
      ++p;              // gap between blocks
    }
  }

  // ---- liveness over virtual registers of one file ----

  std::vector<std::vector<bool>> live_in_, live_out_;

  void compute_liveness(RegFile file, std::uint32_t num_virt) {
    const std::size_t nb = fn_.blocks.size();
    live_in_.assign(nb, std::vector<bool>(num_virt, false));
    live_out_.assign(nb, std::vector<bool>(num_virt, false));
    std::vector<std::vector<bool>> use(nb, std::vector<bool>(num_virt, false));
    std::vector<std::vector<bool>> def(nb, std::vector<bool>(num_virt, false));

    for (std::size_t b = 0; b < nb; ++b) {
      for (MInst& mi : fn_.blocks[b].insts) {
        for (const RegRef& r : reg_refs(mi.inst)) {
          if (r.file != file || !is_virtual(*r.slot)) continue;
          const std::uint32_t v = virt_id(*r.slot);
          if (!r.is_def) {
            if (!def[b][v]) use[b][v] = true;
          } else if (!r.guarded) {
            def[b][v] = true;
          } else if (!def[b][v]) {
            use[b][v] = true;  // guarded def reads-through
          }
        }
      }
    }
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::size_t b = nb; b-- > 0;) {
        for (int s : fn_.succs[b]) {
          for (std::uint32_t v = 0; v < num_virt; ++v) {
            if (live_in_[s][v] && !live_out_[b][v]) {
              live_out_[b][v] = true;
              changed = true;
            }
          }
        }
        for (std::uint32_t v = 0; v < num_virt; ++v) {
          const bool want = use[b][v] || (live_out_[b][v] && !def[b][v]);
          if (want && !live_in_[b][v]) {
            live_in_[b][v] = true;
            changed = true;
          }
        }
      }
    }
  }

  std::vector<Interval> build_intervals(RegFile file, std::uint32_t num_virt) {
    compute_liveness(file, num_virt);
    std::vector<Interval> iv(num_virt);
    for (std::uint32_t v = 0; v < num_virt; ++v) iv[v].vid = v;
    const auto extend = [&](std::uint32_t v, int p) {
      Interval& i = iv[v];
      if (i.start < 0 || p < i.start) i.start = p;
      if (p > i.end) i.end = p;
    };
    for (std::size_t b = 0; b < fn_.blocks.size(); ++b) {
      for (std::uint32_t v = 0; v < num_virt; ++v) {
        if (live_in_[b][v]) extend(v, pos_start_[b]);
        if (live_out_[b][v]) extend(v, pos_end_[b]);
      }
      int p = pos_start_[b];
      for (MInst& mi : fn_.blocks[b].insts) {
        for (const RegRef& r : reg_refs(mi.inst)) {
          if (r.file == file && is_virtual(*r.slot)) extend(virt_id(*r.slot), p);
        }
        ++p;
      }
    }
    for (Interval& i : iv) {
      if (i.start < 0) continue;
      for (int cp : call_positions_) {
        if (i.start < cp && cp < i.end) {
          i.crosses_call = true;
          break;
        }
      }
    }
    return iv;
  }

  // ---- linear scan for one file ----

  /// Returns the virtual ids that must be spilled (GPR only); empty on
  /// success, in which case `assignment` holds vid -> physical index.
  std::set<std::uint32_t> scan_file(RegFile file, std::uint32_t num_virt,
                                    std::vector<std::uint32_t>& assignment) {
    std::vector<std::uint32_t> free_regs;
    if (file == RegFile::Gpr) {
      for (std::uint32_t r = CallConv::first_allocatable();
           r < config_.num_gprs; ++r) {
        free_regs.push_back(r);
      }
    } else if (file == RegFile::Pred) {
      for (std::uint32_t r = 1; r < config_.num_preds; ++r) {
        free_regs.push_back(r);
      }
    } else {
      for (std::uint32_t r = 0; r < config_.num_btrs; ++r) {
        free_regs.push_back(r);
      }
    }
    // Round-robin (FIFO) reuse: freed registers go to the back of the
    // queue, so consecutive short-lived values land in distinct physical
    // registers. This matters post-RA: immediate reuse would manufacture
    // WAW/WAR dependences that serialise the list scheduler and destroy
    // the ILP the EPIC datapath exists to exploit.
    std::size_t free_head = 0;
    const auto take_free = [&]() {
      const std::uint32_t r = free_regs[free_head];
      free_regs.erase(free_regs.begin() +
                      static_cast<std::ptrdiff_t>(free_head));
      if (free_head >= free_regs.size()) free_head = 0;
      return r;
    };

    std::vector<Interval> intervals = build_intervals(file, num_virt);
    std::erase_if(intervals, [](const Interval& i) { return i.start < 0; });

    std::set<std::uint32_t> spills;
    if (file == RegFile::Gpr) {
      // All registers are caller-save: call-crossing values go to memory.
      for (const Interval& i : intervals) {
        if (i.crosses_call && spilled_.count(i.vid) == 0) {
          spills.insert(i.vid);
        }
      }
      if (!spills.empty()) return spills;
    }

    std::sort(intervals.begin(), intervals.end(),
              [](const Interval& a, const Interval& b) {
                return a.start < b.start ||
                       (a.start == b.start && a.vid < b.vid);
              });

    assignment.assign(num_virt, 0);
    struct Active {
      int end;
      std::uint32_t vid;
      std::uint32_t phys;
    };
    std::vector<Active> active;  // kept sorted by end

    for (const Interval& i : intervals) {
      // Expire.
      std::erase_if(active, [&](const Active& a) {
        if (a.end < i.start) {
          free_regs.push_back(a.phys);
          return true;
        }
        return false;
      });
      if (!free_regs.empty()) {
        const std::uint32_t phys = take_free();
        assignment[i.vid] = phys;
        active.push_back({i.end, i.vid, phys});
        continue;
      }
      if (file != RegFile::Gpr) {
        throw Error(cat("out of ", file == RegFile::Pred ? "predicate"
                                                         : "branch-target",
                        " registers in @", fn_.name,
                        "; increase the register-file size in the "
                        "configuration"));
      }
      // Spill the active interval with the furthest end (or this one).
      auto victim = std::max_element(
          active.begin(), active.end(),
          [](const Active& a, const Active& b) { return a.end < b.end; });
      if (victim != active.end() && victim->end > i.end) {
        spills.insert(victim->vid);
        assignment[i.vid] = victim->phys;
        const int end = i.end;
        const std::uint32_t vid = i.vid;
        const std::uint32_t phys = victim->phys;
        active.erase(victim);
        active.push_back({end, vid, phys});
      } else {
        spills.insert(i.vid);
      }
    }
    return spills;
  }

  // ---- spilling ----

  std::uint32_t slot_of(std::uint32_t vid) {
    auto [it, fresh] = spilled_.try_emplace(
        vid, 4 + fn_.frame_bytes +
                 4 * static_cast<std::uint32_t>(spilled_.size()));
    return it->second;
  }

  void rewrite_spills(const std::set<std::uint32_t>& to_spill) {
    for (std::uint32_t vid : to_spill) slot_of(vid);

    for (MBlock& block : fn_.blocks) {
      std::vector<MInst> rewritten;
      rewritten.reserve(block.insts.size());
      for (MInst& mi : rewritten_scratch_assign(block)) {
        std::map<std::uint32_t, std::uint32_t> temp_for;  // vid -> temp reg
        bool any_def = false;
        std::uint32_t def_vid = 0;

        for (const RegRef& r : reg_refs(mi.inst)) {
          if (r.file != RegFile::Gpr || !is_virtual(*r.slot)) continue;
          const std::uint32_t vid = virt_id(*r.slot);
          if (to_spill.count(vid) == 0) continue;
          auto [it, fresh] = temp_for.try_emplace(vid, 0);
          if (fresh) it->second = virt_reg(fn_.num_vgpr++);
          *r.slot = it->second;
          if (r.is_def) {
            any_def = true;
            def_vid = vid;
          }
        }

        (void)any_def;
        (void)def_vid;
        // A temp needs a reload before the instruction when it is read
        // (source operand, store value, or a guarded def, which
        // reads-through), and a store after when it is written.
        std::set<std::uint32_t> temps_read;
        std::set<std::uint32_t> temps_written;
        for (const RegRef& r : reg_refs(mi.inst)) {
          if (r.file != RegFile::Gpr) continue;
          for (const auto& [vid, temp] : temp_for) {
            if (*r.slot == temp) {
              if (r.is_def) {
                temps_written.insert(vid);
                if (r.guarded) temps_read.insert(vid);
              } else {
                temps_read.insert(vid);
              }
            }
          }
        }
        for (const auto& [vid, temp] : temp_for) {
          if (temps_read.count(vid) != 0) {
            MInst ld;
            ld.inst = Instruction::make(Op::LDW, temp,
                                        Operand::r(CallConv::kSp),
                                        Operand::imm(static_cast<std::int32_t>(
                                            slot_of(vid))));
            rewritten.push_back(std::move(ld));
          }
        }
        const std::uint32_t guard = mi.inst.pred;
        rewritten.push_back(std::move(mi));
        for (const auto& [vid, temp] : temp_for) {
          if (temps_written.count(vid) != 0) {
            MInst st;
            st.inst = Instruction::make(Op::STW, temp,
                                        Operand::r(CallConv::kSp),
                                        Operand::imm(static_cast<std::int32_t>(
                                            slot_of(vid))),
                                        guard);
            rewritten.push_back(std::move(st));
          }
        }
      }
      block.insts = std::move(rewritten);
    }
  }

  // Helper granting mutable iteration over a block's insts by value-move.
  std::vector<MInst>& rewritten_scratch_assign(MBlock& block) {
    scratch_ = std::move(block.insts);
    block.insts.clear();
    return scratch_;
  }

  // ---- driver ----

  bool try_allocate() {
    number_positions();

    std::vector<std::uint32_t> gpr_assign;
    const std::set<std::uint32_t> spills =
        scan_file(RegFile::Gpr, fn_.num_vgpr, gpr_assign);
    if (!spills.empty()) {
      rewrite_spills(spills);
      return false;
    }
    std::vector<std::uint32_t> pred_assign;
    scan_file(RegFile::Pred, fn_.num_vpred, pred_assign);
    std::vector<std::uint32_t> btr_assign;
    scan_file(RegFile::Btr, fn_.num_vbtr, btr_assign);

    for (MBlock& block : fn_.blocks) {
      for (MInst& mi : block.insts) {
        for (const RegRef& r : reg_refs(mi.inst)) {
          if (!is_virtual(*r.slot)) continue;
          const std::uint32_t vid = virt_id(*r.slot);
          switch (r.file) {
            case RegFile::Gpr: *r.slot = gpr_assign[vid]; break;
            case RegFile::Pred: *r.slot = pred_assign[vid]; break;
            case RegFile::Btr: *r.slot = btr_assign[vid]; break;
            case RegFile::None: break;
          }
        }
      }
    }
    return true;
  }

  void patch_frame() {
    const std::uint32_t frame_total =
        4 + fn_.frame_bytes + 4 * static_cast<std::uint32_t>(spilled_.size());
    if (!fits_signed(static_cast<std::int32_t>(frame_total), 16)) {
      throw Error(cat("frame of @", fn_.name, " too large: ", frame_total));
    }
    for (MBlock& block : fn_.blocks) {
      for (MInst& mi : block.insts) {
        if (mi.frame_sign != 0) {
          mi.inst.src2 = Operand::imm(mi.frame_sign *
                                      static_cast<std::int32_t>(frame_total));
        }
      }
    }
  }

  MFunc& fn_;
  const ProcessorConfig& config_;
  std::vector<int> pos_start_, pos_end_;
  std::vector<int> call_positions_;
  std::map<std::uint32_t, std::uint32_t> spilled_;  // vid -> frame offset
  std::vector<MInst> scratch_;
};

}  // namespace

void allocate_registers(MFunc& fn, const ProcessorConfig& config) {
  Allocator(fn, config).run();
}

}  // namespace cepic::backend
