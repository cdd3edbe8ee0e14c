#include "analysis/static_cycles.hpp"

#include <algorithm>
#include <optional>

#include "core/eval.hpp"
#include "core/isa.hpp"
#include "mdes/mdes.hpp"
#include "support/bits.hpp"
#include "support/text.hpp"

namespace cepic::analysis {

namespace {

/// The walker: a faithful re-statement of the simulator's interpretive
/// timing rules (sim/simulator.cpp step_interpretive + finish_step) over
/// three-valued register contents — known words or "unknown" (memory
/// loads, and everything derived from them).  Any divergence between
/// this walk and the simulator is a bug; tests/test_static_cycles.cpp
/// compares the two field-for-field on the fuzz corpus.
struct Walker {
  const Program& program;
  const Mdes& mdes;
  const CustomOpTable& custom;
  const StaticCycleOptions& options;
  StaticCycleReport& report;

  unsigned width;
  unsigned budget;
  bool fwd;

  // Register contents: value + known flag.  Index 0 of gpr/pred is
  // hardwired (r0 = 0, p0 = true) and never written.
  std::vector<std::uint32_t> gprs, btrs;
  std::vector<std::uint8_t> gpr_known, btr_known;
  std::vector<std::uint8_t> preds, pred_known;
  std::vector<std::uint64_t> gpr_ready, pred_ready, btr_ready;

  std::uint64_t cycle = 0;
  std::uint32_t pc = 0;
  bool halted = false;

  struct Val {
    std::uint32_t v = 0;
    bool known = false;
  };
  struct Write {
    RegFile file;
    std::uint32_t index;
    Val value;
    std::uint64_t ready;
  };

  Walker(const Program& p, const Mdes& m, const CustomOpTable& c,
         const StaticCycleOptions& o, StaticCycleReport& r)
      : program(p), mdes(m), custom(c), options(o), report(r) {
    width = p.config.datapath_width;
    budget = m.reg_port_budget();
    fwd = m.forwarding();
    gprs.assign(p.config.num_gprs, 0);
    gpr_known.assign(p.config.num_gprs, 1);
    preds.assign(p.config.num_preds, 0);
    pred_known.assign(p.config.num_preds, 1);
    btrs.assign(p.config.num_btrs, 0);
    btr_known.assign(p.config.num_btrs, 1);
    gpr_ready.assign(p.config.num_gprs, 0);
    pred_ready.assign(p.config.num_preds, 0);
    btr_ready.assign(p.config.num_btrs, 0);
    preds[0] = 1;  // p0 hardwired true
    pc = p.entry_bundle;
    report.per_pc.assign(p.bundle_count(), {});
  }

  std::uint64_t ready_cycle(RegFile file, std::uint32_t index) const {
    switch (file) {
      case RegFile::Gpr: return index == 0 ? 0 : gpr_ready[index];
      case RegFile::Pred: return index == 0 ? 0 : pred_ready[index];
      case RegFile::Btr: return btr_ready[index];
      case RegFile::None: break;
    }
    return 0;
  }

  Val read_operand(const Operand& o, SrcSpec spec) const {
    if (o.is_lit()) {
      return {mask_to_width(static_cast<std::uint32_t>(o.lit), width), true};
    }
    if (!o.is_reg()) return {0, true};
    switch (reg_file(spec)) {
      case RegFile::Gpr:
        if (o.reg == 0) return {0, true};
        return {gprs[o.reg], gpr_known[o.reg] != 0};
      case RegFile::Pred:
        if (o.reg == 0) return {1, true};
        return {preds[o.reg] != 0 ? 1u : 0u, pred_known[o.reg] != 0};
      case RegFile::Btr:
        return {btrs[o.reg], btr_known[o.reg] != 0};
      case RegFile::None:
        break;
    }
    return {0, true};
  }

  void write_back(const std::vector<Write>& writes) {
    for (const Write& w : writes) {
      switch (w.file) {
        case RegFile::Gpr:
          if (w.index != 0) {
            gprs[w.index] = mask_to_width(w.value.v, width);
            gpr_known[w.index] = w.value.known ? 1 : 0;
            gpr_ready[w.index] = w.ready;
          }
          break;
        case RegFile::Pred:
          if (w.index != 0) {
            preds[w.index] = w.value.v != 0 ? 1 : 0;
            pred_known[w.index] = w.value.known ? 1 : 0;
            pred_ready[w.index] = w.ready;
          }
          break;
        case RegFile::Btr:
          btrs[w.index] = w.value.v;
          btr_known[w.index] = w.value.known ? 1 : 0;
          btr_ready[w.index] = w.ready;
          break;
        case RegFile::None:
          break;
      }
    }
  }

  /// One bundle.  Returns false when the walk must stop; report.exact /
  /// report.fault / report.reason say why.
  bool step() {
    if (pc >= program.bundle_count()) {
      report.fault = true;
      report.reason = cat("pc ", pc, " past end of program");
      return false;
    }
    const auto bundle = program.bundle(pc);
    SimStats& stats = report.stats;

    // ---- Issue: scoreboard over source operands. ----
    std::uint64_t issue = cycle;
    for (const Instruction& inst : bundle) {
      if (inst.is_nop()) continue;
      const OpInfo& info = inst.info();
      issue = std::max(issue, ready_cycle(RegFile::Pred, inst.pred));
      if (inst.src1.is_reg()) {
        issue =
            std::max(issue, ready_cycle(reg_file(info.src1), inst.src1.reg));
      }
      if (inst.src2.is_reg()) {
        issue =
            std::max(issue, ready_cycle(reg_file(info.src2), inst.src2.reg));
      }
      if (info.dest1_is_source) {
        issue = std::max(issue, ready_cycle(RegFile::Gpr, inst.dest1));
      }
    }
    const std::uint64_t sb_stall = issue - cycle;
    stats.stall_scoreboard += sb_stall;

    // ---- Register-port budget fixed point (§3.2). ----
    std::uint64_t port_stall = 0;
    for (int iter = 0; iter < 4; ++iter) {
      const std::uint64_t at = issue + port_stall;
      unsigned ports = 0;
      const auto count_read = [&](std::uint32_t reg) {
        if (reg == 0) return;
        if (!(fwd && gpr_ready[reg] == at)) ++ports;
      };
      for (const Instruction& inst : bundle) {
        if (inst.is_nop()) continue;
        const OpInfo& info = inst.info();
        if (inst.src1.is_reg() && reg_file(info.src1) == RegFile::Gpr) {
          count_read(inst.src1.reg);
        }
        if (inst.src2.is_reg() && reg_file(info.src2) == RegFile::Gpr) {
          count_read(inst.src2.reg);
        }
        if (info.dest1_is_source) count_read(inst.dest1);
        if (info.writes_dest1() && info.dest1 == RegFile::Gpr &&
            inst.dest1 != 0) {
          ++ports;
        }
      }
      const std::uint64_t needed =
          ports == 0 ? 0 : (ports + budget - 1) / budget - 1;
      if (needed == port_stall) break;
      port_stall = needed;
    }
    stats.stall_reg_ports += port_stall;
    issue += port_stall;

    // ---- Execute. ----
    std::vector<Write> writes;
    bool branch_taken = false;
    Val branch_target;
    bool halt_now = false;
    bool any_mem = false;
    unsigned useful_ops = 0;
    // First faulting store of the bundle; stores fault in write_back,
    // after every op has executed (so any load fault fires first).
    std::string store_fault;

    for (const Instruction& inst : bundle) {
      if (inst.is_nop()) {
        ++stats.nops;
        continue;
      }
      ++useful_ops;
      ++stats.ops_executed;
      const OpInfo& info = inst.info();
      if (!mdes.op_supported(inst.op)) {
        report.fault = true;
        report.reason = cat("operation `", std::string(info.name),
                            "` not implemented on this customisation");
        return false;
      }
      const bool pred_is_known = inst.pred == 0 || pred_known[inst.pred] != 0;
      if (!pred_is_known) {
        report.reason = cat("guard predicate p", inst.pred,
                            " statically unknown at bundle ", pc);
        return false;
      }
      const bool guard = inst.pred == 0 || preds[inst.pred] != 0;
      if (!guard) {
        ++stats.ops_nullified;
        continue;
      }
      ++stats.ops_committed;

      const Val a = read_operand(inst.src1, info.src1);
      const Val b = read_operand(inst.src2, info.src2);
      const std::uint64_t ready = issue + mdes.latency(inst.op);

      switch (info.fu) {
        case FuClass::Alu: {
          Val r;
          if (a.known && b.known) {
            r = {eval_alu(inst.op, a.v, b.v, width, &custom), true};
          }
          writes.push_back({RegFile::Gpr, inst.dest1, r, ready});
          break;
        }
        case FuClass::Cmpu: {
          Val r;
          if (a.known && b.known) {
            r = {eval_cmpp(inst.op, a.v, b.v, width) ? 1u : 0u, true};
          }
          writes.push_back({RegFile::Pred, inst.dest1, r, ready});
          if (info.dest2 != RegFile::None) {
            Val r2 = r;
            r2.v = r.v != 0 ? 0u : 1u;
            writes.push_back({RegFile::Pred, inst.dest2, r2, ready});
          }
          break;
        }
        case FuClass::Lsu: {
          if (inst.op == Op::OUT) break;
          any_mem = true;
          // Mirror DataMemory::check on the static effective address.
          // LDWS is the non-trapping speculative load: never faults, so
          // an unknown address is fine (the result is unknown anyway).
          if (inst.op != Op::LDWS) {
            if (!(a.known && b.known)) {
              report.reason =
                  cat("memory address statically unknown at bundle ", pc);
              return false;
            }
            const std::uint32_t addr = a.v + b.v;
            const bool is_store = !info.is_load;
            const unsigned n =
                (inst.op == Op::LDW || inst.op == Op::STW) ? 4u : 1u;
            std::string fault;
            if (addr < kDataBase) {
              fault = cat(is_store ? "store" : "load",
                          " to unmapped low address 0x", std::hex, addr,
                          " (null guard)");
            } else if (static_cast<std::uint64_t>(addr) + n >
                       options.mem_size) {
              fault = cat(is_store ? "store" : "load",
                          " past end of memory: 0x", std::hex, addr);
            } else if (n == 4 && (addr & 3u) != 0) {
              fault = cat("misaligned word ", is_store ? "store" : "load",
                          " at 0x", std::hex, addr);
            }
            if (!fault.empty()) {
              if (!is_store) {
                // Loads fault during execute, in op order.
                report.fault = true;
                report.reason = std::move(fault);
                return false;
              }
              if (store_fault.empty()) store_fault = std::move(fault);
            }
          }
          if (info.is_load) {
            writes.push_back({RegFile::Gpr, inst.dest1, Val{}, ready});
            ++stats.mem_reads;
          } else {
            ++stats.mem_writes;
          }
          break;
        }
        case FuClass::Bru:
          switch (inst.op) {
            case Op::PBR:
              writes.push_back(
                  {RegFile::Btr, inst.dest1,
                   Val{static_cast<std::uint32_t>(inst.src1.lit), true},
                   ready});
              break;
            case Op::BRU:
            case Op::BRR:
              if (!branch_taken) {
                branch_taken = true;
                branch_target = a;
              }
              break;
            case Op::BRCT:
            case Op::BRCF: {
              if (!b.known) {
                report.reason = cat("branch condition statically unknown "
                                    "at bundle ", pc);
                return false;
              }
              const bool cond = b.v != 0;
              const bool take = inst.op == Op::BRCT ? cond : !cond;
              if (take) {
                if (!branch_taken) {
                  branch_taken = true;
                  branch_target = a;
                }
              } else {
                ++stats.branches_not_taken;
              }
              break;
            }
            case Op::BRL:
              writes.push_back(
                  {RegFile::Gpr, inst.dest1, Val{pc + 1, true}, ready});
              if (!branch_taken) {
                branch_taken = true;
                branch_target = a;
              }
              break;
            case Op::HALT:
              halt_now = true;
              break;
            default:
              report.reason =
                  cat("unhandled BRU op at bundle ", pc);
              return false;
          }
          break;
        case FuClass::None:
          break;
      }
    }
    if (!store_fault.empty()) {
      // write_back applies stores before anything else of the step
      // completes, so a bad store beats branch resolution and pc update.
      report.fault = true;
      report.reason = std::move(store_fault);
      return false;
    }
    if (branch_taken && !branch_target.known) {
      report.reason = cat("branch target statically unknown at bundle ", pc);
      return false;
    }

    write_back(writes);

    // ---- finish_step accounting. ----
    const std::uint32_t issued_pc = pc;
    ++stats.bundles_issued;
    stats.bundle_width_hist[std::min<std::size_t>(
        useful_ops, SimStats::kMaxBundleWidth)]++;
    cycle = issue + 1;
    auto& cost = report.per_pc[issued_pc];
    ++cost.issues;
    cost.sb_stall += sb_stall;
    cost.port_stall += port_stall;

    const bool contention =
        program.config.unified_memory_contention && any_mem;
    if (contention) {
      ++cycle;
      ++stats.stall_mem_contention;
      ++cost.contention;
    }

    if (halt_now) {
      halted = true;
    } else if (branch_taken) {
      ++stats.branches_taken;
      const unsigned bubbles = program.config.pipeline_stages - 1;
      stats.branch_bubbles += bubbles;
      cycle += bubbles;
      cost.bubbles += bubbles;
      if (branch_target.v >= program.bundle_count()) {
        report.fault = true;
        report.reason = cat("branch to bundle ", branch_target.v,
                            " past end of program");
        return false;
      }
      pc = branch_target.v;
    } else {
      ++pc;
    }
    stats.cycles = cycle;
    return !halted;
  }
};

}  // namespace

std::string StaticCycleReport::to_string() const {
  std::string out;
  if (exact) {
    out = cat("static-cycles: exact, cycles=", stats.cycles,
              " bundles=", stats.bundles_issued,
              " sb-stalls=", stats.stall_scoreboard,
              " port-stalls=", stats.stall_reg_ports,
              " mem-contention=", stats.stall_mem_contention,
              " branch-bubbles=", stats.branch_bubbles, "\n");
  } else if (fault) {
    out = cat("static-cycles: predicted fault: ", reason, "\n");
  } else {
    out = cat("static-cycles: bounded (", reason, ") after ",
              walked_bundles, " bundles\n");
  }
  out += cat("  bound: bundles_issued <= cycles <= bundles_issued * ",
             max_cycles_per_bundle, "\n");
  // Stall attribution: the costliest pcs of the walk, heaviest first.
  std::vector<std::uint32_t> pcs;
  for (std::uint32_t p = 0; p < per_pc.size(); ++p) {
    const auto& c = per_pc[p];
    if (c.sb_stall + c.port_stall + c.contention + c.bubbles > 0) {
      pcs.push_back(p);
    }
  }
  std::sort(pcs.begin(), pcs.end(), [&](std::uint32_t x, std::uint32_t y) {
    const auto& a = per_pc[x];
    const auto& b = per_pc[y];
    const std::uint64_t ca = a.sb_stall + a.port_stall + a.contention + a.bubbles;
    const std::uint64_t cb = b.sb_stall + b.port_stall + b.contention + b.bubbles;
    if (ca != cb) return ca > cb;
    return x < y;
  });
  const std::size_t limit = std::min<std::size_t>(pcs.size(), 16);
  for (std::size_t i = 0; i < limit; ++i) {
    const auto& c = per_pc[pcs[i]];
    out += cat("  bundle ", pcs[i], ": issues=", c.issues, " sb=", c.sb_stall,
               " ports=", c.port_stall, " contention=", c.contention,
               " bubbles=", c.bubbles, "\n");
  }
  return out;
}

std::string StaticCycleReport::to_json() const {
  std::string out = cat("{\"exact\":", exact ? 1 : 0,
                        ",\"fault\":", fault ? 1 : 0,
                        ",\"walked_bundles\":", walked_bundles,
                        ",\"max_cycles_per_bundle\":", max_cycles_per_bundle);
  if (exact) {
    out += cat(",\"cycles\":", stats.cycles,
               ",\"bundles_issued\":", stats.bundles_issued,
               ",\"stall_scoreboard\":", stats.stall_scoreboard,
               ",\"stall_reg_ports\":", stats.stall_reg_ports,
               ",\"stall_mem_contention\":", stats.stall_mem_contention,
               ",\"branch_bubbles\":", stats.branch_bubbles);
  }
  out += "}";
  return out;
}

StaticCycleReport predict_cycles(const Program& program,
                                 const CustomOpTable& custom,
                                 const StaticCycleOptions& options) {
  StaticCycleReport report;

  // Bind builtin semantics for config-enabled custom ops the caller did
  // not supply, exactly as the simulator's constructor does.
  CustomOpTable bound = custom;
  for (unsigned slot = 0; slot < program.config.custom_ops.size(); ++slot) {
    if (!bound.has(slot)) {
      auto op = builtin_custom_op(program.config.custom_ops[slot]);
      if (op) bound.install(slot, std::move(*op));
    }
  }
  const Mdes mdes(program.config, &bound);

  // ---- Whole-program bound scan. ----
  std::uint64_t max_lat = 1;
  std::uint64_t max_ports = 0;
  bool any_branch = false;
  bool any_mem = false;
  for (std::size_t bi = 0; bi < program.bundle_count(); ++bi) {
    const auto bundle = program.bundle(static_cast<std::uint32_t>(bi));
    unsigned ports = 0;
    for (const Instruction& inst : bundle) {
      if (inst.is_nop()) continue;
      const OpInfo& info = inst.info();
      max_lat = std::max<std::uint64_t>(max_lat, mdes.latency(inst.op));
      any_branch |= info.is_branch;
      any_mem |= info.is_mem() && inst.op != Op::OUT;
      if (inst.src1.is_reg() && reg_file(info.src1) == RegFile::Gpr &&
          inst.src1.reg != 0) {
        ++ports;
      }
      if (inst.src2.is_reg() && reg_file(info.src2) == RegFile::Gpr &&
          inst.src2.reg != 0) {
        ++ports;
      }
      if (info.dest1_is_source && inst.dest1 != 0) ++ports;
      if (info.writes_dest1() && info.dest1 == RegFile::Gpr &&
          inst.dest1 != 0) {
        ++ports;
      }
    }
    max_ports = std::max<std::uint64_t>(max_ports, ports);
  }
  const unsigned budget = mdes.reg_port_budget();
  const std::uint64_t port_bound =
      max_ports == 0 ? 0 : (max_ports + budget - 1) / budget - 1;
  report.max_cycles_per_bundle =
      1 + (max_lat - 1) + port_bound +
      (program.config.unified_memory_contention && any_mem ? 1 : 0) +
      (any_branch ? program.config.pipeline_stages - 1 : 0);

  if (program.config.issue_width > SimStats::kMaxBundleWidth) {
    report.fault = true;
    report.reason = cat("issue_width ", program.config.issue_width,
                        " exceeds the bundle-width histogram range 0..",
                        SimStats::kMaxBundleWidth);
    return report;
  }

  // The simulator refuses such a program at construction, before the
  // first bundle; the walk indexes register arrays by these fields.
  if (std::string fault = register_range_fault(program); !fault.empty()) {
    report.fault = true;
    report.reason = std::move(fault);
    return report;
  }

  // ---- Static walk. ----
  Walker w(program, mdes, bound, options, report);
  while (report.walked_bundles < options.max_bundles) {
    ++report.walked_bundles;
    if (!w.step()) break;
  }
  if (w.halted) {
    report.exact = true;
  } else if (!report.fault && report.reason.empty()) {
    report.reason = cat("walk budget of ", options.max_bundles,
                        " bundles exhausted");
  }
  return report;
}

}  // namespace cepic::analysis
